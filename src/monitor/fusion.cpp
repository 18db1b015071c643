#include "monitor/fusion.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace s2a::monitor {

std::vector<lidar::Detection> simulate_camera_detections(
    const sim::Scene& scene, int severity, const CameraDetectorConfig& cfg,
    Rng& rng) {
  S2A_CHECK(severity >= 0 && severity <= 5);
  std::vector<lidar::Detection> out;
  const double miss = std::min(0.95, cfg.miss_prob + severity * cfg.miss_per_severity);
  for (const auto& obj : scene.objects) {
    if (rng.bernoulli(miss)) continue;
    lidar::Detection d;
    d.cls = obj.cls;
    d.box = obj.box;
    d.box.center.x += rng.normal(0.0, cfg.center_noise);
    d.box.center.y += rng.normal(0.0, cfg.center_noise);
    d.score = rng.uniform(0.5, 0.9);
    out.push_back(d);
  }
  // False positives scattered over the scene.
  const int fps = rng.bernoulli(cfg.false_positives_mean) ? 1 : 0;
  for (int i = 0; i < fps; ++i) {
    lidar::Detection d;
    d.cls = static_cast<sim::ObjectClass>(rng.uniform_int(0, 2));
    const Vec3 size = sim::class_archetype_size(d.cls);
    d.box.center = {rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0),
                    size.z / 2.0};
    d.box.size = size;
    d.score = rng.uniform(0.3, 0.6);
    out.push_back(d);
  }
  return out;
}

double regret_to_reliability(double score, double threshold) {
  S2A_CHECK(threshold > 0.0);
  // A non-finite regret means the monitor itself broke down (NaN
  // embedding, overflowed ELBO) — the stream gets zero weight, it must
  // not propagate NaN into detection-score scaling. Negative and
  // sub-threshold finite scores clamp to full reliability.
  if (!std::isfinite(score)) {
    S2A_COUNTER_ADD("monitor.reliability_nonfinite", 1);
    return 0.0;
  }
  if (score <= threshold) return 1.0;
  return threshold / score;
}

std::vector<lidar::Detection> reliability_weighted_fuse(
    const std::vector<lidar::Detection>& lidar_dets,
    const std::vector<lidar::Detection>& camera_dets,
    double lidar_reliability, double dedup_iou) {
  S2A_CHECK(lidar_reliability >= 0.0 && lidar_reliability <= 1.0);
  std::vector<lidar::Detection> weighted = lidar_dets;
  for (auto& d : weighted) d.score *= lidar_reliability;
  return trust_gated_fuse(weighted, camera_dets, /*lidar_trusted=*/true,
                          dedup_iou);
}

std::vector<lidar::Detection> trust_gated_fuse(
    const std::vector<lidar::Detection>& lidar_dets,
    const std::vector<lidar::Detection>& camera_dets, bool lidar_trusted,
    double dedup_iou) {
  S2A_TRACE_SCOPE_CAT("monitor.fuse", "monitor");
  if (!lidar_trusted) {
    S2A_COUNTER_ADD("monitor.lidar_gated_out", 1);
    return camera_dets;
  }

  std::vector<lidar::Detection> merged = lidar_dets;
  for (const auto& cam : camera_dets) {
    bool duplicate = false;
    for (auto& ld : merged) {
      if (ld.cls != cam.cls) continue;
      if (iou_bev(ld.box, cam.box) >= dedup_iou) {
        duplicate = true;
        if (cam.score > ld.score) ld = cam;
        break;
      }
    }
    if (!duplicate) merged.push_back(cam);
  }
  std::sort(merged.begin(), merged.end(),
            [](const lidar::Detection& a, const lidar::Detection& b) {
              return a.score > b.score;
            });
  return merged;
}

}  // namespace s2a::monitor
