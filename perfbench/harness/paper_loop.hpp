// The paper's sensing-to-action tick, assembled from the library's public
// pieces through benchmark-side adapters:
//
//   Sensor     GenerativeSensingPipeline::sense (beam plan → selective
//              scan → voxelize → R-MAE reconstruct → merge → energy
//              report) + BevDetector::feature_embedding
//   Trust      StarNet::trusted on that embedding
//   Processor  BevDetector::detect + a fixed control rule
//   Actuator   records the action
//
// driven by core::SensingActionLoop with PeriodicPolicy(1). A loop's
// input is a ClipSet — a fixed corpus of scene clips advanced by
// Scene::step and replayed in a fixed order — and every random draw of
// tick t comes from a generator derived from (workload seed, member, t),
// never from the loop's own stream, so a member does identical work
// whether it runs alone, under core::Fleet, or in a serial replay.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/loop.hpp"
#include "core/policies.hpp"
#include "lidar/detector.hpp"
#include "lidar/pipeline.hpp"
#include "monitor/starnet.hpp"
#include "sim/scene.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace s2a::perfbench {

/// Counter-derived seed of one stream of one tick or round.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                          std::uint64_t stream);

struct PaperConfig {
  sim::LidarConfig lidar;
  lidar::AutoencoderConfig ae;
  lidar::DetectorConfig det;
  monitor::StarNetConfig starnet;
  sim::SceneConfig scenes;
  int pretrain_scenes = 20, pretrain_epochs = 12;
  double pretrain_lr = 3e-3;
  int detector_scenes = 16, detector_epochs = 4;
  double detector_lr = 2e-3;
  int calib_scenes = 320;  ///< clean scenes STARNet is fitted on
  int clips = 64;         ///< scene clips per member
  int clip_ticks = 4;     ///< scene states per clip
  double dt = 0.1;        ///< tick period (s)

  /// The benchmark's tick: 180x8-beam LiDAR, 32x32x4 occupancy grid.
  static PaperConfig standard();
  /// A much smaller model and input set for the harness's own tests.
  static PaperConfig tiny();
};

/// The pre-trained reference model (fixed seeds: it is the program, not
/// the input). Loops copy its parameters.
struct PaperModel {
  PaperConfig cfg;
  std::unique_ptr<lidar::GenerativeSensingPipeline> pipeline;
  std::unique_ptr<lidar::BevDetector> detector;
  /// Clean embeddings of reconstructed scans; every loop's STARNet is
  /// fitted on these with the same seed, so all copies are identical.
  std::vector<std::vector<double>> calib;

  static std::unique_ptr<PaperModel> build(const PaperConfig& cfg);
  std::unique_ptr<monitor::StarNet> fit_starnet() const;
};

/// Scene clips of one member plus the full-scan grid of every state (the
/// quality reference), built in set-up. The clips are a fixed corpus —
/// member m always drives the same scenes — so quality and energy
/// depend on the workload seed only through the per-tick streams.
struct ClipSet {
  std::vector<sim::Scene> states;
  std::vector<lidar::VoxelGrid> full;

  static ClipSet make(const PaperConfig& cfg, int member);
};

/// Forward MACs of BevDetector::detect, from the detector's layer shapes.
std::size_t detector_macs(const lidar::DetectorConfig& det);

/// Per-loop accounting, kept outside the timed path where possible.
struct LoopRecord {
  std::vector<double> latency_ms;  ///< Sensor entry → Actuator exit
  std::vector<lidar::VoxelGrid> recon;  ///< reconstructed grid per tick
  std::vector<int> state;               ///< clip state per tick
  long trusted = 0;
  long trust_checks = 0;
  long returns = 0;  ///< LiDAR returns (hits) sensed
  double sensing_j = 0.0;
  double recon_j = 0.0;
  long nonfinite_actions = 0;  ///< actions with a non-finite value
  long good_ticks = 0;  ///< ticks that actuated a fresh, finite action
  Digest digest;  ///< actions, detections and trust decisions
};

class PaperLoop {
 public:
  /// `log` non-null records spans around every library call and runs
  /// the sense stage decomposed into the pipeline's public pieces.
  PaperLoop(const PaperModel& ref, const ClipSet& clips, std::uint64_t seed,
            int member, SpanLog* log = nullptr);
  ~PaperLoop();
  PaperLoop(const PaperLoop&) = delete;
  PaperLoop& operator=(const PaperLoop&) = delete;

  core::SensingActionLoop& loop() { return *loop_; }
  /// One loop tick; the loop's generator is unused by the adapters.
  void tick();
  /// Replays from tick `t`: the next tick senses the clip state and
  /// draws the streams of tick `t` again.
  void rewind(long t) { tick_ = t; }

  /// Starts a fresh record and span log (the warm-up ends here) and
  /// returns the metrics so far, to subtract from the final ones.
  core::LoopMetrics begin_measurement();
  const LoopRecord& record() const { return rec_; }
  int clip_states() const { return static_cast<int>(clips_.states.size()); }

  /// Mean voxel IoU of the recorded reconstructions against the
  /// full-scan grids of the same scene states.
  double mean_iou() const;
  /// Runs the decomposed sense and GenerativeSensingPipeline::sense on
  /// clip state `state` with the generator of tick `tick`; true when the
  /// two agree bit for bit (cloud, grids, energy report).
  bool decomposition_matches(int state, long tick);

  /// Digest of the loop's parameters and STARNet threshold.
  std::uint64_t model_digest();

 private:
  class Sensor;
  class Trust;
  class Processor;
  class Actuator;

  /// Span unit of the current tick: member and tick index.
  std::int64_t unit_id() const { return static_cast<std::int64_t>(member_) * 1000000 + tick_; }
  lidar::SensedScene sense_decomposed(const sim::Scene& scene, Rng& rng);
  std::vector<double> control(const std::vector<lidar::Detection>& dets);
  double processor_energy_j() const;

  const PaperConfig cfg_;
  const ClipSet& clips_;
  const std::uint64_t seed_;
  const int member_;
  SpanLog* log_;

  Rng init_rng_;  ///< initial weights, overwritten by the reference copy
  lidar::GenerativeSensingPipeline pipeline_;
  lidar::BevDetector detector_;
  std::unique_ptr<monitor::StarNet> starnet_;
  std::unique_ptr<Sensor> sensor_;
  std::unique_ptr<Trust> trust_;
  std::unique_ptr<Processor> processor_;
  std::unique_ptr<Actuator> actuator_;
  core::PeriodicPolicy policy_{1};
  std::unique_ptr<core::SensingActionLoop> loop_;
  Rng loop_rng_;

  long tick_ = 0;           ///< ticks sensed so far (the tick index)
  long actions_seen_ = 0;   ///< LoopMetrics::actions at the last actuation
  double entry_us_ = 0.0;   ///< Sensor entry of the current tick
  LoopRecord rec_;
};

}  // namespace s2a::perfbench
