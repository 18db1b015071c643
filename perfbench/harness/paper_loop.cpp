#include "paper_loop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lidar/energy.hpp"
#include "net/link.hpp"
#include "nn/optimizer.hpp"

namespace s2a::perfbench {

namespace {
// Streams of one tick: the scan's draws and STARNet's SPSA draws.
constexpr std::uint64_t kSenseStream = 1;
constexpr std::uint64_t kTrustStream = 2;
constexpr std::uint64_t kClipStream = 3;
constexpr std::uint64_t kReferenceStream = 4;

// Fixed seeds: the reference model is part of the program, and the
// scene corpus is the benchmark's recorded drive.
constexpr std::uint64_t kModelSeed = 1001;
constexpr std::uint64_t kCorpusSeed = 1004;
constexpr std::uint64_t kStarNetSeed = 1002;
constexpr std::uint64_t kLoopInitSeed = 1003;

void copy_params(const std::vector<nn::Tensor*>& dst,
                 const std::vector<nn::Tensor*>& src) {
  if (dst.size() != src.size()) throw std::logic_error("parameter count mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) *dst[i] = *src[i];
}

void digest_params(Digest& d, const std::vector<nn::Tensor*>& params) {
  for (const nn::Tensor* t : params) d.bytes(t->data(), t->numel() * sizeof(double));
}

nn::Tensor grid_tensor(const lidar::VoxelGridConfig& g, const double* values) {
  const std::size_t n = static_cast<std::size_t>(g.nz) * g.ny * g.nx;
  return nn::Tensor({1, g.nz, g.ny, g.nx}, std::vector<double>(values, values + n));
}

bool same_grid(const lidar::VoxelGrid& a, const lidar::VoxelGrid& b) {
  const nn::Tensor ta = a.to_tensor(), tb = b.to_tensor();
  return ta.numel() == tb.numel() &&
         std::equal(ta.data(), ta.data() + ta.numel(), tb.data());
}

bool same_cloud(const sim::PointCloud& a, const sim::PointCloud& b) {
  if (a.pulses_fired != b.pulses_fired || a.emitted_energy_j != b.emitted_energy_j ||
      a.returns.size() != b.returns.size())
    return false;
  for (std::size_t i = 0; i < a.returns.size(); ++i) {
    const sim::LidarReturn &x = a.returns[i], &y = b.returns[i];
    if (x.point.x != y.point.x || x.point.y != y.point.y || x.point.z != y.point.z ||
        x.range != y.range || x.azimuth_idx != y.azimuth_idx ||
        x.elevation_idx != y.elevation_idx || x.hit != y.hit ||
        x.pulse_energy_j != y.pulse_energy_j)
      return false;
  }
  return true;
}

bool same_energy(const lidar::EnergyReport& a, const lidar::EnergyReport& b) {
  return a.coverage == b.coverage && a.avg_pulse_energy_j == b.avg_pulse_energy_j &&
         a.model_params == b.model_params && a.flops_per_scan == b.flops_per_scan &&
         a.int8_macs_per_scan == b.int8_macs_per_scan &&
         a.sensing_energy_j == b.sensing_energy_j &&
         a.reconstruction_energy_j == b.reconstruction_energy_j;
}
}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                          std::uint64_t stream) {
  return net::mix_seed(net::mix_seed(net::mix_seed(seed, a), b), stream);
}

PaperConfig PaperConfig::standard() {
  PaperConfig c;
  c.lidar.azimuth_steps = 180;
  c.lidar.elevation_steps = 8;
  c.ae.grid.nx = c.ae.grid.ny = 32;
  c.det.grid = c.ae.grid;
  c.starnet.vae.input_dim = c.det.c2;
  // Calibrated on clean reconstructions: a trusted stream stays NOMINAL.
  c.starnet.threshold_percentile = 100.0;
  c.starnet.vae_epochs = 30;
  return c;
}

PaperConfig PaperConfig::tiny() {
  PaperConfig c = standard();
  c.lidar.azimuth_steps = 60;
  c.lidar.elevation_steps = 4;
  c.ae.grid.nx = c.ae.grid.ny = 16;
  c.det.grid = c.ae.grid;
  c.pretrain_scenes = 4;
  c.pretrain_epochs = 2;
  c.detector_scenes = 4;
  c.detector_epochs = 1;
  c.calib_scenes = 64;
  c.starnet.vae_epochs = 10;
  c.clips = 2;
  c.clip_ticks = 4;
  return c;
}

std::unique_ptr<PaperModel> PaperModel::build(const PaperConfig& cfg) {
  auto m = std::make_unique<PaperModel>();
  m->cfg = cfg;
  Rng rng(kModelSeed);
  m->pipeline = std::make_unique<lidar::GenerativeSensingPipeline>(
      cfg.lidar, cfg.ae, lidar::RadialMaskerConfig{}, rng);
  m->pipeline->pretrain(cfg.pretrain_scenes, cfg.pretrain_epochs, cfg.pretrain_lr,
                        rng, cfg.scenes);

  // The detector starts from the pretrained encoder and is fine-tuned on
  // full scans (Table I's "+pretraining" recipe).
  m->detector = std::make_unique<lidar::BevDetector>(cfg.det, rng);
  m->detector->init_from_pretrained(m->pipeline->autoencoder());
  std::vector<sim::Scene> scenes;
  std::vector<nn::Tensor> grids;
  for (int i = 0; i < cfg.detector_scenes; ++i) {
    scenes.push_back(sim::generate_scene(cfg.scenes, rng));
    const sim::PointCloud pc = m->pipeline->lidar().full_scan(scenes.back(), rng);
    grids.push_back(lidar::VoxelGrid::from_cloud(pc, cfg.det.grid).to_tensor());
  }
  nn::Adam opt(cfg.detector_lr);
  opt.attach(m->detector->params(), m->detector->grads());
  for (int e = 0; e < cfg.detector_epochs; ++e)
    for (std::size_t i = 0; i < scenes.size(); ++i)
      m->detector->train_step(grids[i], scenes[i], opt);

  // STARNet watches embeddings of what the loop actually sees: clean
  // scenes sensed through the generative pipeline.
  for (int i = 0; i < cfg.calib_scenes; ++i) {
    const sim::Scene scene = sim::generate_scene(cfg.scenes, rng);
    const lidar::SensedScene s = m->pipeline->sense(scene, rng);
    m->calib.push_back(m->detector->feature_embedding(s.reconstructed.to_tensor()));
  }
  return m;
}

std::unique_ptr<monitor::StarNet> PaperModel::fit_starnet() const {
  Rng rng(kStarNetSeed);
  auto sn = std::make_unique<monitor::StarNet>(cfg.starnet, rng);
  sn->fit(calib, rng);
  return sn;
}

ClipSet ClipSet::make(const PaperConfig& cfg, int member) {
  const std::uint64_t seed = kCorpusSeed;
  ClipSet c;
  const sim::LidarSimulator lidar(cfg.lidar);
  for (int k = 0; k < cfg.clips; ++k) {
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(member),
                        static_cast<std::uint64_t>(k), kClipStream));
    sim::Scene scene = sim::generate_scene(cfg.scenes, rng);
    for (int t = 0; t < cfg.clip_ticks; ++t) {
      Rng ref_rng(derive_seed(seed, static_cast<std::uint64_t>(member),
                              c.states.size(), kReferenceStream));
      c.full.push_back(
          lidar::VoxelGrid::from_cloud(lidar.full_scan(scene, ref_rng), cfg.ae.grid));
      c.states.push_back(scene);
      scene.step(cfg.dt);
    }
  }
  return c;
}

std::size_t detector_macs(const lidar::DetectorConfig& det) {
  const std::size_t h2 = static_cast<std::size_t>(det.grid.ny / 2) * (det.grid.nx / 2);
  const std::size_t h4 = static_cast<std::size_t>(det.grid.ny / 4) * (det.grid.nx / 4);
  const std::size_t c1 = static_cast<std::size_t>(det.c1);
  const std::size_t c2 = static_cast<std::size_t>(det.c2);
  const std::size_t nz = static_cast<std::size_t>(det.grid.nz);
  return c1 * nz * 9 * h2 +                            // conv1 3x3 stride 2
         c2 * c1 * 9 * h4 +                            // conv2 3x3 stride 2
         c2 * c1 * 16 * h4 +                           // 4x4 stride-2 transpose
         c1 * (sim::kNumObjectClasses + 2) * h2;       // 1x1 heads
}

// ---- Adapters -------------------------------------------------------------

class PaperLoop::Sensor : public core::Sensor {
 public:
  explicit Sensor(PaperLoop& p) : p_(p) {}
  core::Observation sense(double, Rng&) override {
    p_.entry_us_ = now_us();
    const long t = p_.tick_;
    if (p_.log_) p_.log_->set_unit(p_.unit_id());
    ScopedSpan span(p_.log_, "bench.sensor");
    const int state = static_cast<int>(t % static_cast<long>(p_.clips_.states.size()));
    Rng rng(derive_seed(p_.seed_, static_cast<std::uint64_t>(p_.member_),
                        static_cast<std::uint64_t>(t), kSenseStream));
    const sim::Scene& scene = p_.clips_.states[static_cast<std::size_t>(state)];
    lidar::SensedScene s = p_.log_ ? p_.sense_decomposed(scene, rng)
                                   : p_.pipeline_.sense(scene, rng);
    const nn::Tensor grid = s.reconstructed.to_tensor();
    std::vector<double> emb;
    {
      ScopedSpan embed(p_.log_, "lidar.embed");
      emb = p_.detector_.feature_embedding(grid);
    }
    core::Observation obs;
    obs.data = std::move(emb);
    obs.data.insert(obs.data.end(), grid.data(), grid.data() + grid.numel());
    obs.energy_j = s.energy.total_energy_j();

    LoopRecord& r = p_.rec_;
    r.returns += static_cast<long>(s.cloud.hit_count());
    r.sensing_j += s.energy.sensing_energy_j;
    r.recon_j += s.energy.reconstruction_energy_j;
    r.recon.push_back(std::move(s.reconstructed));
    r.state.push_back(state);
    ++p_.tick_;
    return obs;
  }

 private:
  PaperLoop& p_;
};

class PaperLoop::Trust : public core::TrustMonitor {
 public:
  explicit Trust(PaperLoop& p) : p_(p) {}
  bool trusted(const core::Observation& obs, Rng&) override {
    ScopedSpan span(p_.log_, "bench.trust");
    // The sensor has already advanced the tick counter.
    Rng rng(derive_seed(p_.seed_, static_cast<std::uint64_t>(p_.member_),
                        static_cast<std::uint64_t>(p_.tick_ - 1), kTrustStream));
    const std::size_t dim = static_cast<std::size_t>(p_.detector_.embedding_dim());
    const std::vector<double> emb(obs.data.begin(),
                                  obs.data.begin() + static_cast<std::ptrdiff_t>(dim));
    bool ok;
    {
      ScopedSpan check(p_.log_, "monitor.trust");
      ok = p_.starnet_->trusted(emb, rng);
    }
    ++p_.rec_.trust_checks;
    p_.rec_.trusted += ok;
    p_.rec_.digest.add(static_cast<std::int64_t>(ok));
    return ok;
  }

 private:
  PaperLoop& p_;
};

class PaperLoop::Processor : public core::Processor {
 public:
  explicit Processor(PaperLoop& p) : p_(p) {}
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    ScopedSpan span(p_.log_, "bench.processor");
    const std::size_t dim = static_cast<std::size_t>(p_.detector_.embedding_dim());
    const nn::Tensor grid = grid_tensor(p_.cfg_.det.grid, obs.data.data() + dim);
    std::vector<lidar::Detection> dets;
    {
      ScopedSpan detect(p_.log_, "lidar.detect");
      dets = p_.detector_.detect(grid);
    }
    return p_.control(dets);
  }
  double energy_per_call_j() const override { return p_.processor_energy_j(); }

 private:
  PaperLoop& p_;
};

class PaperLoop::Actuator : public core::Actuator {
 public:
  explicit Actuator(PaperLoop& p) : p_(p) {}
  void actuate(const core::Action& action, Rng&) override {
    {
      ScopedSpan span(p_.log_, "bench.actuator");
      p_.rec_.digest.add(action.data);
      const bool finite = std::all_of(action.data.begin(), action.data.end(),
                                      [](double v) { return std::isfinite(v); });
      // A fresh action is one the loop counted as processed this tick,
      // not a fallback re-issue.
      const long actions = p_.loop_->metrics().actions;
      p_.rec_.nonfinite_actions += !finite;
      p_.rec_.good_ticks += finite && actions != p_.actions_seen_;
      p_.actions_seen_ = actions;
    }
    p_.rec_.latency_ms.push_back((now_us() - p_.entry_us_) / 1000.0);
  }

 private:
  PaperLoop& p_;
};

// ---- PaperLoop ------------------------------------------------------------

PaperLoop::PaperLoop(const PaperModel& ref, const ClipSet& clips, std::uint64_t seed,
                     int member, SpanLog* log)
    : cfg_(ref.cfg),
      clips_(clips),
      seed_(seed),
      member_(member),
      log_(log),
      init_rng_(kLoopInitSeed),
      pipeline_(cfg_.lidar, cfg_.ae, lidar::RadialMaskerConfig{}, init_rng_),
      detector_(cfg_.det, init_rng_),
      starnet_(ref.fit_starnet()),
      loop_rng_(derive_seed(seed, static_cast<std::uint64_t>(member), 0, 0)) {
  copy_params(pipeline_.autoencoder().params(), ref.pipeline->autoencoder().params());
  copy_params(detector_.params(), ref.detector->params());
  sensor_ = std::make_unique<Sensor>(*this);
  trust_ = std::make_unique<Trust>(*this);
  processor_ = std::make_unique<Processor>(*this);
  actuator_ = std::make_unique<Actuator>(*this);
  core::LoopConfig lc;
  lc.dt = cfg_.dt;
  loop_ = std::make_unique<core::SensingActionLoop>(*sensor_, *processor_, *actuator_,
                                                    policy_, lc, trust_.get());
}

PaperLoop::~PaperLoop() = default;

void PaperLoop::tick() {
  if (log_) log_->set_unit(unit_id());
  ScopedSpan span(log_, "core.loop");
  loop_->tick(loop_rng_);
}

core::LoopMetrics PaperLoop::begin_measurement() {
  rec_ = LoopRecord{};
  if (log_) log_->clear();
  return loop_->metrics();
}

lidar::SensedScene PaperLoop::sense_decomposed(const sim::Scene& scene, Rng& rng) {
  const lidar::VoxelGridConfig& g = cfg_.ae.grid;
  lidar::OccupancyAutoencoder& ae = pipeline_.autoencoder();
  lidar::SensedScene out;
  std::vector<sim::BeamCommand> plan;
  {
    ScopedSpan s(log_, "lidar.beam_plan");
    plan = pipeline_.masker().beam_plan(pipeline_.lidar().config(), rng);
  }
  {
    ScopedSpan s(log_, "sim.selective_scan");
    out.cloud = pipeline_.lidar().selective_scan(scene, plan, rng);
  }
  {
    ScopedSpan s(log_, "lidar.voxelize");
    out.sensed = lidar::VoxelGrid::from_cloud(out.cloud, g);
  }
  const nn::Tensor probs = out.sensed.to_tensor();
  nn::Tensor recon;
  {
    ScopedSpan s(log_, "lidar.reconstruct");
    recon = ae.reconstruct(probs);
  }
  {
    ScopedSpan s(log_, "lidar.merge");
    out.reconstructed = lidar::VoxelGrid::from_tensor(recon, g);
    for (int z = 0; z < g.nz; ++z)
      for (int y = 0; y < g.ny; ++y)
        for (int x = 0; x < g.nx; ++x)
          if (out.sensed.occupied(x, y, z)) out.reconstructed.set(x, y, z, true);
  }
  out.energy = lidar::make_energy_report(out.cloud, pipeline_.lidar().config(),
                                         ae.param_count(), ae.macs_per_scan());
  return out;
}

std::vector<double> PaperLoop::control(const std::vector<lidar::Detection>& dets) {
  // Slow for the nearest object in the ego lane, steer away from close
  // objects weighted by confidence.
  double throttle = 1.0, steer = 0.0;
  for (const lidar::Detection& d : dets) {
    const double x = d.box.center.x, y = d.box.center.y;
    const double r = std::max(1.0, std::hypot(x, y));
    if (x > 0.0 && std::abs(y) < 4.0) throttle = std::min(throttle, (r - 15.0) / 20.0);
    steer -= d.score * (y >= 0.0 ? 1.0 : -1.0) / r;
    rec_.digest.add(static_cast<std::int64_t>(d.cls));
    rec_.digest.add(x);
    rec_.digest.add(y);
    rec_.digest.add(d.score);
  }
  return {std::clamp(throttle, -1.0, 1.0), std::clamp(steer, -1.0, 1.0),
          static_cast<double>(dets.size())};
}

double PaperLoop::mean_iou() const {
  std::vector<double> iou;
  iou.reserve(rec_.recon.size());
  for (std::size_t i = 0; i < rec_.recon.size(); ++i)
    iou.push_back(rec_.recon[i].iou(clips_.full[static_cast<std::size_t>(rec_.state[i])]));
  return mean(iou);
}

bool PaperLoop::decomposition_matches(int state, long tick) {
  const sim::Scene& scene = clips_.states[static_cast<std::size_t>(state)];
  const std::uint64_t s = derive_seed(seed_, static_cast<std::uint64_t>(member_),
                                      static_cast<std::uint64_t>(tick), kSenseStream);
  Rng a(s), b(s);
  SpanLog* saved = log_;
  log_ = nullptr;
  const lidar::SensedScene x = sense_decomposed(scene, a);
  log_ = saved;
  const lidar::SensedScene y = pipeline_.sense(scene, b);
  return same_cloud(x.cloud, y.cloud) && same_grid(x.sensed, y.sensed) &&
         same_grid(x.reconstructed, y.reconstructed) && same_energy(x.energy, y.energy);
}

double PaperLoop::processor_energy_j() const {
  return 2.0 * static_cast<double>(detector_macs(cfg_.det)) * lidar::kJoulesPerFlop;
}

std::uint64_t PaperLoop::model_digest() {
  Digest d;
  digest_params(d, pipeline_.autoencoder().params());
  digest_params(d, detector_.params());
  d.add(starnet_->threshold());
  return d.value();
}

}  // namespace s2a::perfbench
