// Cross-module integration tests: full pipelines wired the way the
// examples and benches wire them, at miniature scale, asserting the
// end-to-end behaviours the paper's sections claim.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/fleet.hpp"
#include "core/loop.hpp"
#include "fault/fault.hpp"
#include "lidar/batched.hpp"
#include "core/multi_agent.hpp"
#include "core/policies.hpp"
#include "koopman/agent.hpp"
#include "lidar/detector.hpp"
#include "lidar/pipeline.hpp"
#include "monitor/fusion.hpp"
#include "federated/fedavg.hpp"
#include "monitor/starnet.hpp"
#include "neuro/flow_nets.hpp"
#include "nn/optimizer.hpp"
#include "sim/corruptions.hpp"
#include "sim/dataset.hpp"
#include "util/stats.hpp"

namespace s2a {
namespace {

// ---------------------------------------------------------------------
// Sec. III: generative sensing inside the core loop — a LiDAR sensor that
// actively scans at <10% coverage, a processor that counts occupied
// voxels, and energy metering through the loop.
class GenerativeLidarSensor : public core::Sensor {
 public:
  GenerativeLidarSensor(lidar::GenerativeSensingPipeline& pipe,
                        const sim::Scene& scene)
      : pipe_(pipe), scene_(scene) {}

  core::Observation sense(double now, Rng& rng) override {
    const lidar::SensedScene s = pipe_.sense(scene_, rng);
    core::Observation obs;
    obs.data = {static_cast<double>(s.reconstructed.occupied_count())};
    obs.timestamp = now;
    obs.energy_j = s.energy.total_energy_j();
    return obs;
  }

 private:
  lidar::GenerativeSensingPipeline& pipe_;
  const sim::Scene& scene_;
};

class CountProcessor : public core::Processor {
 public:
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    return obs.data;
  }
};

class NullActuator : public core::Actuator {
 public:
  void actuate(const core::Action&, Rng&) override {}
};

TEST(Integration, GenerativeSensingInsideCoreLoop) {
  Rng rng(1);
  sim::LidarConfig lc;
  lc.azimuth_steps = 90;
  lc.elevation_steps = 6;
  lidar::AutoencoderConfig ac;
  ac.grid.nx = ac.grid.ny = 16;
  ac.c1 = ac.c2 = 8;
  lidar::GenerativeSensingPipeline pipe(lc, ac, lidar::RadialMaskerConfig{},
                                        rng);
  const sim::Scene scene = sim::generate_scene(sim::SceneConfig{}, rng);

  GenerativeLidarSensor sensor(pipe, scene);
  CountProcessor proc;
  NullActuator act;
  core::PeriodicPolicy policy(1);
  core::SensingActionLoop loop(sensor, proc, act, policy);
  loop.run(5, rng);

  EXPECT_EQ(loop.metrics().senses, 5);
  // Each active scan must cost far less than a conventional one
  // (90×6 beams × 50 µJ = 27 mJ).
  EXPECT_LT(loop.metrics().sensing_energy_j / 5, 0.27e-3 * 27);
  EXPECT_GT(loop.metrics().sensing_energy_j, 0.0);
}

// ---------------------------------------------------------------------
// Sec. V: STARNet as the loop's TrustMonitor — corrupted observations
// never reach the actuator.
class EmbeddingSensor : public core::Sensor {
 public:
  EmbeddingSensor(lidar::BevDetector& det, const sim::LidarSimulator& lidar,
                  const lidar::VoxelGridConfig& grid, bool* corrupt_flag)
      : det_(det), lidar_(lidar), grid_(grid), corrupt_(corrupt_flag) {}

  core::Observation sense(double now, Rng& rng) override {
    sim::SceneConfig sc;
    sc.extent = 26.0;
    const sim::Scene scene = sim::generate_scene(sc, rng);
    sim::PointCloud pc = lidar_.full_scan(scene, rng);
    if (*corrupt_)
      pc = sim::apply_corruption(pc, sim::CorruptionType::kCrosstalk, 4,
                                 lidar_.config(), rng);
    core::Observation obs;
    obs.data = det_.feature_embedding(
        lidar::VoxelGrid::from_cloud(pc, grid_).to_tensor());
    obs.timestamp = now;
    return obs;
  }

 private:
  lidar::BevDetector& det_;
  const sim::LidarSimulator& lidar_;
  lidar::VoxelGridConfig grid_;
  bool* corrupt_;
};

class StarNetGate : public core::TrustMonitor {
 public:
  explicit StarNetGate(monitor::StarNet& net) : net_(net) {}
  bool trusted(const core::Observation& obs, Rng& rng) override {
    return net_.trusted(obs.data, rng);
  }

 private:
  monitor::StarNet& net_;
};

TEST(Integration, StarNetVetoesCorruptedObservationsInLoop) {
  Rng rng(2);
  sim::LidarConfig lc;
  lc.azimuth_steps = 120;
  lc.elevation_steps = 8;
  sim::LidarSimulator lidar(lc);
  lidar::VoxelGridConfig gc;
  gc.nx = gc.ny = 16;
  lidar::DetectorConfig dc;
  dc.grid = gc;
  lidar::BevDetector det(dc, rng);  // untrained: embeddings still informative

  // Fit STARNet on clean embeddings.
  bool corrupt = false;
  EmbeddingSensor sensor(det, lidar, gc, &corrupt);
  std::vector<std::vector<double>> clean;
  for (int i = 0; i < 64; ++i) clean.push_back(sensor.sense(0.0, rng).data);
  monitor::StarNetConfig snc;
  snc.vae.input_dim = det.embedding_dim();
  snc.threshold_percentile = 99.0;  // scene-to-scene variation is real
  monitor::StarNet net(snc, rng);
  net.fit(clean, rng);

  CountProcessor proc;
  NullActuator act;
  core::PeriodicPolicy policy(1);
  StarNetGate gate(net);
  core::SensingActionLoop loop(sensor, proc, act, policy, core::LoopConfig{},
                               &gate);

  loop.run(10, rng);
  const long vetoed_clean = loop.metrics().vetoed;
  corrupt = true;
  loop.run(10, rng);
  const long vetoed_corrupt = loop.metrics().vetoed - vetoed_clean;

  EXPECT_LE(vetoed_clean, 5);     // high-percentile threshold
  EXPECT_GE(vetoed_corrupt, 7);   // corrupted stream mostly vetoed
  EXPECT_GT(vetoed_corrupt, vetoed_clean);
}

// ---------------------------------------------------------------------
// Sec. IV + core: the trained Koopman agent driving the loop's
// action-aware sensing policy (action-to-sensing coupling).
TEST(Integration, ActionMagnitudeDrivesSensingRate) {
  core::ActionAwarePolicy policy(0.05, 1.0, 0.5);
  Rng rng(3);
  core::Observation obs;
  obs.data = {0.0};

  int calm = 0;
  for (int i = 0; i < 400; ++i) {
    policy.report_action(0.01);  // near-zero corrective action
    if (policy.should_sense(0.0, &obs, rng)) ++calm;
  }
  int stressed = 0;
  for (int i = 0; i < 400; ++i) {
    policy.report_action(1.0);  // saturated control
    if (policy.should_sense(0.0, &obs, rng)) ++stressed;
  }
  EXPECT_GT(stressed, 4 * std::max(1, calm));
}

// ---------------------------------------------------------------------
// Sec. VI: the flow network's prediction feeds DOTIE-style gating — fast
// flow regions carry most events.
TEST(Integration, EventDensityTracksMotionMagnitude) {
  Rng rng(4);
  const auto data = sim::make_flow_dataset(12, 16, 16, rng);
  double fast_events = 0.0, slow_events = 0.0;
  int fast_n = 0, slow_n = 0;
  for (const auto& s : data) {
    double mean_flow = 0.0;
    for (std::size_t i = 0; i < s.flow.u.size(); ++i)
      mean_flow += std::hypot(s.flow.u[i], s.flow.v[i]);
    mean_flow /= static_cast<double>(s.flow.u.size());
    if (mean_flow > 2.0) {
      fast_events += s.events.total_events();
      ++fast_n;
    } else if (mean_flow < 1.0) {
      slow_events += s.events.total_events();
      ++slow_n;
    }
  }
  if (fast_n > 0 && slow_n > 0) {
    EXPECT_GT(fast_events / fast_n, slow_events / slow_n);
  }
}

// ---------------------------------------------------------------------
// Sec. VII + core: coordinated sensing then federated training over the
// same fleet — the full multi-agent story in one flow.
TEST(Integration, SwarmCoordinationThenFederatedLearning) {
  Rng rng(5);
  const auto agents = core::make_agent_fleet(6, 40.0, 45.0, rng);
  const auto targets = core::make_target_field(30, 40.0, rng);
  const auto coord = core::coordinated_sensing(agents, targets);
  const auto ind = core::independent_sensing(agents, targets);
  ASSERT_EQ(coord.coverage(), ind.coverage());
  ASSERT_LT(coord.energy_j, ind.energy_j);

  // The same fleet now trains a shared model federatedly.
  const auto full = sim::make_gaussian_classes(360, 8, 4, 3.0, rng);
  sim::ClassificationDataset train, test;
  train.feature_dim = test.feature_dim = 8;
  train.num_classes = test.num_classes = 4;
  for (std::size_t i = 0; i < 240; ++i) {
    train.features.push_back(full.features[i]);
    train.labels.push_back(full.labels[i]);
  }
  for (std::size_t i = 240; i < 360; ++i) {
    test.features.push_back(full.features[i]);
    test.labels.push_back(full.labels[i]);
  }
  const auto shards = sim::dirichlet_partition(train.labels, 6, 4, 0.5, rng);
  const auto fleet = federated::make_heterogeneous_fleet(6, rng);
  federated::FlConfig cfg;
  cfg.rounds = 6;
  const auto res = federated::run_federated(
      federated::FlStrategy::kHaloFl, train, test, shards, fleet, cfg, rng);
  EXPECT_GT(res.final_accuracy, 0.6);
}

// ---------------------------------------------------------------------
// Batched execution engine end to end: a fleet of lidar reconstruction
// loops sharing ONE autoencoder through the cross-loop batching engine,
// half of them under injected sensor-fault chaos. The healthy members
// must ride through their neighbors' faults untouched — every loop
// reaches tick T, no healthy loop ever leaves NOMINAL, and nothing
// non-finite reaches an actuator.
namespace batched_fleet_e2e {

class OccupancySensor : public core::Sensor {
 public:
  explicit OccupancySensor(std::size_t numel) : numel_(numel) {}
  core::Observation sense(double now, Rng& rng) override {
    core::Observation obs;
    obs.data.resize(numel_);
    for (std::size_t i = 0; i < numel_; ++i)
      obs.data[i] = rng.bernoulli(0.2) ? 1.0 : 0.0;
    obs.timestamp = now;
    obs.energy_j = 1e-3;
    return obs;
  }

 private:
  std::size_t numel_;
};

class FiniteCheckingActuator : public core::Actuator {
 public:
  void actuate(const core::Action& action, Rng&) override {
    ++count;
    for (double v : action.data) all_finite = all_finite && std::isfinite(v);
  }
  long count = 0;
  bool all_finite = true;
};

}  // namespace batched_fleet_e2e

TEST(Integration, BatchedLidarFleetSurvivesChaos) {
  using namespace batched_fleet_e2e;
  lidar::AutoencoderConfig acfg;
  acfg.grid.nx = 8;
  acfg.grid.ny = 8;
  acfg.grid.nz = 2;
  acfg.c1 = 4;
  acfg.c2 = 4;
  const std::size_t numel = static_cast<std::size_t>(acfg.grid.nx) *
                            acfg.grid.ny * acfg.grid.nz;
  Rng wr(13);
  lidar::OccupancyAutoencoder ae(acfg, wr);
  lidar::BatchedReconstructionProcessor shared(ae, /*energy_per_call_j=*/1e-3);

  constexpr int kMembers = 8;  // members 0..3 healthy, 4..7 chaotic
  constexpr int kTicks = 30;
  struct Member {
    std::unique_ptr<OccupancySensor> sensor;
    std::unique_ptr<fault::FaultySensor> faulty;
    std::unique_ptr<core::BatchSlot> slot;
    std::unique_ptr<FiniteCheckingActuator> act;
    std::unique_ptr<core::PeriodicPolicy> policy;
    std::unique_ptr<core::SensingActionLoop> loop;
  };
  std::vector<Member> members(kMembers);

  core::FleetConfig fc;
  fc.gather = 4;
  core::Fleet engine(fc, &shared);
  core::LoopConfig lc;
  lc.dt = 0.05;
  lc.resilience.max_staleness_s = 0.2;
  lc.resilience.degrade_after = 2;
  lc.resilience.recover_after = 2;
  for (int m = 0; m < kMembers; ++m) {
    Member& mem = members[static_cast<std::size_t>(m)];
    mem.sensor = std::make_unique<OccupancySensor>(numel);
    core::Sensor* s = mem.sensor.get();
    if (m >= kMembers / 2) {
      mem.faulty = std::make_unique<fault::FaultySensor>(
          *mem.sensor, fault::FaultPlan::random_component_plan(
                           /*seed=*/900 + static_cast<std::uint64_t>(m),
                           /*horizon_s=*/kTicks * lc.dt, /*events=*/5,
                           /*mean_duration_s=*/0.3));
      s = mem.faulty.get();
    }
    mem.slot = std::make_unique<core::BatchSlot>(shared);
    mem.act = std::make_unique<FiniteCheckingActuator>();
    mem.policy = std::make_unique<core::PeriodicPolicy>(1);
    mem.loop = std::make_unique<core::SensingActionLoop>(
        *s, *mem.slot, *mem.act, *mem.policy, lc);
    core::FleetLoopConfig flc;
    flc.ticks = kTicks;
    engine.add(*mem.loop, flc, /*seed=*/70 + m, mem.slot.get());
  }

  const core::FleetStats fs = engine.run();
  EXPECT_EQ(fs.executed, static_cast<long>(kMembers) * kTicks);
  EXPECT_GT(fs.batched_forwards, 0);

  for (int m = 0; m < kMembers; ++m) {
    const Member& mem = members[static_cast<std::size_t>(m)];
    SCOPED_TRACE("member=" + std::to_string(m));
    EXPECT_EQ(mem.loop->metrics().ticks, kTicks);
    EXPECT_TRUE(mem.act->all_finite);  // nothing non-finite was actuated
    EXPECT_EQ(mem.loop->metrics().quarantined_actions, 0);
    if (m < kMembers / 2) {
      // Healthy members never stall: no degradation, every tick acted.
      EXPECT_EQ(mem.loop->state(), core::LoopState::kNominal);
      EXPECT_EQ(mem.loop->metrics().degraded_ticks, 0);
      EXPECT_EQ(mem.loop->metrics().safe_stop_ticks, 0);
      EXPECT_EQ(mem.act->count, kTicks);
    } else {
      // Chaotic members actually saw chaos (the plan injected faults)
      // yet still reached tick T without latching SAFE_STOP.
      EXPECT_GT(mem.faulty->faults_injected(), 0);
      EXPECT_NE(mem.loop->state(), core::LoopState::kSafeStop);
    }
  }
}

}  // namespace
}  // namespace s2a
