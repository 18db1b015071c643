// Randomized differential harness for the fleet's batched mode
// (core/fleet.hpp), plus the nn batched-forward entry
// points and the fleet admission policy.
//
// The headline contract: a fleet member's entire observable outcome —
// LoopMetrics, loop state, clock, actuation history — is bit-identical
// whether its ticks ran under a serial per-loop fleet or fused into
// batched forwards, across member counts, gather sizes, ticks per
// dispatch, S2A_THREADS ∈ {1, 4}, and fault chaos. ~50 seeded
// configurations sweep that space: a synthetic (pure-function) batch
// processor covers the engine plumbing broadly and cheaply, and real
// conv-net configurations pin the whole nn stack (stack → batched
// im2col/GEMM forward → unstack).
// Run under TSan via check.sh (ctest -L tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/fleet.hpp"
#include "core/loop.hpp"
#include "core/policies.hpp"
#include "fault/fault.hpp"
#include "lidar/autoencoder.hpp"
#include "lidar/batched.hpp"
#include "lidar/detector.hpp"
#include "nn/batch.hpp"
#include "nn/conv2d.hpp"
#include "util/thread_pool.hpp"

namespace s2a::core {
namespace {

// ------------------------------------------------------------ fixtures

// Emits a flattened pseudo-occupancy grid of fixed size, driven by the
// member's own Rng stream.
class GridSensor : public Sensor {
 public:
  explicit GridSensor(std::size_t numel) : numel_(numel) {}
  Observation sense(double now, Rng& rng) override {
    Observation obs;
    obs.data.resize(numel_);
    for (std::size_t i = 0; i < numel_; ++i)
      obs.data[i] = rng.bernoulli(0.15) ? 1.0 : 0.1 * rng.uniform();
    obs.timestamp = now;
    obs.energy_j = 1e-3;
    return obs;
  }

 private:
  std::size_t numel_;
};

// Pure-function batch processor: rng-free, thread-safe, and its batched
// path really goes through nn::stack_batch/unstack_batch so the
// gather/scatter plumbing is exercised even without a conv net.
class AffineBatchProcessor : public BatchProcessor {
 public:
  explicit AffineBatchProcessor(int numel) : shape_{numel} {}

  std::vector<double> process(const Observation& obs, Rng&) override {
    std::vector<double> out(obs.data.size());
    transform(obs.data.data(), out.data(), obs.data.size());
    return out;
  }

  std::vector<std::vector<double>> process_batch(
      const std::vector<const Observation*>& obs) override {
    if (in_flight.fetch_add(1) != 0) ++overlaps;
    ++batch_calls;
    max_extent = std::max(max_extent, static_cast<long>(obs.size()));
    std::vector<const std::vector<double>*> samples;
    samples.reserve(obs.size());
    for (const Observation* o : obs) samples.push_back(&o->data);
    nn::Tensor x = nn::stack_batch(samples, shape_);
    nn::Tensor y(x.shape());
    for (std::size_t b = 0; b < obs.size(); ++b)
      transform(x.data() + b * static_cast<std::size_t>(shape_[0]),
                y.data() + b * static_cast<std::size_t>(shape_[0]),
                static_cast<std::size_t>(shape_[0]));
    std::vector<std::vector<double>> rows = nn::unstack_batch(y);
    in_flight.fetch_sub(1);
    return rows;
  }

  double energy_per_call_j() const override { return 2e-4; }

  long batch_calls = 0;
  long max_extent = 0;
  std::atomic<int> in_flight{0};  ///< process_batch calls now running
  std::atomic<long> overlaps{0};  ///< entries while another was running

 private:
  static void transform(const double* in, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::tanh(3.0 * in[i]) + 0.25 * in[n - 1 - i];
  }
  std::vector<int> shape_;
};

// Captures the full actuation history so the differential check catches
// any divergence in the actual command stream, not just the metrics.
class RecordingActuator : public Actuator {
 public:
  void actuate(const Action& action, Rng&) override {
    ++count;
    history.push_back(action.data);
  }
  long count = 0;
  std::vector<std::vector<double>> history;
};

// One member stack: sensor (optionally fault-wrapped), slot onto the
// shared processor, recording actuator, periodic policy.
struct MemberStack {
  std::unique_ptr<GridSensor> raw;
  std::unique_ptr<fault::FaultySensor> faulty;
  std::unique_ptr<BatchSlot> slot;
  std::unique_ptr<RecordingActuator> act;
  std::unique_ptr<PeriodicPolicy> policy;
  std::unique_ptr<SensingActionLoop> loop;

  MemberStack(std::size_t numel, BatchProcessor& shared, int period,
              LoopConfig cfg, fault::FaultPlan plan) {
    raw = std::make_unique<GridSensor>(numel);
    Sensor* sensor = raw.get();
    if (!plan.empty()) {
      faulty = std::make_unique<fault::FaultySensor>(*raw, plan);
      sensor = faulty.get();
    }
    slot = std::make_unique<BatchSlot>(shared);
    act = std::make_unique<RecordingActuator>();
    policy = std::make_unique<PeriodicPolicy>(period);
    loop = std::make_unique<SensingActionLoop>(*sensor, *slot, *act, *policy,
                                               cfg);
  }
};

// Sweep parameters for one seeded configuration.
struct SweepConfig {
  int members = 4;
  int gather = 4;
  int batch = 1;  ///< ticks per dispatch
  int ticks = 40;
  int period = 1;
  bool chaos = false;
  double max_staleness_s = std::numeric_limits<double>::infinity();
  std::uint64_t seed = 0;
};

SweepConfig draw_config(std::uint64_t seed) {
  Rng r(seed * 2654435761ULL + 17);
  SweepConfig c;
  c.members = r.uniform_int(1, 10);
  const int gathers[] = {1, 4, 16};
  c.gather = gathers[r.uniform_int(0, 2)];
  c.ticks = r.uniform_int(20, 80);
  c.period = r.uniform_int(1, 2);
  c.chaos = r.bernoulli(0.5);
  // Occasionally bound staleness so the peek/commit staleness gate and
  // the fallback paths get differential coverage too.
  if (r.bernoulli(0.3)) c.max_staleness_s = 0.12;
  c.batch = r.bernoulli(0.5) ? 4 : 1;
  c.seed = seed;
  return c;
}

LoopConfig loop_config_for(const SweepConfig& c) {
  LoopConfig cfg;
  cfg.dt = 0.05;
  cfg.resilience.max_staleness_s = c.max_staleness_s;
  cfg.resilience.degrade_after = 2;
  cfg.resilience.recover_after = 2;
  // Some chaos configs escalate to SAFE_STOP so the engine's handling of
  // latched members (sense skipped, outcome discarded) is covered too.
  if (c.chaos && c.seed % 3 == 0) cfg.resilience.safe_stop_after = 4;
  return cfg;
}

fault::FaultPlan plan_for(const SweepConfig& c, int member) {
  if (!c.chaos) return {};
  return fault::FaultPlan::random_component_plan(
      /*seed=*/c.seed * 1000 + static_cast<std::uint64_t>(member),
      /*horizon_s=*/c.ticks * 0.05, /*events=*/4, /*mean_duration_s=*/0.3);
}

// Runs config `c` against `shared` under one engine and returns the
// stacks for inspection. `batched` selects a batched Fleet vs a serial
// per-loop Fleet (single worker, so a thread-unsafe shared model is
// safe on the serial side too).
std::vector<std::unique_ptr<MemberStack>> run_engine(
    const SweepConfig& c, std::size_t numel, BatchProcessor& shared,
    bool batched) {
  std::vector<std::unique_ptr<MemberStack>> stacks;
  for (int m = 0; m < c.members; ++m)
    stacks.push_back(std::make_unique<MemberStack>(
        numel, shared, c.period, loop_config_for(c), plan_for(c, m)));

  FleetLoopConfig lc;
  lc.ticks = c.ticks;  // infinite deadlines: fully deterministic
  if (batched) {
    FleetConfig fc;
    fc.gather = c.gather;
    fc.batch = c.batch;
    Fleet fleet(fc, &shared);
    for (int m = 0; m < c.members; ++m)
      fleet.add(*stacks[static_cast<std::size_t>(m)]->loop, lc,
                /*seed=*/c.seed * 97 + static_cast<std::uint64_t>(m),
                stacks[static_cast<std::size_t>(m)]->slot.get());
    FleetStats fs = fleet.run();
    EXPECT_EQ(fs.executed, static_cast<long>(c.members) * c.ticks);
  } else {
    FleetConfig fc;
    fc.max_workers = 1;
    Fleet fleet(fc);
    for (int m = 0; m < c.members; ++m)
      fleet.add(*stacks[static_cast<std::size_t>(m)]->loop, lc,
                /*seed=*/c.seed * 97 + static_cast<std::uint64_t>(m));
    FleetStats fs = fleet.run();
    EXPECT_EQ(fs.executed, static_cast<long>(c.members) * c.ticks);
  }
  return stacks;
}

void expect_identical_members(
    const std::vector<std::unique_ptr<MemberStack>>& a,
    const std::vector<std::unique_ptr<MemberStack>>& b, std::uint64_t seed) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " member=" + std::to_string(m));
    EXPECT_EQ(a[m]->loop->metrics(), b[m]->loop->metrics());
    EXPECT_EQ(a[m]->loop->state(), b[m]->loop->state());
    EXPECT_DOUBLE_EQ(a[m]->loop->now(), b[m]->loop->now());
    EXPECT_EQ(a[m]->act->count, b[m]->act->count);
    // Bitwise actuation equality: vector<double> operator== is exact.
    EXPECT_EQ(a[m]->act->history, b[m]->act->history);
  }
}

// --------------------------------------- randomized differential sweep

// 36 synthetic configurations: serial reference at 1 worker, batched
// engine at S2A_THREADS ∈ {1, 4}; every member bit-identical everywhere.
TEST(FleetBatchDifferential, RandomizedSweepSynthetic) {
  constexpr std::size_t kNumel = 24;
  for (std::uint64_t seed = 0; seed < 36; ++seed) {
    const SweepConfig c = draw_config(seed);
    AffineBatchProcessor serial_proc(static_cast<int>(kNumel));
    AffineBatchProcessor batched_proc(static_cast<int>(kNumel));

    std::vector<std::unique_ptr<MemberStack>> ref;
    {
      util::ScopedGlobalThreads threads(1);
      ref = run_engine(c, kNumel, serial_proc, /*batched=*/false);
    }
    {
      util::ScopedGlobalThreads threads(1);
      auto got = run_engine(c, kNumel, batched_proc, /*batched=*/true);
      expect_identical_members(ref, got, seed);
    }
    {
      util::ScopedGlobalThreads threads(4);
      auto got = run_engine(c, kNumel, batched_proc, /*batched=*/true);
      expect_identical_members(ref, got, seed);
    }
    // The batched engine really fused (extent > 1) whenever it could.
    if (c.members > 1 && c.gather > 1) {
      EXPECT_GT(batched_proc.max_extent, 1) << "seed=" << seed;
    }
  }
}

// 14 real conv-net configurations: the shared model is a small
// occupancy autoencoder served through BatchedReconstructionProcessor,
// so the fused path runs the full stack → batched im2col/packed-GEMM
// forward → scatter chain.
TEST(FleetBatchDifferential, RandomizedSweepConvNet) {
  lidar::AutoencoderConfig acfg;
  acfg.grid.nx = 8;
  acfg.grid.ny = 8;
  acfg.grid.nz = 2;
  acfg.c1 = 4;
  acfg.c2 = 4;
  const std::size_t numel = static_cast<std::size_t>(acfg.grid.nx) *
                            acfg.grid.ny * acfg.grid.nz;

  for (std::uint64_t seed = 100; seed < 114; ++seed) {
    SweepConfig c = draw_config(seed);
    c.members = std::min(c.members, 6);
    c.ticks = std::min(c.ticks, 40);

    // Identically-seeded twin models: the serial fleet must not share a
    // thread-unsafe model with the batched fleet under test.
    Rng wa(7), wb(7);
    lidar::OccupancyAutoencoder ae_a(acfg, wa), ae_b(acfg, wb);
    lidar::BatchedReconstructionProcessor serial_proc(ae_a, 1e-3);
    lidar::BatchedReconstructionProcessor batched_proc(ae_b, 1e-3);

    std::vector<std::unique_ptr<MemberStack>> ref;
    {
      util::ScopedGlobalThreads threads(1);
      ref = run_engine(c, numel, serial_proc, /*batched=*/false);
    }
    {
      util::ScopedGlobalThreads threads(1);
      auto got = run_engine(c, numel, batched_proc, /*batched=*/true);
      expect_identical_members(ref, got, seed);
    }
    {
      util::ScopedGlobalThreads threads(4);
      auto got = run_engine(c, numel, batched_proc, /*batched=*/true);
      expect_identical_members(ref, got, seed);
    }
  }
}

// The engine reports its fusion work: with M > 1 ready members and
// gather > 1 the fused calls must carry more members than calls.
TEST(BatchedFleet, ReportsFusedForwards) {
  util::ScopedGlobalThreads threads(4);
  constexpr std::size_t kNumel = 16;
  AffineBatchProcessor shared(static_cast<int>(kNumel));
  SweepConfig c;
  c.members = 8;
  c.gather = 4;
  c.ticks = 10;

  std::vector<std::unique_ptr<MemberStack>> stacks;
  for (int m = 0; m < c.members; ++m)
    stacks.push_back(std::make_unique<MemberStack>(
        kNumel, shared, 1, LoopConfig{}, fault::FaultPlan{}));
  FleetConfig fc;
  fc.gather = c.gather;
  fc.batch = 1;
  Fleet fleet(fc, &shared);
  FleetLoopConfig lc;
  lc.ticks = c.ticks;
  for (int m = 0; m < c.members; ++m)
    fleet.add(*stacks[static_cast<std::size_t>(m)]->loop, lc, 50 + m,
              stacks[static_cast<std::size_t>(m)]->slot.get());
  const FleetStats fs = fleet.run();

  EXPECT_EQ(fs.executed, 80);
  EXPECT_EQ(fs.batched_members, 80);  // every tick was served fused
  EXPECT_EQ(fs.batched_forwards, 20);  // 8 members / gather 4 per round
  EXPECT_EQ(shared.max_extent, 4);
  // 2 groups per round × 10 rounds.
  EXPECT_EQ(fs.dispatches, 20);
  // The shared model is not re-entrant: never two fused calls at once,
  // even with a 4-thread pool.
  EXPECT_EQ(shared.overlaps.load(), 0);
}

// ------------------------------------------- nn batched forward layer

// Direct kernel-level check of the acceptance grid: batch sizes
// {1,4,16} × threads {1,4}, conv and deconv, batched forward rows
// bit-identical to per-sample forwards.
TEST(BatchedForward, ConvKernelsBitExactAcrossBatchAndThreads) {
  for (int nthreads : {1, 4}) {
    util::ScopedGlobalThreads threads(nthreads);
    for (int batch : {1, 4, 16}) {
      Rng wr(11);
      nn::Conv2D conv(3, 5, 3, 2, 1, wr);
      nn::ConvTranspose2D deconv(3, 5, 4, 2, 1, wr);
      Rng xr(batch * 31 + nthreads);
      nn::Tensor x = nn::Tensor::randn({batch, 3, 12, 12}, xr);

      nn::Tensor y = conv.forward(x);
      nn::Tensor z = deconv.forward(x);
      for (int b = 0; b < batch; ++b) {
        nn::Tensor xb({1, 3, 12, 12});
        std::copy(x.data() + static_cast<std::size_t>(b) * 3 * 12 * 12,
                  x.data() + static_cast<std::size_t>(b + 1) * 3 * 12 * 12,
                  xb.data());
        const nn::Tensor yb = conv.forward(xb);
        const nn::Tensor zb = deconv.forward(xb);
        const std::size_t ystride = y.numel() / static_cast<std::size_t>(batch);
        const std::size_t zstride = z.numel() / static_cast<std::size_t>(batch);
        for (std::size_t i = 0; i < ystride; ++i)
          ASSERT_EQ(y[static_cast<std::size_t>(b) * ystride + i], yb[i])
              << "conv b=" << b << " i=" << i << " threads=" << nthreads;
        for (std::size_t i = 0; i < zstride; ++i)
          ASSERT_EQ(z[static_cast<std::size_t>(b) * zstride + i], zb[i])
              << "deconv b=" << b << " i=" << i << " threads=" << nthreads;
      }
    }
  }
}

TEST(BatchedForward, StackUnstackRoundTrip) {
  std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> b{-1.0, 0.5, 0.0, 7.0, -2.0, 9.0};
  nn::Tensor t = nn::stack_batch({&a, &b}, {2, 3});
  ASSERT_EQ(t.shape(), (std::vector<int>{2, 2, 3}));
  const auto rows = nn::unstack_batch(t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], a);
  EXPECT_EQ(rows[1], b);
}

// Batched embedding entry points: one fused encoder/backbone forward,
// rows bit-identical to the serial per-grid calls.
TEST(BatchedForward, EmbeddingsBitExact) {
  util::ScopedGlobalThreads threads(4);
  lidar::AutoencoderConfig acfg;
  acfg.grid.nx = 8;
  acfg.grid.ny = 8;
  acfg.grid.nz = 2;
  acfg.c1 = 4;
  acfg.c2 = 4;
  Rng wr(3);
  lidar::OccupancyAutoencoder ae(acfg, wr);
  lidar::DetectorConfig dcfg;
  dcfg.grid = acfg.grid;
  dcfg.c1 = 4;
  dcfg.c2 = 4;
  Rng dr(4);
  lidar::BevDetector det(dcfg, dr);

  const int batch = 5;
  Rng xr(21);
  nn::Tensor grids = nn::Tensor::randn({batch, 2, 8, 8}, xr);
  const auto ae_rows = lidar::batched_embeddings(ae, grids);
  const auto det_rows = det.feature_embeddings(grids);
  ASSERT_EQ(ae_rows.size(), static_cast<std::size_t>(batch));
  ASSERT_EQ(det_rows.size(), static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    nn::Tensor gb({1, 2, 8, 8});
    std::copy(grids.data() + static_cast<std::size_t>(b) * 2 * 8 * 8,
              grids.data() + static_cast<std::size_t>(b + 1) * 2 * 8 * 8,
              gb.data());
    EXPECT_EQ(ae_rows[static_cast<std::size_t>(b)], ae.embedding(gb));
    EXPECT_EQ(det_rows[static_cast<std::size_t>(b)],
              det.feature_embedding(gb));
  }
}

// ---------------------------------------------------- admission policy

TEST(FleetAdmissionPolicy, DisabledAlwaysAdmits) {
  FleetAdmission adm{AdmissionConfig{}};  // enabled = false
  adm.record_ticks(100, 100);
  adm.record_shed(500);
  EXPECT_EQ(adm.pressure(), 0.0);
  EXPECT_EQ(adm.decide(), AdmissionDecision::kAdmitted);
}

TEST(FleetAdmissionPolicy, ThresholdsDriveDecisions) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.window = 100;
  cfg.min_samples = 10;
  cfg.degrade_threshold = 0.05;
  cfg.reject_threshold = 0.20;
  FleetAdmission adm(cfg);

  // Cold start: below min_samples everything is admitted.
  adm.record_ticks(5, 5);
  EXPECT_EQ(adm.pressure(), 0.0);
  EXPECT_EQ(adm.decide(), AdmissionDecision::kAdmitted);

  // 5 bad + 45 good = 10% pressure → degrade band.
  adm.record_ticks(45, 0);
  EXPECT_NEAR(adm.pressure(), 0.10, 1e-12);
  EXPECT_EQ(adm.decide(), AdmissionDecision::kDegraded);

  // Shed work pushes past the reject threshold.
  adm.record_shed(30);
  EXPECT_GE(adm.pressure(), cfg.reject_threshold);
  EXPECT_EQ(adm.decide(), AdmissionDecision::kRejected);

  // A window of clean ticks recovers: pressure decays to zero and new
  // members are admitted again.
  adm.record_ticks(100, 0);
  EXPECT_EQ(adm.pressure(), 0.0);
  EXPECT_EQ(adm.decide(), AdmissionDecision::kAdmitted);

  EXPECT_EQ(adm.admitted(), 2);
  EXPECT_EQ(adm.degraded(), 1);
  EXPECT_EQ(adm.rejected(), 1);
}

// try_add honors the decision: rejected members are not added, degraded
// members get a scaled (reduced-rate) deadline contract.
TEST(FleetAdmissionPolicy, TryAddAppliesContracts) {
  constexpr std::size_t kNumel = 8;
  AffineBatchProcessor shared(static_cast<int>(kNumel));
  AdmissionConfig acfg;
  acfg.enabled = true;
  acfg.window = 50;
  acfg.min_samples = 10;
  acfg.degrade_threshold = 0.05;
  acfg.reject_threshold = 0.50;
  acfg.degrade_factor = 4.0;

  FleetConfig fc;
  fc.gather = 8;
  fc.admission = acfg;
  Fleet fleet(fc, &shared);

  MemberStack a(kNumel, shared, 1, LoopConfig{}, {});
  FleetLoopConfig lc;
  lc.ticks = 5;
  lc.deadline_s = 0.25;
  AdmissionResult r = fleet.try_add(*a.loop, lc, 1, a.slot.get());
  EXPECT_EQ(r.decision, AdmissionDecision::kAdmitted);
  EXPECT_EQ(fleet.size(), 1u);

  // Pressure into the degrade band (but below reject).
  // Reach past min_samples with a 20% bad window.
  auto& adm = const_cast<FleetAdmission&>(fleet.admission());
  adm.record_ticks(40, 8);
  MemberStack b(kNumel, shared, 1, LoopConfig{}, {});
  r = fleet.try_add(*b.loop, lc, 2, b.slot.get());
  EXPECT_EQ(r.decision, AdmissionDecision::kDegraded);
  EXPECT_EQ(fleet.size(), 2u);

  // Saturate: reject — the loop must NOT be admitted.
  adm.record_shed(50);
  MemberStack c(kNumel, shared, 1, LoopConfig{}, {});
  r = fleet.try_add(*c.loop, lc, 3, c.slot.get());
  EXPECT_EQ(r.decision, AdmissionDecision::kRejected);
  EXPECT_EQ(fleet.size(), 2u);
  EXPECT_GE(r.pressure, 0.5);

  // Degraded member runs at the reduced rate but still to completion
  // (deadlines are generous enough here that nothing is shed).
  const FleetStats fs = fleet.run();
  EXPECT_EQ(fs.executed, 10);
  EXPECT_EQ(fs.loops.size(), 2u);
}

}  // namespace
}  // namespace s2a::core
