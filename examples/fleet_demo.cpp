// Fleet engine demo in per-loop mode (docs/ARCHITECTURE.md "Pipelined
// engine & fleet scheduler"): a mixed fleet of sensing-to-action loops
// — most healthy, one wall-clock straggler, one with a permanently-
// failing sensor — scheduled EDF over the shared thread pool with
// per-tick deadlines.
// Prints the per-loop outcome table (executed/shed ticks, deadline
// misses, p50/p95 tick latency, final resilience state) and the
// aggregate throughput, then re-runs one healthy loop under the
// pipelined single-loop engine to show sense/commit overlap.
//
// Knobs:  S2A_THREADS=<n>  pool size (default: hardware concurrency)
//
// Build & run:  ./build/examples/fleet_demo
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "core/loop.hpp"
#include "core/pipeline.hpp"
#include "core/policies.hpp"
#include "fault/fault.hpp"
#include "util/thread_pool.hpp"

using namespace s2a;

namespace {

/// Rangefinder whose acquisition blocks for a bit — sensing latency is
/// I/O wait, which is exactly what the fleet and pipeline engines hide.
class BlockingRangeSensor : public core::Sensor {
 public:
  explicit BlockingRangeSensor(int acquire_us) : acquire_us_(acquire_us) {}
  core::Observation sense(double now, Rng& rng) override {
    std::this_thread::sleep_for(std::chrono::microseconds(acquire_us_));
    core::Observation obs;
    obs.data = {10.0 + 2.0 * std::sin(0.8 * now) + rng.normal(0.0, 0.05)};
    obs.timestamp = now;
    obs.energy_j = 2e-3;
    return obs;
  }

 private:
  int acquire_us_;
};

class GainProcessor : public core::Processor {
 public:
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    return {0.1 * obs.data[0]};
  }
  double energy_per_call_j() const override { return 1e-4; }
};

/// The straggler: its perception stage has wedged and each call stalls
/// for tens of milliseconds of wall clock.
class WedgedProcessor : public core::Processor {
 public:
  std::vector<double> process(const core::Observation& obs, Rng&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    return obs.data;
  }
};

class NullActuator : public core::Actuator {
 public:
  void actuate(const core::Action&, Rng&) override { ++count; }
  long count = 0;
};

struct DemoLoop {
  std::unique_ptr<core::Sensor> sensor;
  std::unique_ptr<fault::FaultySensor> faulty;
  std::unique_ptr<core::Processor> proc;
  NullActuator act;
  core::PeriodicPolicy policy{1};
  std::unique_ptr<core::SensingActionLoop> loop;

  DemoLoop(std::unique_ptr<core::Sensor> s,
           std::unique_ptr<core::Processor> p, core::LoopConfig cfg = {},
           fault::FaultPlan plan = {})
      : sensor(std::move(s)), proc(std::move(p)) {
    core::Sensor* front = sensor.get();
    if (!plan.empty()) {
      faulty = std::make_unique<fault::FaultySensor>(*sensor, plan);
      front = faulty.get();
    }
    loop = std::make_unique<core::SensingActionLoop>(*front, *proc, act,
                                                     policy, cfg);
  }
};

}  // namespace

int main() {
  constexpr int kHealthy = 14, kTicks = 40, kAcquireUs = 300;

  std::vector<std::unique_ptr<DemoLoop>> loops;
  core::Fleet fleet(core::FleetConfig{/*batch=*/4});

  // Healthy members: blocking sensor + cheap processing, 100 ms/tick
  // deadline budget they comfortably make.
  for (int i = 0; i < kHealthy; ++i) {
    loops.push_back(std::make_unique<DemoLoop>(
        std::make_unique<BlockingRangeSensor>(kAcquireUs),
        std::make_unique<GainProcessor>()));
    fleet.add(*loops.back()->loop, {kTicks, /*deadline_s=*/0.1},
              /*seed=*/100 + i);
  }

  // The straggler: 15 ms stalls against a 1 ms/tick contract — EDF keeps
  // dispatching it first (earliest deadline) until admission control
  // sheds it rather than letting it starve the fleet.
  loops.push_back(std::make_unique<DemoLoop>(
      std::make_unique<BlockingRangeSensor>(kAcquireUs),
      std::make_unique<WedgedProcessor>()));
  const std::size_t straggler = fleet.add(
      *loops.back()->loop, {kTicks, /*deadline_s=*/1e-3, /*shed_slack=*/4.0},
      /*seed=*/900);

  // The doomed member: permanent sensor dropout; its own resilience
  // machine degrades and latches SAFE_STOP while the fleet keeps going.
  core::LoopConfig doomed_cfg;
  doomed_cfg.resilience.max_sense_retries = 0;
  doomed_cfg.resilience.degrade_after = 2;
  doomed_cfg.resilience.safe_stop_after = 3;
  loops.push_back(std::make_unique<DemoLoop>(
      std::make_unique<BlockingRangeSensor>(kAcquireUs),
      std::make_unique<GainProcessor>(), doomed_cfg,
      fault::FaultPlan({{fault::FaultKind::kDropout, 0.0, 1e9, -1, 0.0}})));
  const std::size_t doomed =
      fleet.add(*loops.back()->loop, {kTicks, /*deadline_s=*/0.1},
                /*seed=*/901);

  std::printf("Fleet: %zu loops on a %d-slot pool\n\n", fleet.size(),
              util::global_pool().size());
  core::FleetStats stats = fleet.run();

  std::printf("%-4s %-10s %9s %6s %7s %10s %10s  %s\n", "id", "kind",
              "executed", "shed", "misses", "p50 ms", "p95 ms", "state");
  for (std::size_t i = 0; i < stats.loops.size(); ++i) {
    const core::FleetLoopStats& ls = stats.loops[i];
    const char* kind = i == straggler ? "straggler"
                       : i == doomed  ? "doomed"
                                      : "healthy";
    std::printf("%-4zu %-10s %9ld %6ld %7ld %10.3f %10.3f  %s\n", i, kind,
                ls.executed, ls.shed, ls.deadline_misses, ls.p50_tick_ms,
                ls.p95_tick_ms, core::state_name(ls.final_state));
  }
  std::printf(
      "\naggregate: %ld ticks in %.3f s = %.0f ticks/s "
      "(%d workers, %ld dispatches, %ld shed, %ld misses)\n",
      stats.executed, stats.wall_s, stats.ticks_per_s, stats.workers,
      stats.dispatches, stats.shed, stats.deadline_misses);

  // Single-loop pipelining: same stack, synchronous vs overlapped.
  const auto wall_of = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  DemoLoop sync_loop(std::make_unique<BlockingRangeSensor>(kAcquireUs),
                     std::make_unique<GainProcessor>());
  core::PipelinedRunner sync_runner(*sync_loop.loop,
                                    {core::PipelineMode::kSynchronous, 4});
  const double sync_s = wall_of([&] { sync_runner.run(200, /*seed=*/7); });

  DemoLoop pipe_loop(std::make_unique<BlockingRangeSensor>(kAcquireUs),
                     std::make_unique<GainProcessor>());
  core::PipelinedRunner pipe_runner(*pipe_loop.loop,
                                    {core::PipelineMode::kPipelined, 4});
  const double pipe_s = wall_of([&] { pipe_runner.run(200, /*seed=*/7); });

  std::printf(
      "\npipelined single loop: sync %.0f ticks/s, pipelined %.0f ticks/s "
      "(%.2fx), metrics bit-exact: %s\n",
      200 / sync_s, 200 / pipe_s, sync_s / pipe_s,
      sync_loop.loop->metrics() == pipe_loop.loop->metrics() ? "yes" : "NO");
  return 0;
}
