// The benchmark's workloads (see README.md for why each exists):
//
//   tick       one paper loop at pool size 1
//   fed_round  hierarchical federated episodes at pool size min(nproc, 4)
//
// Every run does identical work for a given (workload, seed, seconds):
// the number of units is fixed from --seconds by a nominal rate, not by
// the clock. An untraced run reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics, measured by spans the
// harness records around the library's public calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/loop.hpp"
#include "fed.hpp"
#include "paper_loop.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace s2a::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace of a traced run ("" = none)
};

/// What a run checked: measured units (ticks, episodes) and whole-run
/// checks. A unit fails at most once, whatever number of its checks
/// failed, so `failed` never exceeds `attempted`.
struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  /// Counts `n` checked units of which `bad` failed, as `what`.
  void units(long n, long bad, const std::string& what);
  /// One whole-run check.
  void expect(bool ok, const std::string& what) { units(1, !ok, what); }
  void merge(const Checks& other);
};

struct RunResult {
  Checks checks;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the result line
};

/// Runs one workload; throws std::invalid_argument on an unknown name.
RunResult run(const RunOptions& opt);

/// Per-unit latencies of a measured stretch, and its wall time. A
/// stretch may be measured in blocks; time between blocks (set-up
/// repetitions, an interleaved twin) is off the clock.
struct Timeline {
  std::vector<double> ms;  ///< latency per unit
  double wall_us = 0.0;
  double wall_s() const { return wall_us / 1e6; }
};

/// What driving one or more paper loops for a measured stretch produced.
struct LoopPhase {
  Timeline time;  ///< per tick, pooled across members
  long ticks = 0;  ///< measured ticks
  double energy_j = 0.0;  ///< loop-billed energy of the measured ticks
  double quality = 0.0;   ///< mean voxel IoU of the measured ticks
  Checks checks;          ///< measured ticks plus whole-run checks
  Digest digest;
  std::vector<std::uint64_t> member_digest;
  std::vector<core::LoopMetrics> member_metrics;
  long returns = 0, trusted = 0, trust_checks = 0;
  double sensing_j = 0.0, recon_j = 0.0;
  long dispatches = 0;
  int workers = 1;
};

/// A measured stretch of one loop: `warm` untimed ticks at construction,
/// then timed blocks of ticks, then finish().
class TickStretch {
 public:
  TickStretch(PaperLoop& loop, long warm);
  void run(long ticks);
  /// Checks every measured tick and the loop's end state and, for
  /// `decomposition` clip states, that the decomposed sense matches
  /// GenerativeSensingPipeline::sense bit for bit.
  LoopPhase finish(int decomposition);

 private:
  PaperLoop& loop_;
  long warm_;
  long ticks_ = 0;
  double wall_us_ = 0.0;
  core::LoopMetrics base_;
};

/// One stretch of `ticks` measured ticks after `warm` untimed ones.
LoopPhase tick_phase(PaperLoop& loop, long warm, long ticks, int decomposition);
/// Pass `k` of an untraced `tick` run: ticks [warm + k * ticks,
/// warm + (k + 1) * ticks), after rewinding the loop to run the `warm`
/// ticks before them untimed. A replayed pass reproduces the first run
/// of the same pass bit for bit, whatever pass ran before it.
LoopPhase tick_pass(PaperLoop& loop, long warm, long ticks, long k, int decomposition);
/// `loops` under core::Fleet in throughput mode (deadline +inf) with at
/// most `max_workers` workers (0 = pool size): `warm` untimed ticks per
/// member, then `ticks_per_member` timed ones in one Fleet run.
LoopPhase fleet_phase(std::vector<std::unique_ptr<PaperLoop>>& loops,
                      std::uint64_t seed, long warm, long ticks_per_member,
                      int max_workers);

/// Size of block `b` of `n` units split into `blocks` near-equal blocks.
long block_size(long n, int blocks, int b);

}  // namespace s2a::perfbench
