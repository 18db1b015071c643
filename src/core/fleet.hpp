// Fleet engine: many sensing-to-action loops multiplexed over the
// shared util::ThreadPool. Each admitted loop gets a per-tick deadline
// budget; dispatch is EDF (earliest next deadline first) from a ready
// heap, and admission control sheds the hopelessly overdue rather than
// letting one straggler stall the fleet.
//
// Model:
//  * add() admits a loop with a tick count, an optional per-tick
//    deadline, and a seed — each member owns an independent Rng stream.
//  * A dispatch pops a group of up to `gather` members from the ready
//    heap and runs up to `batch` ticks of each, round by round, then
//    requeues them. A member is owned by exactly one dispatcher at a
//    time, so the per-loop NOMINAL→DEGRADED→SAFE_STOP machine and all
//    loop state stay single-threaded.
//  * Per-loop mode (no shared processor): min(pool size, members,
//    max_workers) dispatchers, each ticking its group's loops serially.
//  * Batched mode (constructed with a shared BatchProcessor; every
//    member's Processor is a BatchSlot onto it): one dispatcher, since
//    the shared model is not re-entrant. Each round of a dispatch has
//    three phases —
//      1. sense   — the group's sense stages in parallel on the pool
//                   (disjoint state: each member's own loop + Rng);
//      2. process — peek_process_input() names the observation each
//                   commit will process; those go through ONE
//                   BatchProcessor::process_batch() call and the rows
//                   are staged into the members' BatchSlots;
//      3. commit  — commit_tick() serially in group order. The slot
//                   hands the staged row to the loop's ordinary
//                   Processor::process() call, so the degradation
//                   machine, fallbacks and actuation validation are the
//                   stock loop code.
//  * A member's k-th tick is due at admission + k * deadline_s (a rate
//    contract, not a per-dispatch timer). Ticks finishing late count as
//    deadline misses; a member that falls more than
//    shed_slack * deadline_s behind has its remaining ticks shed. A
//    tick's latency runs from the start of its dispatch round, so a
//    batched member's action is timed from before the fused forward
//    that computed it.
//
// Determinism: with the default deadline_s = +inf (pure throughput
// mode) nothing wall-clock-dependent can fire, members are keyed by
// (executed ticks, id) — round-robin fairness — and every per-loop
// result is bit-exact for a given seed across any thread count, batch,
// gather, or dispatch interleaving, because each loop's ticks run
// serially against its own Rng (and, batched, the BatchProcessor
// contract below holds). Finite deadlines buy load shedding at the
// price of wall-clock dependence; per-loop metrics of *unshed* loops
// remain exact, shed counts do not (docs/RESILIENCE.md). The batched
// equivalence is proven across member counts, gather, batch, thread
// counts and fault chaos by tests/fleet_batch_test.cpp.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "core/loop.hpp"

namespace s2a::core {

/// Per-member admission contract.
struct FleetLoopConfig {
  int ticks = 0;  ///< ticks to execute
  /// Wall-clock budget per tick; the k-th tick is due at admission
  /// + k * deadline_s. +inf (default) disables misses and shedding.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Shed a member once it is more than shed_slack * deadline_s behind
  /// its schedule (<= 0 disables shedding; misses still count).
  double shed_slack = 8.0;
};

/// Per-member outcome, in add() order.
struct FleetLoopStats {
  long requested = 0;
  long executed = 0;
  long shed = 0;  ///< requested ticks abandoned by admission control
  long deadline_misses = 0;
  double p50_tick_ms = 0.0;
  double p95_tick_ms = 0.0;
  double max_tick_ms = 0.0;
  LoopState final_state = LoopState::kNominal;
};

struct FleetStats {
  long executed = 0;
  long shed = 0;
  long deadline_misses = 0;
  long dispatches = 0;  ///< dispatch groups run (not ticks)
  int workers = 0;      ///< concurrent dispatchers (1 in batched mode)
  /// Batched mode: fused process_batch() calls, and the member-ticks
  /// they served (a fused call with one eligible member still counts).
  long batched_forwards = 0;
  long batched_members = 0;
  double wall_s = 0.0;
  double ticks_per_s = 0.0;  ///< aggregate executed ticks / wall_s
  std::vector<FleetLoopStats> loops;
};

// --- Admission control -------------------------------------------------
//
// Shedding (above) is reactive: a member already admitted falls behind
// and its remaining work is dropped. Admission control is the proactive
// counterpart (CoSense-LLM's cost-aware framing): track the fleet's
// rolling deadline-miss/shed rate and stop *taking* work the fleet
// cannot serve — reject a new member outright, or admit it on a
// degraded (reduced-rate) contract — before its deadlines ever slip.

/// Knobs for FleetAdmission. Disabled by default: try_add() == add().
struct AdmissionConfig {
  bool enabled = false;
  /// Rolling window of recent tick outcomes (miss/shed = bad) that
  /// defines the pressure signal. Must cover at least a dispatch wave;
  /// a window much smaller than the healthy tick rate forgets overload
  /// as soon as the stragglers shed.
  int window = 4096;
  /// No decisions until this many outcomes are recorded (cold start).
  int min_samples = 64;
  /// pressure >= this admits new members on a degraded contract.
  double degrade_threshold = 0.05;
  /// pressure >= this rejects new members outright.
  double reject_threshold = 0.15;
  /// Degraded contract: the member's deadline_s is multiplied by this
  /// (a reduced tick rate; +inf deadlines are unaffected).
  double degrade_factor = 4.0;
};

enum class AdmissionDecision { kAdmitted = 0, kDegraded, kRejected };
const char* admission_name(AdmissionDecision decision);

/// What try_add() did: the decision, the member index (valid unless
/// rejected), and the pressure that drove it.
struct AdmissionResult {
  AdmissionDecision decision = AdmissionDecision::kAdmitted;
  std::size_t index = 0;
  double pressure = 0.0;
};

/// Rolling deadline-miss/shed-rate tracker behind Fleet::try_add().
/// Thread-safe: workers record tick outcomes concurrently; decide() is
/// called from the admitting thread. Exposed via the fleet.admission.*
/// counters and the fleet.admission.pressure gauge in s2a::obs.
class FleetAdmission {
 public:
  explicit FleetAdmission(AdmissionConfig cfg = {});

  /// Records `total` executed ticks of which `bad` missed their
  /// deadline. No-op when disabled.
  void record_ticks(long total, long bad);
  /// Records shed ticks — work the fleet accepted and then abandoned —
  /// as bad outcomes. No-op when disabled.
  void record_shed(long ticks);

  /// Bad fraction of the rolling window (0 while below min_samples).
  double pressure() const;
  /// Decision for one prospective member at current pressure; bumps the
  /// admitted/degraded/rejected counters.
  AdmissionDecision decide();

  long admitted() const;
  long degraded() const;
  long rejected() const;
  const AdmissionConfig& config() const { return cfg_; }

 private:
  void push_locked(bool bad);
  double pressure_locked() const;

  AdmissionConfig cfg_;
  mutable std::mutex mu_;
  std::vector<unsigned char> ring_;
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  long bad_ = 0;
  long admitted_ = 0;
  long degraded_ = 0;
  long rejected_ = 0;
};

/// A Processor that can also serve a whole group in one fused call.
///
/// Contract:
///  * process_batch(obs)[i] must be bit-identical to process(*obs[i])
///    for every i — same arithmetic, only gathered. The nn batched
///    entry points (nn/batch.hpp + the batch-first conv kernels)
///    provide exactly this.
///  * process()/process_batch() must not draw from the loop Rng: the
///    fused call has no per-member generator to consume from, so a
///    randomized processor would diverge from the serial path. (The
///    `rng` parameter of process() exists to satisfy the Processor
///    interface; implementations must ignore it.)
///  * process_batch() is called from the fleet's one dispatcher only;
///    it may freely use the global pool internally (the conv kernels
///    do).
class BatchProcessor : public Processor {
 public:
  virtual std::vector<std::vector<double>> process_batch(
      const std::vector<const Observation*>& obs) = 0;
};

/// Per-member Processor adapter: the loop's processor_ slot. During a
/// batched dispatch the fleet stages the member's row of the fused
/// forward here; the loop's own commit_tick() then consumes it through
/// the ordinary Processor::process() call. Outside a batched dispatch
/// (or if nothing was staged) it delegates to the shared processor's
/// serial path, so a loop built on a BatchSlot also runs correctly
/// under tick()/run() or a per-loop Fleet.
///
/// Composing with core::OffloadExecutor (offload.hpp): a BatchSlot used
/// as the executor's *local* model must be driven with
/// OffloadConfig::prepaid_local so the staged row is consumed exactly
/// once per tick — otherwise a tick routed remote would leave a stale
/// staged row behind for the next tick to serve.
class BatchSlot : public Processor {
 public:
  explicit BatchSlot(BatchProcessor& shared) : shared_(shared) {}

  std::vector<double> process(const Observation& obs, Rng& rng) override {
    if (staged_) {
      staged_ = false;
      return std::move(staged_row_);
    }
    return shared_.process(obs, rng);
  }
  double energy_per_call_j() const override {
    return shared_.energy_per_call_j();
  }

  void stage(std::vector<double> row) {
    staged_row_ = std::move(row);
    staged_ = true;
  }
  bool staged() const { return staged_; }
  BatchProcessor& shared() const { return shared_; }

 private:
  BatchProcessor& shared_;
  std::vector<double> staged_row_;
  bool staged_ = false;
};

struct FleetConfig {
  /// Max ticks of each group member one dispatch executes before the
  /// group is requeued. Larger batches amortize heap traffic; smaller
  /// ones interleave finer under contention.
  int batch = 4;
  /// Max members popped into one dispatch group — in batched mode the
  /// batch axis of the shared forward.
  int gather = 1;
  /// Cap on concurrent dispatchers in per-loop mode (0 = pool size).
  int max_workers = 0;
  /// Record per-tick latencies for the p50/p95/max stats. Turn off for
  /// very long runs to skip the per-tick timestamping.
  bool record_latencies = true;
  /// Admission control (disabled by default; see FleetAdmission).
  AdmissionConfig admission{};
};

/// Schedules many independently-seeded loops. Owns the per-member Rng
/// streams but not the loops, slots or shared processor; all must
/// outlive run().
class Fleet {
 public:
  /// `shared` non-null selects batched mode (see the file comment).
  explicit Fleet(FleetConfig cfg = {}, BatchProcessor* shared = nullptr);

  /// Admits a loop unconditionally. In batched mode `slot` is required:
  /// the loop's Processor, a BatchSlot bound to the shared processor.
  /// Returns the member index (add() order, also the index into
  /// FleetStats::loops).
  std::size_t add(SensingActionLoop& loop, FleetLoopConfig cfg,
                  std::uint64_t seed, BatchSlot* slot = nullptr);

  /// Admission-controlled add: consults the rolling miss/shed pressure
  /// and either admits, admits on a degraded (deadline_s scaled by
  /// AdmissionConfig::degrade_factor) contract, or rejects — in which
  /// case the loop is NOT added. With admission disabled behaves like
  /// add().
  AdmissionResult try_add(SensingActionLoop& loop, FleetLoopConfig cfg,
                          std::uint64_t seed, BatchSlot* slot = nullptr);

  const FleetAdmission& admission() const { return admission_; }

  std::size_t size() const { return members_.size(); }

  /// Executes every admitted member to completion (or shedding).
  /// Callable repeatedly — each call re-arms the remaining tick counts
  /// from the configs and continues the loops from their current state.
  FleetStats run();

 private:
  struct Member {
    SensingActionLoop* loop = nullptr;
    BatchSlot* slot = nullptr;  ///< batched mode only
    FleetLoopConfig cfg;
    Rng rng;
    long executed = 0;  ///< ticks executed this run()
    long shed = 0;
    long deadline_misses = 0;
    long remaining = 0;
    double next_deadline = std::numeric_limits<double>::infinity();
    std::vector<double> tick_ms;

    Member(SensingActionLoop* l, BatchSlot* s, FleetLoopConfig c,
           std::uint64_t seed)
        : loop(l), slot(s), cfg(c), rng(seed) {}
  };

  FleetConfig cfg_;
  BatchProcessor* shared_;
  std::vector<Member> members_;
  FleetAdmission admission_;
};

}  // namespace s2a::core
