// The sensing-to-action loop (Fig. 1): sensing → processing → actuation →
// environment, iterated on a fixed tick. This is the framework the
// paper's five subsystems plug into; the abstractions here are
// deliberately value-based (observations and actions are double vectors)
// so any substrate — LiDAR grids, retinas, event frames, FL embeddings —
// can be wired in by an adapter.
//
// The loop models the two failure axes Sec. I calls out:
//  * staleness — sensing + processing latency means actions execute on an
//    environment state that is `latency` old; the loop tracks the age of
//    the observation behind every action.
//  * energy — every sense and process step is metered.
// A sensing policy decides per tick whether to sense (Sec. II's
// rate/resolution adaptation), and an optional trust monitor can veto
// acting on an untrusted observation (Sec. V).
//
// Robustness (Sec. I/V, docs/RESILIENCE.md): sensors may fail at runtime
// by throwing SensorFault — the loop retries with configurable backoff,
// quarantines non-finite payloads at the sense boundary, bounds the age
// of acted-on data (`ResilienceConfig::max_staleness_s`) with a
// configurable fallback policy, and drives a NOMINAL → DEGRADED →
// SAFE_STOP state machine with hysteresis so transient faults recover
// and persistent ones latch into a safe halt. Actions are validated
// before actuation: a non-finite action never reaches the Actuator.
//
// tick() is instrumented with s2a::obs spans (loop.tick with nested
// loop.sense / loop.trust_check / loop.process / loop.actuate) and
// counters; see docs/OBSERVABILITY.md. Inert unless obs is enabled.
//
// Execution engines: tick() is the synchronous reference path. The same
// loop can be driven staged — sense_stage() / commit_tick() below — by
// the pipelined engine (pipeline.hpp: sense(t+1) overlaps commit(t)) or
// by the fleet scheduler (fleet.hpp: many loops, EDF dispatch); both
// reproduce the resilience semantics of this file unchanged.
#pragma once

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace s2a::core {

struct Observation {
  std::vector<double> data;
  double timestamp = 0.0;
  double energy_j = 0.0;  ///< sensing energy spent acquiring it
  /// Additional acquisition delay beyond LoopConfig::sensing_latency
  /// (e.g. an injected latency spike); ages the observation.
  double extra_latency_s = 0.0;
};

struct Action {
  std::vector<double> data;
  double based_on_timestamp = 0.0;  ///< timestamp of the observation used
};

/// Thrown by a Sensor whose acquisition failed outright (hardware
/// dropout, bus error, injected fault). The loop catches exactly this
/// type and retries within the configured budget; any other exception
/// propagates as a programming error.
class SensorFault : public std::runtime_error {
 public:
  explicit SensorFault(const std::string& what) : std::runtime_error(what) {}
};

/// Sensing front-end: acquire an observation of the environment now.
/// May throw SensorFault when acquisition fails.
class Sensor {
 public:
  virtual ~Sensor() = default;
  virtual Observation sense(double now, Rng& rng) = 0;
};

/// Perception/decision stage: observation → action vector.
class Processor {
 public:
  virtual ~Processor() = default;
  virtual std::vector<double> process(const Observation& obs, Rng& rng) = 0;
  /// Time-aware variant: the loop calls this with its current virtual
  /// time, which time-indexed processors (core::OffloadExecutor routing
  /// over a net::LinkSim whose fault windows are keyed by the loop
  /// clock) need. The default forwards to process(), so plain
  /// processors are unaffected.
  virtual std::vector<double> process_at(double now, const Observation& obs,
                                         Rng& rng) {
    (void)now;
    return process(obs, rng);
  }
  /// Energy of one process() call (metered into the loop totals).
  virtual double energy_per_call_j() const { return 0.0; }
};

/// Actuation back-end: apply the action to the environment.
class Actuator {
 public:
  virtual ~Actuator() = default;
  virtual void actuate(const Action& action, Rng& rng) = 0;
};

/// Per-tick sensing decision (the sensing-rate knob of Sec. II).
class SensingPolicy {
 public:
  virtual ~SensingPolicy() = default;
  /// `last` is the most recent observation (nullptr before the first).
  virtual bool should_sense(double now, const Observation* last, Rng& rng) = 0;
};

/// Optional reliability gate (STARNet's role in the loop).
class TrustMonitor {
 public:
  virtual ~TrustMonitor() = default;
  virtual bool trusted(const Observation& obs, Rng& rng) = 0;
};

/// What to do when the freshest trusted observation is older than
/// `max_staleness_s` (or the processor emitted a non-finite action).
enum class FallbackPolicy {
  kHoldLastAction = 0,  ///< re-issue the last good action
  kZeroAction,          ///< issue an all-zero action of the last size
  kSafeStop,            ///< latch into SAFE_STOP immediately
};
const char* fallback_name(FallbackPolicy policy);

/// Degradation state machine (docs/RESILIENCE.md). SAFE_STOP is latched:
/// once entered the loop stops sensing and actuating for good.
enum class LoopState { kNominal = 0, kDegraded, kSafeStop };
const char* state_name(LoopState state);

/// Runtime-robustness knobs. The defaults change nothing for healthy
/// components: retries only trigger on SensorFault, the staleness bound
/// defaults to +inf, and SAFE_STOP escalation is off until
/// `safe_stop_after` is set.
struct ResilienceConfig {
  /// Extra sense attempts after a SensorFault, within the same tick.
  int max_sense_retries = 2;
  /// Modeled delay added per failed attempt (linear backoff: attempt k
  /// adds k * retry_backoff_s); ages the eventually-acquired observation.
  double retry_backoff_s = 0.0;
  /// Acting on data older than this triggers the fallback policy.
  double max_staleness_s = std::numeric_limits<double>::infinity();
  FallbackPolicy fallback = FallbackPolicy::kHoldLastAction;
  /// Consecutive bad ticks before NOMINAL → DEGRADED (0 disables).
  int degrade_after = 3;
  /// Consecutive good ticks before DEGRADED → NOMINAL.
  int recover_after = 3;
  /// Consecutive bad ticks before DEGRADED → SAFE_STOP (0 disables).
  int safe_stop_after = 0;
};

struct LoopConfig {
  double dt = 0.05;               ///< tick period (s)
  double sensing_latency = 0.0;   ///< acquisition delay (s)
  double processing_latency = 0.0;
  ResilienceConfig resilience;
};

/// Result of one tick's sense stage, produced by sense_stage() and
/// consumed — possibly on another thread, possibly never — by
/// commit_tick(). The engine API in pipeline.hpp overlaps the sense
/// stage of tick t+1 with the commit stage of tick t; metric deltas are
/// carried here instead of applied in place so a speculative sense that
/// turns out to land after a SAFE_STOP latch can be discarded without
/// leaving a trace in the metrics.
struct SenseOutcome {
  bool attempted = false;  ///< the policy decided to sense this tick
  bool ok = false;         ///< a trusted, finite observation was acquired
  Observation obs;         ///< valid iff ok

  // Metric deltas accumulated by the sense stage, applied at commit.
  long senses = 0;
  long sensor_faults = 0;
  long sense_retries = 0;
  long quarantined = 0;
  long vetoed = 0;
  double sensing_energy_j = 0.0;
};

struct LoopMetrics {
  long ticks = 0;
  long senses = 0;   ///< successful acquisitions
  long actions = 0;  ///< actuations driven by a processed observation
  long vetoed = 0;   ///< observations rejected by the trust monitor
  double sensing_energy_j = 0.0;
  double processing_energy_j = 0.0;
  double total_staleness_s = 0.0;  ///< summed over observation-driven actions

  // Robustness counters (docs/RESILIENCE.md).
  long sensor_faults = 0;       ///< SensorFault throws caught
  long sense_retries = 0;       ///< extra attempts made after a fault
  long quarantined = 0;         ///< non-finite observations rejected
  long quarantined_actions = 0; ///< non-finite actions blocked pre-actuate
  long staleness_violations = 0;
  long fallback_actions = 0;    ///< actuations issued by the fallback policy
  long degraded_ticks = 0;      ///< ticks spent in DEGRADED
  long safe_stop_ticks = 0;     ///< ticks spent halted in SAFE_STOP
  long degradations = 0;        ///< NOMINAL → DEGRADED transitions
  long recoveries = 0;          ///< DEGRADED → NOMINAL transitions
  long safe_stops = 0;          ///< → SAFE_STOP transitions (0 or 1)

  friend bool operator==(const LoopMetrics&, const LoopMetrics&) = default;

  double mean_staleness_s() const {
    return actions > 0 ? total_staleness_s / actions : 0.0;
  }
  double duty_cycle() const {
    return ticks > 0 ? static_cast<double>(senses) / ticks : 0.0;
  }
  double total_energy_j() const {
    return sensing_energy_j + processing_energy_j;
  }
};

/// The loop engine. Owns nothing: components are injected by reference so
/// callers can inspect them afterwards.
class SensingActionLoop {
 public:
  SensingActionLoop(Sensor& sensor, Processor& processor, Actuator& actuator,
                    SensingPolicy& policy, LoopConfig config = {},
                    TrustMonitor* monitor = nullptr);

  /// One iteration: consult the policy, maybe sense (through the retry /
  /// finite-check / trust gates), process, validate, actuate. When the
  /// policy skips sensing, the last trusted observation is reused — its
  /// growing age shows up in the staleness metric and, past
  /// `max_staleness_s`, triggers the fallback policy. In SAFE_STOP the
  /// tick only advances time.
  void tick(Rng& rng);
  void run(int ticks, Rng& rng);

  // --- Staged execution (the engine API; see pipeline.hpp / fleet.hpp) ---
  //
  // tick(rng) ≡ sense_stage(now(), last_observation(), rng) followed by
  // commit_tick(outcome, rng) on the same generator. The split exists so
  // an engine can overlap the sense stage of tick t+1 with the commit
  // stage of tick t on another thread:
  //  * sense_stage touches only the policy / sensor / trust monitor and
  //    its arguments — never loop state — so it is safe to run while a
  //    previous tick commits;
  //  * commit_tick touches only loop state plus the processor / actuator.
  // Component contract: each component is driven by exactly one stage
  // (policy+sensor+monitor by sense, processor+actuator by commit), so
  // components must not share mutable state across that line.

  /// The sense half of a tick at time `now` with `last` the most recent
  /// trusted observation (nullptr before the first): policy decision,
  /// bounded-retry acquisition, finite-value quarantine, trust gate.
  /// Mutates no loop state; all effects are in the returned outcome.
  SenseOutcome sense_stage(double now, const Observation* last, Rng& rng);

  /// The commit half of a tick: applies the outcome's metric deltas,
  /// installs its observation, then processes / validates / actuates and
  /// advances the state machine and the clock. In SAFE_STOP the outcome
  /// is discarded wholesale (none of its deltas apply — exactly as if
  /// the tick had never sensed) and the tick only advances time.
  void commit_tick(SenseOutcome& outcome, Rng& rng);

  /// The observation commit_tick(outcome, ...) would hand to the
  /// Processor, or nullptr when the commit will not process this tick
  /// (SAFE_STOP latched, no observation to act on, or the freshest one
  /// is past max_staleness_s). Mirrors commit_tick's gating exactly so
  /// a batched Fleet (fleet.hpp) can run the processor work
  /// for several members in one fused call *before* committing them;
  /// mutates nothing. Only meaningful between this member's sense stage
  /// and its commit — the answer depends on loop state.
  const Observation* peek_process_input(const SenseOutcome& outcome) const;

  double now() const { return now_; }
  const LoopConfig& config() const { return cfg_; }
  const LoopMetrics& metrics() const { return metrics_; }
  LoopState state() const { return state_; }
  const Observation* last_observation() const {
    return has_observation_ ? &last_obs_ : nullptr;
  }
  const Action* last_action() const {
    return has_action_ ? &last_action_ : nullptr;
  }

 private:
  /// Action substitution for stale/blocked ticks per the fallback policy
  /// (hold-last / zero / latch SAFE_STOP).
  void apply_fallback(Rng& rng);
  void enter_safe_stop();
  void update_state_machine(bool bad_tick);

  Sensor& sensor_;
  Processor& processor_;
  Actuator& actuator_;
  SensingPolicy& policy_;
  LoopConfig cfg_;
  TrustMonitor* monitor_;

  double now_ = 0.0;
  Observation last_obs_;
  bool has_observation_ = false;
  Action last_action_;
  bool has_action_ = false;
  LoopState state_ = LoopState::kNominal;
  int bad_streak_ = 0;
  int good_streak_ = 0;
  LoopMetrics metrics_;
};

}  // namespace s2a::core
