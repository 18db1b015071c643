#include "core/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace s2a::core {

namespace {

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

const char* admission_name(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmitted:
      return "admitted";
    case AdmissionDecision::kDegraded:
      return "degraded";
    case AdmissionDecision::kRejected:
      return "rejected";
  }
  return "?";
}

FleetAdmission::FleetAdmission(AdmissionConfig cfg) : cfg_(cfg) {
  S2A_CHECK(cfg_.window >= 1);
  S2A_CHECK(cfg_.min_samples >= 1);
  S2A_CHECK(cfg_.degrade_threshold >= 0.0);
  S2A_CHECK(cfg_.reject_threshold >= cfg_.degrade_threshold);
  S2A_CHECK(cfg_.degrade_factor >= 1.0);
  ring_.resize(static_cast<std::size_t>(cfg_.window), 0);
}

void FleetAdmission::push_locked(bool bad) {
  const std::size_t window = ring_.size();
  if (filled_ == window) bad_ -= ring_[head_];
  ring_[head_] = bad ? 1 : 0;
  bad_ += ring_[head_];
  head_ = (head_ + 1) % window;
  if (filled_ < window) ++filled_;
}

double FleetAdmission::pressure_locked() const {
  if (filled_ < static_cast<std::size_t>(cfg_.min_samples)) return 0.0;
  return static_cast<double>(bad_) / static_cast<double>(filled_);
}

void FleetAdmission::record_ticks(long total, long bad) {
  if (!cfg_.enabled || total <= 0) return;
  S2A_CHECK(bad >= 0 && bad <= total);
  std::lock_guard<std::mutex> lk(mu_);
  // Order within the window is worker-interleaving dependent, but the
  // pressure signal only counts bad entries, so it is robust to that.
  for (long i = 0; i < total; ++i) push_locked(i < bad);
  S2A_GAUGE_SET("fleet.admission.pressure", pressure_locked());
}

void FleetAdmission::record_shed(long ticks) {
  if (!cfg_.enabled || ticks <= 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  // Shed work is the strongest overload evidence there is; cap the ring
  // writes at one full window since more cannot change the signal.
  const long n = std::min<long>(ticks, static_cast<long>(ring_.size()));
  for (long i = 0; i < n; ++i) push_locked(true);
  S2A_GAUGE_SET("fleet.admission.pressure", pressure_locked());
}

double FleetAdmission::pressure() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pressure_locked();
}

AdmissionDecision FleetAdmission::decide() {
  std::lock_guard<std::mutex> lk(mu_);
  AdmissionDecision d = AdmissionDecision::kAdmitted;
  if (cfg_.enabled && filled_ >= static_cast<std::size_t>(cfg_.min_samples)) {
    const double p = pressure_locked();
    if (p >= cfg_.reject_threshold)
      d = AdmissionDecision::kRejected;
    else if (p >= cfg_.degrade_threshold)
      d = AdmissionDecision::kDegraded;
  }
  switch (d) {
    case AdmissionDecision::kAdmitted:
      ++admitted_;
      S2A_COUNTER_ADD("fleet.admission.admitted", 1);
      break;
    case AdmissionDecision::kDegraded:
      ++degraded_;
      S2A_COUNTER_ADD("fleet.admission.degraded", 1);
      break;
    case AdmissionDecision::kRejected:
      ++rejected_;
      S2A_COUNTER_ADD("fleet.admission.rejected", 1);
      break;
  }
  S2A_GAUGE_SET("fleet.admission.pressure", pressure_locked());
  return d;
}

long FleetAdmission::admitted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return admitted_;
}

long FleetAdmission::degraded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return degraded_;
}

long FleetAdmission::rejected() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rejected_;
}

Fleet::Fleet(FleetConfig cfg, BatchProcessor* shared)
    : cfg_(cfg), shared_(shared), admission_(cfg.admission) {
  S2A_CHECK(cfg_.batch >= 1);
  S2A_CHECK(cfg_.gather >= 1);
  S2A_CHECK(cfg_.max_workers >= 0);
}

std::size_t Fleet::add(SensingActionLoop& loop, FleetLoopConfig cfg,
                       std::uint64_t seed, BatchSlot* slot) {
  S2A_CHECK(cfg.ticks >= 0);
  S2A_CHECK(cfg.deadline_s > 0.0);
  S2A_CHECK_MSG(shared_ ? slot && &slot->shared() == shared_ : !slot,
                "a member needs a BatchSlot on the fleet's shared "
                "BatchProcessor exactly when the fleet has one");
  members_.emplace_back(&loop, slot, cfg, seed);
  return members_.size() - 1;
}

AdmissionResult Fleet::try_add(SensingActionLoop& loop, FleetLoopConfig cfg,
                               std::uint64_t seed, BatchSlot* slot) {
  AdmissionResult r;
  r.pressure = admission_.pressure();
  r.decision = admission_.decide();
  if (r.decision == AdmissionDecision::kRejected) return r;
  if (r.decision == AdmissionDecision::kDegraded)
    cfg.deadline_s *= admission_.config().degrade_factor;  // +inf stays +inf
  r.index = add(loop, cfg, seed, slot);
  return r;
}

FleetStats Fleet::run() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const auto elapsed = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  FleetStats stats;
  stats.loops.resize(members_.size());

  // Ready heap keyed (next deadline, executed ticks, id): EDF, with the
  // executed-ticks tie-break degenerating to round-robin fairness when
  // every deadline is +inf (pure throughput mode) — so group
  // composition is then a pure function of (members, gather, batch).
  struct Entry {
    double deadline;
    long executed;
    std::size_t id;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    if (a.executed != b.executed) return a.executed > b.executed;
    return a.id > b.id;
  };

  std::vector<Entry> ready;
  ready.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& m = members_[i];
    m.executed = 0;
    m.shed = 0;
    m.deadline_misses = 0;
    m.remaining = m.cfg.ticks;
    m.tick_ms.clear();
    // The k-th tick (1-based) is due at k * deadline_s from now: a rate
    // contract fixed at admission, not reset by late dispatches.
    m.next_deadline = m.cfg.deadline_s;  // +inf stays +inf
    if (m.remaining > 0) ready.push_back({m.next_deadline, 0, i});
  }
  std::make_heap(ready.begin(), ready.end(), later);

  std::mutex mu;
  std::condition_variable cv;
  int active = 0;  // dispatch groups currently owned by a dispatcher
  std::atomic<long> dispatches{0};

  util::ThreadPool& pool = util::global_pool();
  int workers = 1;  // batched mode: the shared model is not re-entrant
  if (!shared_) {
    workers = pool.size();
    if (cfg_.max_workers > 0) workers = std::min(workers, cfg_.max_workers);
    workers = std::clamp<int>(static_cast<int>(members_.size()), 1, workers);
  }
  const std::size_t gather = static_cast<std::size_t>(cfg_.gather);

  const auto worker = [&](std::size_t /*worker_id*/) {
    std::vector<std::size_t> group, live, staged;
    std::vector<SenseOutcome> outcomes;
    std::vector<const Observation*> inputs;
    for (;;) {
      // Pop a group, shedding at pop time: a member that has fallen
      // hopelessly behind its rate contract has its remaining ticks
      // abandoned so stragglers release their dispatchers instead of
      // stalling the fleet. (The loop keeps whatever state it reached;
      // only future work is dropped.)
      group.clear();
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !ready.empty() || active == 0; });
        if (ready.empty()) return;  // fleet drained
        const double pop_s = elapsed();
        while (group.size() < gather && !ready.empty()) {
          std::pop_heap(ready.begin(), ready.end(), later);
          const std::size_t id = ready.back().id;
          ready.pop_back();
          Member& m = members_[id];
          if (std::isfinite(m.cfg.deadline_s) && m.cfg.shed_slack > 0.0 &&
              pop_s - m.next_deadline > m.cfg.shed_slack * m.cfg.deadline_s) {
            m.shed += m.remaining;
            S2A_COUNTER_ADD("fleet.shed_ticks", m.remaining);
            admission_.record_shed(m.remaining);
            m.remaining = 0;
          } else {
            group.push_back(id);
          }
        }
        S2A_GAUGE_SET("fleet.ready_queue_depth",
                      static_cast<double>(ready.size()));
        if (group.empty()) {
          if (ready.empty() && active == 0) cv.notify_all();
          continue;
        }
        ++active;
      }
      dispatches.fetch_add(1, std::memory_order_relaxed);

      // Exclusive ownership: the group is out of the heap until
      // requeued, so its loops, Rngs and counters are single-threaded.
      long ticks = 0, bad = 0;
      {
        S2A_TRACE_SCOPE_CAT("fleet.dispatch", "core");
        for (long round = 0; round < cfg_.batch; ++round) {
          live.clear();
          for (const std::size_t id : group)
            if (members_[id].remaining > 0) live.push_back(id);
          if (live.empty()) break;
          const double start_s = elapsed();

          if (shared_) {
            // Phase 1: sense stages in parallel. Disjoint writes:
            // member i's loop, Rng and outcomes[i] are one task's.
            outcomes.assign(live.size(), SenseOutcome{});
            pool.parallel_for(0, live.size(), 1, [&](std::size_t i) {
              Member& m = members_[live[i]];
              if (m.loop->state() != LoopState::kSafeStop)
                outcomes[i] = m.loop->sense_stage(
                    m.loop->now(), m.loop->last_observation(), m.rng);
            });
            // Phase 2: one fused forward over every member whose commit
            // will process (peek_process_input mirrors its gating).
            inputs.clear();
            staged.clear();
            for (std::size_t i = 0; i < live.size(); ++i) {
              if (const Observation* in =
                      members_[live[i]].loop->peek_process_input(outcomes[i])) {
                inputs.push_back(in);
                staged.push_back(live[i]);
              }
            }
            if (!inputs.empty()) {
              S2A_TRACE_SCOPE_CAT("fleet.batched_forward", "core");
              std::vector<std::vector<double>> rows =
                  shared_->process_batch(inputs);
              S2A_CHECK(rows.size() == inputs.size());
              for (std::size_t j = 0; j < staged.size(); ++j)
                members_[staged[j]].slot->stage(std::move(rows[j]));
              ++stats.batched_forwards;
              stats.batched_members += static_cast<long>(inputs.size());
              S2A_COUNTER_ADD("fleet.batched_forwards", 1);
              S2A_COUNTER_ADD("fleet.batched_members", inputs.size());
            }
          }

          // Per-loop: whole ticks. Batched, phase 3: commits serially in
          // group order; the stock loop code runs unchanged.
          for (std::size_t i = 0; i < live.size(); ++i) {
            Member& m = members_[live[i]];
            if (shared_) {
              m.loop->commit_tick(outcomes[i], m.rng);
              // peek said "will process" iff commit processed: a row
              // staged in phase 2 must have been consumed.
              S2A_CHECK(!m.slot->staged());
            } else {
              m.loop->tick(m.rng);
            }
            --m.remaining;
            ++m.executed;
            const bool timed = std::isfinite(m.cfg.deadline_s);
            if (cfg_.record_latencies || timed) {
              const double end_s = elapsed();
              if (cfg_.record_latencies)
                m.tick_ms.push_back((end_s - start_s) * 1e3);
              if (timed) {
                if (end_s > m.next_deadline) {
                  ++m.deadline_misses;
                  ++bad;
                  S2A_COUNTER_ADD("fleet.deadline_misses", 1);
                }
                m.next_deadline += m.cfg.deadline_s;
              }
            }
          }
          ticks += static_cast<long>(live.size());
        }
        S2A_COUNTER_ADD("fleet.ticks", ticks);
        admission_.record_ticks(ticks, bad);  // one lock per dispatch
      }

      {
        std::lock_guard<std::mutex> lk(mu);
        --active;
        for (const std::size_t id : group) {
          const Member& m = members_[id];
          if (m.remaining == 0) continue;
          ready.push_back({m.next_deadline, m.executed, id});
          std::push_heap(ready.begin(), ready.end(), later);
          cv.notify_one();
        }
        if (ready.empty() && active == 0)
          cv.notify_all();  // wake everyone so they can observe "drained"
      }
    }
  };

  if (!members_.empty())
    pool.parallel_for(0, static_cast<std::size_t>(workers), 1, worker);

  stats.workers = workers;
  stats.dispatches = dispatches.load(std::memory_order_relaxed);
  stats.wall_s = elapsed();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& m = members_[i];
    FleetLoopStats& ls = stats.loops[i];
    ls.requested = m.cfg.ticks;
    ls.executed = m.executed;
    ls.shed = m.shed;
    ls.deadline_misses = m.deadline_misses;
    ls.final_state = m.loop->state();
    if (!m.tick_ms.empty()) {
      std::sort(m.tick_ms.begin(), m.tick_ms.end());
      ls.p50_tick_ms = percentile(m.tick_ms, 0.50);
      ls.p95_tick_ms = percentile(m.tick_ms, 0.95);
      ls.max_tick_ms = m.tick_ms.back();
    }
    stats.executed += ls.executed;
    stats.shed += ls.shed;
    stats.deadline_misses += ls.deadline_misses;
  }
  stats.ticks_per_s =
      stats.wall_s > 0.0 ? static_cast<double>(stats.executed) / stats.wall_s
                         : 0.0;
  return stats;
}

}  // namespace s2a::core
