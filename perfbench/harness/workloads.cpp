#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/fleet.hpp"
#include "federated/compress.hpp"
#include "federated/fedavg.hpp"
#include "util/cpu_features.hpp"
#include "util/thread_pool.hpp"

namespace s2a::perfbench {

namespace {

// An untraced run measures whole passes until --seconds of measured
// time. A cycle of distinct passes (ticks 24..8215, or episodes 2..65)
// runs first and always; its energy, quality and digest are the run's.
// Later passes replay the cycle and must reproduce its digests, so every
// run's deterministic figures come from identical work however many
// passes the host's speed allows. A tick pass is preceded by an untimed
// lead-in of the kWarmTicks ticks before it: a vetoed tick acts on the
// previous tick's observation, so a pass must not start from whatever
// the pass before it left.
constexpr long kPassTicks = 1024;       // 4 sweeps of a member's 256 clip states
constexpr long kTickCycle = 8;          // distinct tick passes
constexpr long kPassEpisodes = 16;
constexpr long kEpisodeCycle = 4;       // distinct episode passes
// p50 averages the medians of windows of this many units (see
// windowed_median): about 0.1-0.3 s of ticks, 1-3 s of episodes.
constexpr std::size_t kTickWindow = 128;
constexpr std::size_t kEpisodeWindow = 8;
// Nominal unit rates that size the traced run's phases: about
// 0.35 x --seconds per phase on the reference 4-core AVX-512 host while
// co-tenants load it (less when it is idle).
constexpr double kTickRate = 370.0;     // ticks/s, one loop at pool size 1
constexpr double kEpisodeRate = 3.0;    // fed_round episodes/s
constexpr long kWarmTicks = 24;         // untimed ticks per loop
constexpr long kWarmEpisodes = 2;       // untimed episodes
constexpr int kFleetMembers = 8;         // the traced run's fleet phases
constexpr long kFleetTicks = 100;        // measured ticks per fleet member
// Set-ups timed per run (median). Repetition 0 builds what the run
// measures; the others build throwaway copies between passes, spread
// evenly over the measured time, so they sample the same host load as
// the latency.
constexpr int kTickSetupReps = 7;
constexpr int kFedSetupReps = 25;
constexpr int kTraceBlocks = 10;        // traced/untraced twins alternate
constexpr int kDecompositionStates = 16;
constexpr double kAccuracyFloor = 0.6;  // 4 classes: chance is 0.25
// Σ of the tick layers' median self times may miss the untraced p50 by
// the tracing overhead plus this: a sum of medians is not the median of
// the sums.
constexpr double kLedgerMargin = 0.05;
constexpr std::uint64_t kFleetStream = 21;
constexpr std::uint64_t kProbeStream = 22;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

/// min(nproc, 4): the pool size of fed_round and of the traced fleet.
int bench_threads() { return std::min(nproc(), 4); }

/// The run environment recorded with every result.
std::string environment_json() {
  std::ostringstream os;
  os << "{\"cpu\": \"" << util::cpu_feature_string() << "\", \"simd\": \""
     << util::simd_isa_name(util::active_simd_isa())
     << "\", \"pool\": " << util::global_pool().size()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"nproc\": " << nproc() << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\"}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Units a traced phase of `seconds` measures: seconds × the nominal
/// rate, but enough for kMinBeyond samples beyond p90.
long units_for(double seconds, double rate) {
  return std::max(static_cast<long>(min_samples_for(0.9)), std::lround(seconds * rate));
}

/// Calls `pass` (which returns the seconds it measured) until `seconds`
/// are measured and at least `min_passes` passes ran, and `setup_again`
/// `setup_reps - 1` times between passes, spread evenly over the
/// measured time.
template <class Pass, class Setup>
void timed_passes(double seconds, long min_passes, int setup_reps, Pass&& pass,
                  Setup&& setup_again) {
  double measured = 0.0;
  int setups = 1;
  for (long p = 0; measured < seconds || p < min_passes; ++p) {
    for (; setups < setup_reps && measured >= seconds * setups / setup_reps; ++setups)
      setup_again();
    measured += pass();
  }
  for (; setups < setup_reps; ++setups) setup_again();
}

/// Passes a run measures at least: the whole cycle, and enough for
/// kMinBeyond samples beyond p90.
long min_passes(long units_per_pass, long cycle) {
  const auto n = static_cast<long>(min_samples_for(0.9));
  return std::max(cycle, (n + units_per_pass - 1) / units_per_pass);
}

/// Wall time (s) of one call of `f`.
template <class F>
double time_s(F&& f) {
  const double t0 = now_us();
  f();
  return (now_us() - t0) / 1e6;
}

/// The model, clips and loop of a `tick` set-up.
struct LoopSetup {
  std::unique_ptr<PaperModel> model;
  std::unique_ptr<ClipSet> clips;
  std::unique_ptr<PaperLoop> loop;

  static LoopSetup build(std::uint64_t seed) {
    LoopSetup s;
    s.model = PaperModel::build(PaperConfig::standard());
    s.clips = std::make_unique<ClipSet>(ClipSet::make(s.model->cfg, 0));
    s.loop = std::make_unique<PaperLoop>(*s.model, *s.clips, seed, 0);
    return s;
  }
};

/// Set-up repetitions of the `tick` workload, built at pool size 1 (the
/// pretraining would otherwise inherit the bimodal intra-op sharding)
/// and checked to build bit-identical models.
class LoopSetupTimer {
 public:
  explicit LoopSetupTimer(std::uint64_t seed) : seed_(seed) {}

  /// Repetition 0: the set-up the run measures.
  LoopSetup first() {
    LoopSetup s;
    time_one(s);
    return s;
  }
  /// A throwaway repetition.
  void again() {
    {
      LoopSetup s;
      time_one(s);
    }
#ifdef __GLIBC__
    // Return the copy's pages, so the run's peak RSS is its live state
    // plus one set-up, not whatever the heap's fragmentation kept.
    malloc_trim(0);
#endif
  }
  double median_s() const { return median(seconds_); }
  std::uint64_t digest() const { return digests_.front(); }
  void check(Checks& c) const {
    c.expect(std::all_of(digests_.begin(), digests_.end(),
                         [&](std::uint64_t d) { return d == digests_.front(); }),
             "deterministic_setup");
  }

 private:
  void time_one(LoopSetup& s) {
    util::set_global_threads(1);
    seconds_.push_back(time_s([&] { s = LoopSetup::build(seed_); }));
    digests_.push_back(s.loop->model_digest());
  }
  std::uint64_t seed_;
  std::vector<double> seconds_;
  std::vector<std::uint64_t> digests_;
};

std::string summary_note(const char* what, const Summary& s) {
  std::ostringstream os;
  os << what << " latency samples=" << s.n << " beyond_p90=" << s.beyond_p90;
  return os.str();
}

void end_to_end(RunResult& res, double setup_s, const Summary& lat, double throughput,
                double energy_mj, double quality) {
  res.metrics = {{"setup_s", setup_s, "s"},
                 {"p50_ms", lat.p50, "ms"},
                 {"p90_ms", lat.p90, "ms"},
                 {"throughput_per_s", throughput, "1/s"},
                 {"energy_mj_per_unit", energy_mj, "mJ"},
                 {"quality", quality, "ratio"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

/// Folds one measured loop into `ph` and checks it: each tick must
/// actuate a fresh, finite action (not quarantined, not a fallback), and
/// the loop must end NOMINAL.
void collect(LoopPhase& ph, PaperLoop& loop, const core::LoopMetrics& base,
             long ticks, double& iou_sum) {
  const LoopRecord& r = loop.record();
  const core::LoopMetrics& m = loop.loop().metrics();
  ph.time.ms.insert(ph.time.ms.end(), r.latency_ms.begin(), r.latency_ms.end());
  ph.ticks += ticks;
  ph.energy_j += m.total_energy_j() - base.total_energy_j();
  iou_sum += loop.mean_iou() * static_cast<double>(r.recon.size());
  std::ostringstream what;
  what << "failed_ticks member=" << ph.member_digest.size()
       << " unactuated=" << ticks - static_cast<long>(r.latency_ms.size())
       << " nonfinite=" << r.nonfinite_actions
       << " quarantined=" << m.quarantined_actions - base.quarantined_actions
       << " fallback=" << m.fallback_actions - base.fallback_actions;
  ph.checks.units(ticks, std::max(0L, ticks - r.good_ticks), what.str());
  ph.checks.expect(loop.loop().state() == core::LoopState::kNominal, "nominal_at_end");
  ph.digest.add(static_cast<std::int64_t>(r.digest.value()));
  ph.member_digest.push_back(r.digest.value());
  ph.member_metrics.push_back(m);
  ph.returns += r.returns;
  ph.trusted += r.trusted;
  ph.trust_checks += r.trust_checks;
  ph.sensing_j += r.sensing_j;
  ph.recon_j += r.recon_j;
}

// ---- fed_round ------------------------------------------------------------

struct FedPhase {
  Timeline time;  ///< per episode: wall time ÷ rounds
  long updates = 0;  ///< sampled client rounds
  double energy_j = 0.0;
  double accuracy_sum = 0.0;
  long episodes = 0;
  Checks checks;
  long dropped = 0;
  double bytes_on_wire = 0.0, dense_bytes = 0.0;
  std::size_t peak_bytes = 0;
  Digest digest;
};

/// The aggregator's high-water mark on the 96-client tiny fixture (same
/// model shape) at the current pool size. The engine's memory does not
/// grow with the client count, so no 1,000-client episode may exceed it.
std::size_t reference_peak_bytes(std::uint64_t seed) {
  return FedFixture::make(FedConfig::tiny()).episode(seed, 0).hier.peak_accumulator_bytes;
}

/// Appends episodes [first, first + n) to `ph`. Each episode is one
/// checked unit: finite per-round accuracy above the floor, no
/// quarantined delta, peak aggregator memory at most `peak_limit`.
void fed_episodes(FedPhase& ph, const FedFixture& fx, std::uint64_t seed, long first,
                  long n, std::size_t peak_limit, SpanLog* log) {
  const double t0_us = now_us();
  for (long e = first; e < first + n; ++e) {
    if (log) log->set_unit(e);
    const double t0 = now_us();
    federated::HierResult r;
    {
      ScopedSpan span(log, "federated.episode");
      r = fx.episode(seed, e);
    }
    ph.time.ms.push_back((now_us() - t0) / 1000.0 / fx.cfg.rounds);
    ph.updates += r.hier.sampled_client_rounds;
    ph.energy_j += r.fl.total_energy_j;
    ph.accuracy_sum += r.fl.final_accuracy;
    ph.dropped += r.fl.dropped_client_rounds;
    ph.bytes_on_wire += r.hier.bytes_on_wire;
    ph.dense_bytes += r.hier.dense_bytes;
    ph.peak_bytes = std::max(ph.peak_bytes, r.hier.peak_accumulator_bytes);
    ++ph.episodes;
    const bool finite = std::all_of(r.fl.accuracy_per_round.begin(),
                                    r.fl.accuracy_per_round.end(),
                                    [](double a) { return std::isfinite(a); });
    const bool ok = finite && r.fl.final_accuracy >= kAccuracyFloor &&
                    r.fl.nonfinite_deltas == 0 &&
                    r.hier.peak_accumulator_bytes <= peak_limit;
    std::ostringstream what;
    if (!ok)
      what << "failed_episode e=" << e << " finite=" << finite
           << " accuracy=" << r.fl.final_accuracy
           << " nonfinite_deltas=" << r.fl.nonfinite_deltas
           << " peak_accumulator_bytes=" << r.hier.peak_accumulator_bytes
           << " limit=" << peak_limit;
    ph.checks.units(1, !ok, what.str());
    digest_result(ph.digest, r);
  }
  ph.time.wall_us += now_us() - t0_us;
}

/// The w1|b1|w2|b2 layout topk_compress indexes into.
std::vector<double> flatten(const federated::MlpParams& p) {
  std::vector<double> v;
  for (const nn::Tensor* t : {&p.w1, &p.b1, &p.w2, &p.b2})
    v.insert(v.end(), t->data(), t->data() + t->numel());
  return v;
}

struct FedLayers {
  double local_train_ms = 0.0, topk_ms = 0.0, evaluate_ms = 0.0;
};

/// Times the engine's per-client public pieces on cohort-typical inputs:
/// local_train on a client shard, topk_compress of its delta (with error
/// feedback), evaluate_accuracy on the test set.
FedLayers fed_layer_probe(const FedFixture& fx, std::uint64_t seed, int reps,
                          SpanLog* log) {
  const federated::FlConfig& fl = fx.cfg.hier.fl;
  Rng rng(derive_seed(seed, 0, 0, kProbeStream));
  const federated::MlpParams global =
      federated::init_mlp(fx.cfg.features, fl.hidden, fx.cfg.classes, rng);
  const std::vector<bool> active(static_cast<std::size_t>(fl.hidden), true);
  std::vector<double> lt, tk, ev;
  std::vector<double> residual;
  for (int i = 0; i < reps; ++i) {
    if (log) log->set_unit(1000000 + i);
    federated::MlpParams local = global;
    Rng crng(derive_seed(seed, static_cast<std::uint64_t>(i), 1, kProbeStream));
    const auto& shard = fx.shards[static_cast<std::size_t>(i) % fx.shards.size()];
    double t0 = now_us();
    {
      ScopedSpan s(log, "federated.local_train");
      federated::local_train(local, fx.train, shard, active, {}, fl.local_epochs,
                             fl.batch, fl.lr, crng);
    }
    lt.push_back((now_us() - t0) / 1000.0);

    std::vector<double> delta = flatten(local);
    const std::vector<double> base = flatten(global);
    for (std::size_t k = 0; k < delta.size(); ++k) delta[k] -= base[k];
    const std::vector<unsigned char> eligible(delta.size(), 1);
    t0 = now_us();
    {
      ScopedSpan s(log, "federated.topk_compress");
      federated::topk_compress(delta, fx.cfg.hier.topk_fraction, &residual, &eligible);
    }
    tk.push_back((now_us() - t0) / 1000.0);

    t0 = now_us();
    {
      ScopedSpan s(log, "federated.evaluate");
      (void)federated::evaluate_accuracy(local, fx.test);
    }
    ev.push_back((now_us() - t0) / 1000.0);
  }
  return {median(lt), median(tk), median(ev)};
}

// ---- Untraced workloads (end-to-end metrics) -------------------------------

void run_tick(const RunOptions& opt, RunResult& res) {
  util::set_global_threads(1);
  LoopSetupTimer setups(opt.seed);
  LoopSetup live = setups.first();
  PaperLoop& loop = *live.loop;
  std::vector<LoopPhase> cycle;  // energy, quality and digest of the run
  std::vector<double> ms;
  double wall_s = 0.0;
  long passes = 0;
  timed_passes(
      opt.seconds, min_passes(kPassTicks, kTickCycle), kTickSetupReps,
      [&] {
        const long k = passes++ % kTickCycle;
        LoopPhase ph = tick_pass(loop, kWarmTicks, kPassTicks, k,
                                 passes == 1 ? kDecompositionStates : 0);
        if (cycle.size() < static_cast<std::size_t>(kTickCycle))
          cycle.push_back(ph);
        else
          ph.checks.expect(ph.digest.value() == cycle[static_cast<std::size_t>(k)].digest.value(),
                           "pass_repeats_cycle");
        res.checks.merge(ph.checks);
        ms.insert(ms.end(), ph.time.ms.begin(), ph.time.ms.end());
        wall_s += ph.time.wall_s();
        return ph.time.wall_s();
      },
      [&] { setups.again(); });
  setups.check(res.checks);
  double energy_j = 0.0, quality = 0.0;
  Digest digest;
  for (const LoopPhase& ph : cycle) {
    energy_j += ph.energy_j;
    quality += ph.quality;  // equal passes: the mean of means is the mean
    digest.add(static_cast<std::int64_t>(ph.digest.value()));
  }
  const Summary lat = summarize(ms, kTickWindow);
  end_to_end(res, setups.median_s(), lat, static_cast<double>(ms.size()) / wall_s,
             1e3 * energy_j / static_cast<double>(kTickCycle * kPassTicks),
             quality / static_cast<double>(kTickCycle));
  res.notes.push_back(summary_note("tick", lat));
  res.notes.push_back("digest tick outputs=" + digest.hex() +
                      " model=" + to_hex(setups.digest()) +
                      " passes=" + std::to_string(passes));
}

void run_fed(const RunOptions& opt, RunResult& res) {
  util::set_global_threads(bench_threads());
  const FedConfig cfg = FedConfig::standard();
  const auto make = [&] { return std::make_unique<FedFixture>(FedFixture::make(cfg)); };
  std::vector<double> setups;
  std::unique_ptr<FedFixture> fx;
  setups.push_back(time_s([&] { fx = make(); }));
  const std::size_t peak_limit = reference_peak_bytes(opt.seed);
  FedPhase warm;
  fed_episodes(warm, *fx, opt.seed, 0, kWarmEpisodes, peak_limit, nullptr);
  std::vector<FedPhase> cycle;  // energy, quality and digest of the run
  std::vector<double> ms;
  double wall_s = 0.0;
  long updates = 0, passes = 0;
  std::size_t peak_bytes = 0;
  timed_passes(
      opt.seconds, min_passes(kPassEpisodes, kEpisodeCycle), kFedSetupReps,
      [&] {
        const long k = passes++ % kEpisodeCycle;
        FedPhase ph;
        fed_episodes(ph, *fx, opt.seed, kWarmEpisodes + k * kPassEpisodes, kPassEpisodes,
                     peak_limit, nullptr);
        if (cycle.size() < static_cast<std::size_t>(kEpisodeCycle))
          cycle.push_back(ph);
        else
          ph.checks.expect(ph.digest.value() == cycle[static_cast<std::size_t>(k)].digest.value(),
                           "pass_repeats_cycle");
        res.checks.merge(ph.checks);
        ms.insert(ms.end(), ph.time.ms.begin(), ph.time.ms.end());
        wall_s += ph.time.wall_s();
        updates += ph.updates;
        peak_bytes = std::max(peak_bytes, ph.peak_bytes);
        return ph.time.wall_s();
      },
      [&] {
        std::unique_ptr<FedFixture> copy;
        setups.push_back(time_s([&] { copy = make(); }));
      });
  double energy_j = 0.0, accuracy_sum = 0.0;
  long cycle_updates = 0, cycle_episodes = 0;
  Digest digest;
  for (const FedPhase& ph : cycle) {
    energy_j += ph.energy_j;
    accuracy_sum += ph.accuracy_sum;
    cycle_updates += ph.updates;
    cycle_episodes += ph.episodes;
    digest.add(static_cast<std::int64_t>(ph.digest.value()));
  }
  const Summary lat = summarize(ms, kEpisodeWindow);
  end_to_end(res, median(setups), lat, static_cast<double>(updates) / wall_s,
             1e3 * energy_j / static_cast<double>(cycle_updates),
             accuracy_sum / static_cast<double>(cycle_episodes));
  res.notes.push_back(summary_note("fed_round", lat));
  std::ostringstream os;
  os << "digest fed_round outputs=" << digest.hex() << " peak_accumulator_bytes="
     << peak_bytes << " reference=" << peak_limit << " passes=" << passes;
  res.notes.push_back(os.str());
}

// ---- Traced run (per-layer metrics) ---------------------------------------

/// Per-tick self times of the spans named `name`.
const std::vector<double>& self_per_tick(
    const std::map<std::string, std::vector<double>>& by_unit, const std::string& name,
    std::size_t ticks) {
  const auto it = by_unit.find(name);
  if (it == by_unit.end() || it->second.size() != ticks)
    throw std::logic_error("expected one " + name + " per tick");
  return it->second;
}

/// reconstruct + detect p50 at pool size 1 ÷ the same at `threads`.
double intraop_speedup(const PaperModel& model, const ClipSet& clips, int threads,
                       int reps) {
  Rng rng(derive_seed(0, 0, 0, kProbeStream));
  const lidar::SensedScene s = model.pipeline->sense(clips.states[0], rng);
  const nn::Tensor sensed = s.sensed.to_tensor();
  const nn::Tensor recon = s.reconstructed.to_tensor();
  std::vector<double> one, many;
  for (int block = 0; block < 3; ++block)
    for (const int t : {1, threads}) {
      util::set_global_threads(t);
      for (int r = 0; r < reps; ++r) {
        const double t0 = now_us();
        (void)model.pipeline->autoencoder().reconstruct(sensed);
        (void)model.detector->detect(recon);
        (t == 1 ? one : many).push_back((now_us() - t0) / 1000.0);
      }
    }
  return median(one) / median(many);
}

void run_traced(const RunOptions& opt, RunResult& res) {
  const std::string& w = opt.workload;
  const int threads = bench_threads();
  // The named workload's phases take most of --seconds; the other
  // layers are measured by short phases so every run reports them all.
  // The named workload also runs an untraced twin for
  // obs.trace_overhead_ratio, in blocks alternating with the traced
  // ones so both see the same host load.
  const double main_s = 0.35 * opt.seconds;
  std::vector<Metric>& out = res.metrics;
  double overhead = 0.0;

  // Tick layers, at pool size 1.
  util::set_global_threads(1);
  const auto model = PaperModel::build(PaperConfig::standard());
  const ClipSet clips0 = ClipSet::make(model->cfg, 0);
  const long tick_n = w == "tick" ? units_for(main_s, kTickRate) : 200;
  SpanLog tick_log(0);
  PaperLoop traced(*model, clips0, opt.seed, 0, &tick_log);
  PaperLoop plain(*model, clips0, opt.seed, 0);
  TickStretch traced_ticks(traced, kWarmTicks);
  std::unique_ptr<TickStretch> plain_ticks;
  if (w == "tick") plain_ticks = std::make_unique<TickStretch>(plain, kWarmTicks);
  for (int b = 0; b < kTraceBlocks; ++b) {
    const long k = block_size(tick_n, kTraceBlocks, b);
    traced_ticks.run(k);
    if (plain_ticks) plain_ticks->run(k);
  }
  const LoopPhase tp = traced_ticks.finish(kDecompositionStates);
  res.checks.merge(tp.checks);
  const double traced_p50 = median(tp.time.ms);
  auto self = self_ms_by_unit(tick_log);
  const std::size_t n = tp.time.ms.size();
  const auto layer = [&](const char* name) { return median(self_per_tick(self, name, n)); };
  const double n_ticks = static_cast<double>(tp.ticks);
  const double recon_ms = layer("lidar.reconstruct");
  const double detect_ms = layer("lidar.detect");
  std::vector<double>& adapter = self["bench.adapter"];
  adapter.assign(n, 0.0);
  for (const char* name : {"bench.sensor", "bench.trust", "bench.processor", "bench.actuator"}) {
    const std::vector<double>& v = self.at(name);
    if (v.size() != n) throw std::logic_error("adapter spans misaligned");
    for (std::size_t i = 0; i < n; ++i) adapter[i] += v[i];
  }
  const std::vector<std::pair<const char*, const char*>> layers = {
      {"lidar.beam_plan_ms", "lidar.beam_plan"}, {"sim.selective_scan_ms", "sim.selective_scan"},
      {"lidar.voxelize_ms", "lidar.voxelize"},   {"lidar.reconstruct_ms", "lidar.reconstruct"},
      {"lidar.merge_ms", "lidar.merge"},         {"lidar.detect_ms", "lidar.detect"},
      {"lidar.embed_ms", "lidar.embed"},         {"monitor.trust_ms", "monitor.trust"},
      {"core.loop_self_ms", "core.loop"},        {"bench.adapter_self_ms", "bench.adapter"},
  };
  double self_sum = 0.0;  // Σ of the layers' median self times
  for (const auto& [metric, span] : layers) {
    out.push_back({metric, layer(span), "ms"});
    self_sum += out.back().value;
  }
  const double macs = static_cast<double>(model->pipeline->autoencoder().macs_per_scan());
  out.push_back({"lidar.reconstruct_gmac_per_s", macs / (recon_ms * 1e6), "GMAC/s"});
  out.push_back({"lidar.detect_gmac_per_s",
                 static_cast<double>(detector_macs(model->cfg.det)) / (detect_ms * 1e6),
                 "GMAC/s"});
  out.push_back({"sim.returns_per_tick", static_cast<double>(tp.returns) / n_ticks, "count"});
  out.push_back({"monitor.trusted_ratio",
                 static_cast<double>(tp.trusted) / static_cast<double>(tp.trust_checks),
                 "ratio"});
  out.push_back({"lidar.sensing_energy_mj", 1e3 * tp.sensing_j / n_ticks, "mJ"});
  out.push_back({"lidar.recon_energy_mj", 1e3 * tp.recon_j / n_ticks, "mJ"});
  // How much of the traced tick the ledger explains: Σ layer self p50s.
  out.push_back({"obs.self_sum_ratio", self_sum / traced_p50, "ratio"});
  if (plain_ticks) {
    const LoopPhase up = plain_ticks->finish(0);
    res.checks.merge(up.checks);
    res.checks.expect(up.digest.value() == tp.digest.value(), "tick_digest_traced_vs_untraced");
    const double untraced_p50 = median(up.time.ms);
    overhead = traced_p50 / untraced_p50;
    // The ledger must account for the untraced tick, within the
    // tracing overhead.
    const double miss = std::abs(self_sum / untraced_p50 - 1.0);
    std::ostringstream what;
    what << "layer_self_times_sum_to_untraced_p50 sum=" << self_sum
         << " untraced_p50=" << untraced_p50 << " overhead=" << overhead;
    res.checks.expect(miss <= std::abs(overhead - 1.0) + kLedgerMargin, what.str());
  }
  out.push_back({"util.intraop_speedup", intraop_speedup(*model, clips0, threads, 40), "x"});

  // Fleet layers, at pool size min(nproc, 4): the same 8 loops at the
  // pool size and at max_workers = 1.
  util::set_global_threads(threads);
  std::vector<ClipSet> clips;
  for (int m = 0; m < kFleetMembers; ++m) clips.push_back(ClipSet::make(model->cfg, m));
  const auto make_loops = [&] {
    std::vector<std::unique_ptr<PaperLoop>> loops;
    for (int m = 0; m < kFleetMembers; ++m)
      loops.push_back(std::make_unique<PaperLoop>(
          *model, clips[static_cast<std::size_t>(m)], opt.seed, m));
    return loops;
  };
  auto full_loops = make_loops();
  const LoopPhase full = fleet_phase(full_loops, opt.seed, kWarmTicks, kFleetTicks, 0);
  auto one_loops = make_loops();
  const LoopPhase one = fleet_phase(one_loops, opt.seed, kWarmTicks, kFleetTicks, 1);
  res.checks.merge(full.checks);
  res.checks.merge(one.checks);
  res.checks.expect(full.digest.value() == one.digest.value(), "fleet_digest_across_workers");
  // Fleet's throughput-mode contract: a member's results are bit-exact
  // with an untimed serial replay of the same loop.
  PaperLoop replay(*model, clips[0], opt.seed, 0);
  const LoopPhase rp = tick_phase(replay, kWarmTicks, kFleetTicks, 0);
  res.checks.merge(rp.checks);
  res.checks.expect(rp.member_digest[0] == full.member_digest[0] &&
                        rp.member_metrics[0] == full.member_metrics[0],
                    "fleet_serial_replay_exact");
  const double rate_full = static_cast<double>(full.ticks) / full.time.wall_s();
  const double rate_one = static_cast<double>(one.ticks) / one.time.wall_s();
  out.push_back({"core.fleet_efficiency", rate_full / (full.workers * rate_one), "ratio"});
  out.push_back({"core.fleet_dispatches", static_cast<double>(full.dispatches), "count"});

  // Federated layers, at pool size min(nproc, 4).
  const FedFixture fx = FedFixture::make(FedConfig::standard());
  const std::size_t peak_limit = reference_peak_bytes(opt.seed);
  const long episodes = w == "fed_round" ? units_for(main_s, kEpisodeRate) : 12;
  FedPhase warm;
  fed_episodes(warm, fx, opt.seed, 0, kWarmEpisodes, peak_limit, nullptr);
  SpanLog fed_log(100);
  FedPhase fp, up;
  const int fed_blocks = w == "fed_round" ? kTraceBlocks : 1;
  for (long b = 0, next = kWarmEpisodes; b < fed_blocks; ++b) {
    const long k = block_size(episodes, fed_blocks, static_cast<int>(b));
    fed_episodes(fp, fx, opt.seed, next, k, peak_limit, &fed_log);
    if (w == "fed_round") fed_episodes(up, fx, opt.seed, next, k, peak_limit, nullptr);
    next += k;
  }
  res.checks.merge(fp.checks);
  const double round_ms = median(fp.time.ms);
  if (w == "fed_round") {
    res.checks.merge(up.checks);
    res.checks.expect(up.digest.value() == fp.digest.value(), "fed_digest_traced_vs_untraced");
    overhead = round_ms / median(up.time.ms);
  }
  const FedLayers fl = fed_layer_probe(fx, opt.seed, 200, &fed_log);
  const double rounds = static_cast<double>(fp.episodes * fx.cfg.rounds);
  const double updates_per_round = static_cast<double>(fp.updates) / rounds;
  federated::HierConfig unbilled = fx.cfg.hier;
  unbilled.bill_uplink = false;
  const double billed_s = fx.episode(opt.seed, 0).fl.total_latency_s;
  const double unbilled_s = fx.episode(opt.seed, 0, unbilled).fl.total_latency_s;
  out.push_back({"federated.local_train_ms", fl.local_train_ms, "ms"});
  out.push_back({"federated.topk_compress_ms", fl.topk_ms, "ms"});
  out.push_back({"federated.evaluate_ms", fl.evaluate_ms, "ms"});
  // A residual, not a span: round time minus the timed client work
  // spread over the pool, minus the evaluation.
  out.push_back({"federated.aggregate_residual_ms",
                 round_ms - (fl.local_train_ms + fl.topk_ms) * updates_per_round / threads -
                     fl.evaluate_ms,
                 "ms"});
  out.push_back({"federated.bytes_on_wire", fp.bytes_on_wire / rounds, "B/round"});
  out.push_back({"federated.compression_ratio", fp.dense_bytes / fp.bytes_on_wire, "x"});
  out.push_back({"federated.peak_accumulator_bytes", static_cast<double>(fp.peak_bytes), "B"});
  out.push_back({"federated.dropped_client_rounds",
                 static_cast<double>(fp.dropped) / static_cast<double>(fp.episodes),
                 "count"});
  out.push_back({"net.uplink_s", (billed_s - unbilled_s) / fx.cfg.rounds, "s/round"});
  out.push_back({"obs.trace_overhead_ratio", overhead, "ratio"});
  res.notes.push_back("digest traced tick=" + tp.digest.hex() + " fleet=" + full.digest.hex() +
                      " fed_round=" + fp.digest.hex());

  util::set_global_threads(w == "tick" ? 1 : threads);
  if (!opt.trace_path.empty()) {
    if (!write_chrome_trace(opt.trace_path, {&tick_log, &fed_log}, environment_json()))
      throw std::runtime_error("cannot write " + opt.trace_path);
    res.notes.push_back("trace " + opt.trace_path);
  }
}

}  // namespace

void Checks::units(long n, long bad, const std::string& what) {
  attempted += n;
  if (bad == 0) return;
  failed += bad;
  problems.push_back(what + " (" + std::to_string(bad) + " of " + std::to_string(n) + ")");
}

void Checks::merge(const Checks& other) {
  attempted += other.attempted;
  failed += other.failed;
  problems.insert(problems.end(), other.problems.begin(), other.problems.end());
}

long block_size(long n, int blocks, int b) {
  return n * (b + 1) / blocks - n * b / blocks;
}

TickStretch::TickStretch(PaperLoop& loop, long warm) : loop_(loop), warm_(warm) {
  for (long i = 0; i < warm; ++i) loop_.tick();
  base_ = loop_.begin_measurement();
}

void TickStretch::run(long ticks) {
  const double t0 = now_us();
  for (long i = 0; i < ticks; ++i) loop_.tick();
  wall_us_ += now_us() - t0;
  ticks_ += ticks;
}

LoopPhase TickStretch::finish(int decomposition) {
  LoopPhase ph;
  ph.time.wall_us = wall_us_;
  double iou_sum = 0.0;
  collect(ph, loop_, base_, ticks_, iou_sum);
  ph.quality = iou_sum / static_cast<double>(ph.ticks);
  long mismatched = 0;
  for (int s = 0; s < decomposition; ++s)
    mismatched += !loop_.decomposition_matches(s % loop_.clip_states(), warm_ + ticks_ + s);
  ph.checks.units(decomposition, mismatched, "decomposed_sense_mismatch");
  return ph;
}

LoopPhase tick_phase(PaperLoop& loop, long warm, long ticks, int decomposition) {
  TickStretch s(loop, warm);
  s.run(ticks);
  return s.finish(decomposition);
}

LoopPhase tick_pass(PaperLoop& loop, long warm, long ticks, long k, int decomposition) {
  loop.rewind(k * ticks);
  return tick_phase(loop, warm, ticks, decomposition);
}

LoopPhase fleet_phase(std::vector<std::unique_ptr<PaperLoop>>& loops,
                      std::uint64_t seed, long warm, long ticks_per_member,
                      int max_workers) {
  const auto fleet_run = [&](long ticks) {
    core::FleetConfig fc;
    fc.max_workers = max_workers;
    fc.record_latencies = false;  // the adapters time each tick
    core::Fleet fleet(fc);
    core::FleetLoopConfig lc;
    lc.ticks = static_cast<int>(ticks);
    for (std::size_t m = 0; m < loops.size(); ++m)
      fleet.add(loops[m]->loop(), lc, derive_seed(seed, m, 0, kFleetStream));
    return fleet.run();
  };
  fleet_run(warm);  // untimed and unchecked
  std::vector<core::LoopMetrics> base;
  for (auto& l : loops) base.push_back(l->begin_measurement());
  const double t0 = now_us();
  const core::FleetStats stats = fleet_run(ticks_per_member);
  LoopPhase ph;
  ph.time.wall_us = now_us() - t0;
  double iou_sum = 0.0;
  for (std::size_t m = 0; m < loops.size(); ++m)
    collect(ph, *loops[m], base[m], ticks_per_member, iou_sum);
  ph.quality = iou_sum / static_cast<double>(ph.ticks);
  ph.checks.expect(stats.executed == ph.ticks && stats.shed == 0, "fleet_executed_every_tick");
  ph.dispatches = stats.dispatches;
  ph.workers = stats.workers;
  return ph;
}

RunResult run(const RunOptions& opt) {
  if (opt.workload != "tick" && opt.workload != "fed_round")
    throw std::invalid_argument("unknown workload " + opt.workload);
  RunResult res;
  if (opt.trace)
    run_traced(opt, res);
  else if (opt.workload == "tick")
    run_tick(opt, res);
  else
    run_fed(opt, res);
  res.notes.insert(res.notes.begin(), "env " + environment_json());
  for (const std::string& p : res.checks.problems) res.notes.push_back("FAILED " + p);
  return res;
}

}  // namespace s2a::perfbench
