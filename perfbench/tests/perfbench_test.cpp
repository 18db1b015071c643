// Tests of the benchmark harness itself: the percentile rule, the
// self-time arithmetic, the metric grammar, and the fleet's bit-exact
// outputs across pool sizes.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace s2a::perfbench {
namespace {

std::string problems(const Checks& c) {
  std::ostringstream os;
  for (const std::string& p : c.problems) os << p << "; ";
  return os.str();
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(quantile(v, 0.5), 50.0);
  EXPECT_EQ(quantile(v, 0.9), 90.0);
  EXPECT_EQ(quantile({7.0}, 0.9), 7.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(PercentileRule, TenSamplesBeyondP90) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(min_samples_for(0.9), 100u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);

  std::vector<double> v(100, 1.0);
  const Summary s = summarize(v, 10);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.beyond_p90, 10u);
  v.pop_back();
  EXPECT_THROW(summarize(v, 10), std::invalid_argument);
}

// p50 averages the medians of complete windows, so a run that spends
// half its windows at each of two speeds reads between them, where a
// pooled median would read one of the two.
TEST(PercentileRule, WindowedMedian) {
  const std::vector<double> two_levels = {1, 1, 9, 3, 3, 3, 5};
  EXPECT_EQ(windowed_median(two_levels, 3), 2.0);  // (1 + 3) / 2; 5 dropped
  EXPECT_EQ(windowed_median(two_levels, 8), 3.0);  // fewer than a window
  EXPECT_EQ(windowed_median(two_levels, 1), mean(two_levels));
  EXPECT_THROW(windowed_median(two_levels, 0), std::invalid_argument);

  std::vector<double> v(100, 1.0);
  v.insert(v.end(), 100, 2.0);
  v.insert(v.end(), 101, 3.0);
  const Summary s = summarize(v, 100);
  EXPECT_EQ(s.p50, 2.0);
  EXPECT_EQ(s.p90, 3.0);
  EXPECT_EQ(s.n, 301u);
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 3}, {5, 6}}), 7.0);
  // Overlapping children are counted once.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 4}, {2, 5}}), 6.0);
  // Children are clipped to the parent.
  EXPECT_DOUBLE_EQ(self_time({2, 8}, {{0, 3}, {7, 12}}), 4.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{0, 10}, {3, 4}}), 0.0);
}

TEST(SelfTime, PerUnitFromSpanLog) {
  SpanLog log(0);
  for (int unit = 0; unit < 3; ++unit) {
    log.set_unit(unit);
    ScopedSpan root(&log, "root");
    { ScopedSpan a(&log, "child"); }
    { ScopedSpan b(&log, "child"); }
  }
  const auto self = self_ms_by_unit(log);
  ASSERT_EQ(self.at("root").size(), 3u);
  ASSERT_EQ(self.at("child").size(), 3u);  // two spans per unit, summed
  std::vector<double> roots;
  for (const Span& s : log.spans())
    if (s.parent < 0) roots.push_back((s.end_us - s.start_us) / 1000.0);
  ASSERT_EQ(roots.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u)
    EXPECT_NEAR(self.at("root")[u] + self.at("child")[u], roots[u], 1e-9);
}

TEST(MetricGrammar, NamesAndUnits) {
  for (const char* ok : {"p50_ms", "lidar.reconstruct_gmac_per_s", "a", "9-x.y_z"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", "_lead", ".lead", "sp ace", "slash/x", "ü"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  for (const char* ok : {"ms", "s", "1/s", "count", "%", "GMAC/s", "B/round"})
    EXPECT_TRUE(valid_unit(ok)) << ok;
  for (const char* bad : {"", "m s", "seventeen-chars-x"})
    EXPECT_FALSE(valid_unit(bad)) << bad;
}

TEST(MetricGrammar, ResultLine) {
  const std::string line = result_json(3, 0, {{"p50_ms", 1.5, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
  EXPECT_NE(result_json(3, 1, {}).find("\"correct\": false"), std::string::npos);
  EXPECT_THROW(result_json(1, 0, {{"x", 1.0, "ms"}, {"x", 2.0, "ms"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(1, 0, {{"bad name", 1.0, "ms"}}), std::invalid_argument);
  EXPECT_THROW(result_json(1, 0, {{"x", 1.0, "bad unit"}}), std::invalid_argument);
  EXPECT_THROW(result_json(1, 0, {{"x", std::nan(""), "ms"}}), std::invalid_argument);
}

TEST(Checks, UnitFailsAtMostOnce) {
  Checks c;
  c.units(100, 3, "ticks");
  c.expect(true, "whole_run");
  c.expect(false, "other_whole_run");
  Checks d;
  d.units(4, 0, "episodes");
  c.merge(d);
  EXPECT_EQ(c.attempted, 106);
  EXPECT_EQ(c.failed, 4);
  EXPECT_EQ(c.problems.size(), 2u);
}

TEST(Blocks, SplitCoversEveryUnit) {
  for (const long n : {0L, 1L, 7L, 100L, 6750L})
    for (const int blocks : {1, 5, 7, 25}) {
      long total = 0;
      for (int b = 0; b < blocks; ++b) {
        const long k = block_size(n, blocks, b);
        EXPECT_GE(k, n / blocks);
        EXPECT_LE(k, n / blocks + 1);
        total += k;
      }
      EXPECT_EQ(total, n);
    }
}

// A small fleet must produce the same digest, quality and energy at pool
// sizes 1 and 4 (Fleet's throughput-mode bit-exactness contract, seen
// through the benchmark's adapters).
TEST(Fleet, IdenticalAcrossPoolSizes) {
  const auto model = PaperModel::build(PaperConfig::tiny());
  std::vector<ClipSet> clips;
  for (int m = 0; m < 3; ++m) clips.push_back(ClipSet::make(model->cfg, m));
  const auto run_at = [&](int threads) {
    util::ScopedGlobalThreads pool(threads);
    std::vector<std::unique_ptr<PaperLoop>> loops;
    for (int m = 0; m < 3; ++m)
      loops.push_back(std::make_unique<PaperLoop>(*model, clips[static_cast<std::size_t>(m)], 7, m));
    return fleet_phase(loops, 7, 3, 6, 0);
  };
  const LoopPhase one = run_at(1);
  const LoopPhase four = run_at(4);
  EXPECT_EQ(one.checks.failed, 0) << problems(one.checks);
  EXPECT_EQ(four.checks.failed, 0) << problems(four.checks);
  EXPECT_EQ(one.digest.value(), four.digest.value());
  EXPECT_EQ(one.member_metrics, four.member_metrics);
  EXPECT_EQ(one.quality, four.quality);
  EXPECT_EQ(one.energy_j / one.ticks, four.energy_j / four.ticks);
  EXPECT_GT(one.quality, 0.0);
}

// A replayed tick pass reproduces the first run of that pass, after a
// different pass ran in between.
TEST(Tick, ReplayedPassRepeatsDigest) {
  util::ScopedGlobalThreads pool(1);
  const auto model = PaperModel::build(PaperConfig::tiny());
  const ClipSet clips = ClipSet::make(model->cfg, 0);
  PaperLoop loop(*model, clips, 5, 0);
  const LoopPhase first = tick_pass(loop, 2, 16, 0, 0);
  const LoopPhase other = tick_pass(loop, 2, 16, 1, 0);
  const LoopPhase again = tick_pass(loop, 2, 16, 0, 0);
  EXPECT_EQ(first.checks.failed + other.checks.failed + again.checks.failed, 0);
  EXPECT_EQ(again.digest.value(), first.digest.value());
  EXPECT_EQ(again.quality, first.quality);
  EXPECT_NE(other.digest.value(), first.digest.value());
}

// The decomposed sense reproduces GenerativeSensingPipeline::sense.
TEST(Tick, DecomposedSenseMatchesPipeline) {
  util::ScopedGlobalThreads pool(1);
  const auto model = PaperModel::build(PaperConfig::tiny());
  const ClipSet clips = ClipSet::make(model->cfg, 0);
  SpanLog log(0);
  PaperLoop loop(*model, clips, 3, 0, &log);
  const LoopPhase ph = tick_phase(loop, 2, 8, loop.clip_states());
  EXPECT_EQ(ph.checks.failed, 0) << problems(ph.checks);
  EXPECT_EQ(ph.time.ms.size(), 8u);
  EXPECT_FALSE(self_ms_by_unit(log).at("lidar.reconstruct").empty());
}

}  // namespace
}  // namespace s2a::perfbench
