// Order statistics, the percentile rule, and the metric report.
//
// Percentiles are nearest-rank: the q-quantile of n samples is the
// sample at rank ceil(q * n). A tail percentile is only reported when at
// least kMinBeyond samples lie beyond it, so p90 needs n >= 100; the
// sample count travels with every summary so the rule can be checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace s2a::perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Rank (1-based) of the nearest-rank q-quantile of n samples.
std::size_t nearest_rank(std::size_t n, double q);
/// Samples strictly beyond the nearest-rank q-quantile: n - rank.
std::size_t samples_beyond(std::size_t n, double q);
/// Smallest n with at least kMinBeyond samples beyond the q-quantile.
std::size_t min_samples_for(double q);

/// Nearest-rank q-quantile; throws std::invalid_argument on no samples.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Median of each run of `window` consecutive samples, averaged over the
/// complete windows (a trailing partial window is dropped); the plain
/// median when there are fewer than `window` samples. On a host whose
/// speed switches between levels every few seconds, a pooled median
/// jumps between the levels with the share of time spent at each; this
/// average moves in proportion to it.
double windowed_median(const std::vector<double>& v, std::size_t window);

struct Summary {
  double p50 = 0.0;  ///< windowed_median
  double p90 = 0.0;  ///< pooled
  std::size_t n = 0;
  std::size_t beyond_p90 = 0;
};
/// p50 (windowed median over `window` samples) and pooled p90 of a
/// latency sample. Throws std::invalid_argument when fewer than
/// kMinBeyond samples lie beyond p90.
Summary summarize(const std::vector<double>& v, std::size_t window);

/// Self time of a span: its duration minus the part of [start, end)
/// covered by the union of its children's intervals (clipped to the
/// parent, overlaps counted once).
struct Interval {
  double start = 0.0;
  double end = 0.0;
};
double self_time(Interval parent, std::vector<Interval> children);

/// True for names of the metric grammar: a letter or digit, then at
/// most 63 of [A-Za-z0-9_.-].
bool valid_metric_name(const std::string& name);
/// True for units: 1..16 of [A-Za-z0-9_/%.-].
bool valid_unit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
/// Throws std::invalid_argument on a bad name or unit, a duplicate name
/// or a non-finite value.
std::string result_json(long attempted, long failed,
                        const std::vector<Metric>& metrics);

/// 16 lowercase hex digits.
std::string to_hex(std::uint64_t v);

/// FNV-1a over the bit patterns of everything fed in: the run's output
/// digest (actions, detections, trust decisions, models).
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::int64_t v) { bytes(&v, sizeof v); }
  void add(const std::vector<double>& v);
  std::uint64_t value() const { return h_; }
  std::string hex() const { return to_hex(h_); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace s2a::perfbench
