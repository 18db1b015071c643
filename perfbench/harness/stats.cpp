#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

namespace s2a::perfbench {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (samples_beyond(n, q) < kMinBeyond) ++n;
  return n;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of no samples");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double windowed_median(const std::vector<double>& v, std::size_t window) {
  if (window == 0) throw std::invalid_argument("window of no samples");
  const std::size_t windows = v.size() / window;
  if (windows == 0) return median(v);
  double sum = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    sum += median(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(window)));
  }
  return sum / static_cast<double>(windows);
}

Summary summarize(const std::vector<double>& v, std::size_t window) {
  Summary s;
  s.n = v.size();
  s.beyond_p90 = samples_beyond(s.n, 0.9);
  if (s.beyond_p90 < kMinBeyond) {
    std::ostringstream os;
    os << "p90 of " << s.n << " samples has only " << s.beyond_p90
       << " beyond it (need " << kMinBeyond << ")";
    throw std::invalid_argument(os.str());
  }
  s.p50 = windowed_median(v, window);
  s.p90 = quantile(v, 0.9);
  return s;
}

double self_time(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double reach = parent.start;  // end of the union merged so far
  for (const Interval& c : children) {
    if (c.end <= reach) continue;
    covered += c.end - std::max(c.start, reach);
    reach = c.end;
  }
  return (parent.end - parent.start) - covered;
}

namespace {
bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '-';
}
}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::string result_json(long attempted, long failed,
                        const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) ||
        !seen.insert(m.name).second || !std::isfinite(m.value))
      throw std::invalid_argument("bad metric " + m.name + " [" + m.unit + "]");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const std::vector<double>& v) {
  add(static_cast<std::int64_t>(v.size()));
  bytes(v.data(), v.size() * sizeof(double));
}

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace s2a::perfbench
