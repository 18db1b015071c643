#include "spans.hpp"

#include <fstream>

#include "stats.hpp"

namespace s2a::perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.unit = unit_;
  s.start_us = now_us();
  spans_.push_back(s);
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanLog::end(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = now_us();
  open_ = s.parent;
}

std::map<std::string, std::vector<double>> self_ms_by_unit(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].push_back({s.start_us, s.end_us});

  std::map<std::string, std::vector<double>> out;
  std::map<std::string, std::int64_t> last_unit;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = self_time({s.start_us, s.end_us}, children[i]) / 1000.0;
    std::vector<double>& v = out[s.name];
    auto [it, fresh] = last_unit.try_emplace(s.name, s.unit);
    if (fresh || it->second != s.unit) {
      v.push_back(ms);
      it->second = s.unit;
    } else {
      v.back() += ms;
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        const std::string& metadata) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"otherData\": " << metadata << ",\n\"traceEvents\": [\n";
  bool first = true;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (const Span& s : spans) {
      out << (first ? "" : ",\n") << "{\"ph\": \"X\", \"pid\": 1, \"tid\": "
          << log->tid() << ", \"name\": \"" << s.name << "\", \"ts\": "
          << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
          << ", \"args\": {\"unit\": " << s.unit << ", \"parent\": \""
          << (s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "")
          << "\"}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace s2a::perfbench
