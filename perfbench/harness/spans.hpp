// In-memory spans recorded from the benchmark's own files around calls
// into the library's public functions (the library itself is not
// instrumented for this). A span has a name, start, end, parent and the
// id of the tick or round it belongs to. One SpanLog per thread of
// control — a loop, or a fleet member, which one worker owns at a time —
// so recording never takes a lock. Logs are written out once, as one
// Chrome-trace file, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace s2a::perfbench {

/// Microseconds on the steady clock since the first call.
double now_us();

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into the same log, -1 for a root
  std::int64_t unit = 0;
};

class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  /// Sets the tick/round id the next spans belong to.
  void set_unit(std::int64_t unit) { unit_ = unit; }
  /// Drops every recorded span (between units, when none is open).
  void clear() { spans_.clear(); }
  int begin(const char* name);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  int tid_;
  std::int64_t unit_ = 0;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Self time (ms) per span name, summed within each unit: for every
/// name, one entry per unit in which it occurred, in unit order.
std::map<std::string, std::vector<double>> self_ms_by_unit(const SpanLog& log);

/// Writes every log as complete ("X") events of one Chrome trace, with
/// `metadata` (a JSON object) under "otherData". Returns false on I/O
/// failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        const std::string& metadata);

}  // namespace s2a::perfbench
