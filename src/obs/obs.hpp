// s2a::obs — umbrella header for the observability layer: metrics,
// profiling spans, exporters, and the instrumentation macros the rest of
// the library uses. See docs/OBSERVABILITY.md for the user guide.
//
// Switches, outermost first:
//  * Compile time — defining S2A_OBS_COMPILED_OUT turns every macro below
//    into nothing; the library contains zero instrumentation code.
//  * Run time — obs::set_enabled(true) (or S2A_OBS=1 / S2A_TRACE=<path>
//    via init_from_env()). While disabled (the default), each macro costs
//    one relaxed atomic load and a predictable branch — measured at well
//    under 1 ns (bench_perf_micro, BM_Obs* series).
//
// Macro names must be string literals: the trace buffer stores pointers,
// and the metric macros cache the registry lookup in a function-local
// static, so one call site is one instrument.
#pragma once

#include <string>

#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace s2a::obs {

/// Reads the environment switches:
///   S2A_OBS=1          enable metrics + tracing
///   S2A_TRACE=<path>   enable, and remember <path> for dump_trace()
/// Returns true when observability ended up enabled.
bool init_from_env();

/// Path captured from S2A_TRACE ("" when unset).
const std::string& trace_path();

/// Writes the Chrome trace to `path` if given, else to the S2A_TRACE
/// path, else does nothing. Returns true when a file was written.
bool dump_trace(const std::string& path = "");

/// Seconds between two trace_now_ns() stamps — for metering a region
/// into a histogram without a TraceScope.
inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(trace_now_ns() - start_ns) / 1e9;
}

}  // namespace s2a::obs

#define S2A_OBS_CONCAT_IMPL(a, b) a##b
#define S2A_OBS_CONCAT(a, b) S2A_OBS_CONCAT_IMPL(a, b)

#ifndef S2A_OBS_COMPILED_OUT

/// RAII span covering the rest of the enclosing block.
#define S2A_TRACE_SCOPE(name) \
  ::s2a::obs::TraceScope S2A_OBS_CONCAT(s2a_obs_scope_, __LINE__)(name)
#define S2A_TRACE_SCOPE_CAT(name, category)                            \
  ::s2a::obs::TraceScope S2A_OBS_CONCAT(s2a_obs_scope_, __LINE__)(name, \
                                                                  category)
/// Span that also carries the work it covers (`macs`, `bytes`) as trace
/// args. Both are evaluated even while tracing is off, so keep them to
/// cheap integer arithmetic.
#define S2A_TRACE_SCOPE_WORK(name, category, macs, bytes)              \
  ::s2a::obs::TraceScope S2A_OBS_CONCAT(s2a_obs_scope_, __LINE__)(     \
      name, category, macs, bytes)

/// Counter increment; `name` must be a string literal (one instrument
/// per call site, resolved once).
#define S2A_COUNTER_ADD(name, delta)                                   \
  do {                                                                 \
    if (::s2a::obs::enabled()) {                                       \
      static ::s2a::obs::Counter& s2a_obs_instrument =                 \
          ::s2a::obs::registry().counter(name);                        \
      s2a_obs_instrument.add(delta);                                   \
    }                                                                  \
  } while (0)

#define S2A_GAUGE_SET(name, value)                                     \
  do {                                                                 \
    if (::s2a::obs::enabled()) {                                       \
      static ::s2a::obs::Gauge& s2a_obs_instrument =                   \
          ::s2a::obs::registry().gauge(name);                          \
      s2a_obs_instrument.set(value);                                   \
    }                                                                  \
  } while (0)

#define S2A_HISTOGRAM_RECORD(name, value)                              \
  do {                                                                 \
    if (::s2a::obs::enabled()) {                                       \
      static ::s2a::obs::Histogram& s2a_obs_instrument =               \
          ::s2a::obs::registry().histogram(name);                      \
      s2a_obs_instrument.record(value);                                \
    }                                                                  \
  } while (0)

#else  // S2A_OBS_COMPILED_OUT

#define S2A_TRACE_SCOPE(name) \
  do {                        \
  } while (0)
#define S2A_TRACE_SCOPE_CAT(name, category) \
  do {                                      \
  } while (0)
#define S2A_TRACE_SCOPE_WORK(name, category, macs, bytes) \
  do {                                                    \
    (void)sizeof(macs);                                   \
    (void)sizeof(bytes);                                  \
  } while (0)
#define S2A_COUNTER_ADD(name, delta) \
  do {                               \
  } while (0)
#define S2A_GAUGE_SET(name, value) \
  do {                             \
  } while (0)
#define S2A_HISTOGRAM_RECORD(name, value) \
  do {                                    \
  } while (0)

#endif  // S2A_OBS_COMPILED_OUT
