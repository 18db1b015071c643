// perfbench: the repo's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload tick|fed_round --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// Prints notes (run environment, sample counts, output digests), then
// as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when a check failed, 2 on bad usage or an error
// (without printing a result).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tick|fed_round "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

bool parse_long(const char* s, long lo, long hi, long& out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  s2a::perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long v = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_long(value, 0, 1L << 62, v)) return usage("bad --seed");
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--seconds") {
      if (!parse_long(value, 1, 600, v)) return usage("bad --seconds");
      opt.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (!parse_long(value, 0, 1, v)) return usage("bad --trace");
      opt.trace = v == 1;
    } else if (flag == "--trace-out") {
      opt.trace_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  try {
    const s2a::perfbench::RunResult res = s2a::perfbench::run(opt);
    const std::string line =
        s2a::perfbench::result_json(res.checks.attempted, res.checks.failed, res.metrics);
    for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
    std::printf("%s\n", line.c_str());
    return res.checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
