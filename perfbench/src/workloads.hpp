// The benchmark's three workloads.  Each one sets itself up several times
// (reporting the median set-up time), then runs passes until its time is
// spent, checking every result with the oracle (oracle.hpp).
//
// A run with tracing on alternates traced and untraced passes, so the ratio
// of their medians is the tracing overhead; per-layer figures come from the
// traced passes and from replays of the same calls made after the timed
// loop.  See README.md for what every metric measures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Input size factor; 1 is the benchmark's sizing, the self-test shrinks it.
  double scale = 1.0;
  /// Directory for per-run scratch (the served workload's socket directory).
  std::string work_dir = ".";
  /// Where a traced run writes its Chrome trace ("" = nowhere).
  std::string trace_path;
  /// Host, build and input provenance, a JSON object stored in the trace.
  std::string provenance_json = "{}";
};

struct Value {
  double value = 0;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;      ///< the first few oracle messages
  std::map<std::string, Value> metrics;  ///< everything measured, by name
  std::vector<std::string> lines;        ///< human-readable report lines
  std::vector<std::string> sizes;        ///< "name n=.. m=.." per input graph

  /// Counts one checked result; a non-empty `err` marks it failed.
  void check(const std::string& err);
  void set(const std::string& name, double value, const std::string& unit);
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

Result run_offline_suite(const Options& opt);
Result run_pooled_3d(const Options& opt);
Result run_served_mix(const Options& opt);

}  // namespace perfbench
