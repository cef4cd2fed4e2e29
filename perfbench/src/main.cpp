// perfbench: runs one workload of the repository benchmark and prints every
// metric by name and unit, then one JSON result as the last line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 (the
// perfbench_traced binary) the per-layer ones.  Exits 1 when any result
// fails the oracle, 2 on bad arguments.  perfbench/run.py builds and calls
// this; see README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test compares them).
const MetricDecl kEndToEnd[] = {
    {"partition_s", "s"},      {"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"edge_cut", "weight"},    {"imbalance", "ratio"},
    {"peak_rss_mb", "MB"},     {"setup_s", "s"},
};

const MetricDecl kPerLayer[] = {
    {"coarsen.ctime_s", "s"},
    {"coarsen.match_s", "s"},
    {"coarsen.contract_s", "s"},
    {"coarsen.levels", "count"},
    {"coarsen.match_ratio", "ratio"},
    {"coarsen.self_s", "s"},
    {"initpart.itime_s", "s"},
    {"initpart.self_s", "s"},
    {"refine.rtime_s", "s"},
    {"refine.swap_ratio", "ratio"},
    {"refine.self_s", "s"},
    {"core.ptime_s", "s"},
    {"core.other_s", "s"},
    {"core.allocs", "count"},
    {"core.direct_ms", "ms"},
    {"core.cold_p50_ms", "ms"},
    {"core.direct_p50_ms", "ms"},
    {"core.speedup_vs_seq", "ratio"},
    {"core.self_s", "s"},
    {"server.decode_ms", "ms"},
    {"server.encode_ms", "ms"},
    {"server.fingerprint_ms", "ms"},
    {"server.wait_ms", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.queue_depth_peak", "count"},
    {"server.rejected", "count"},
    {"server.hit_p50_ms", "ms"},
    {"server.self_s", "s"},
    {"dynamic.patch_ms", "ms"},
    {"dynamic.repartition_ms", "ms"},
    {"dynamic.warm_ratio", "ratio"},
    {"dynamic.refine_rounds", "count"},
    {"dynamic.delta_p50_ms", "ms"},
    {"dynamic.self_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload offline_suite|pooled_3d|served_mix --seed N\n"
               "                 --seconds S --trace 0|1 [--scale F] [--work-dir DIR]\n"
               "                 [--trace-out FILE] [--commit SHA]\n",
               msg);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--scale") {
      opt.scale = std::atof(v);
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--trace-out") {
      opt.trace_path = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds) {
    return usage("--seed and a positive --seconds are required");
  }
  if (trace != PERFBENCH_TRACED) {
    return usage(PERFBENCH_TRACED ? "this binary runs --trace 1 only"
                                  : "this binary runs --trace 0 only");
  }
  if (!(opt.scale > 0)) return usage("--scale must be positive");
  opt.trace = trace == 1;

  perfbench::Result (*run)(const perfbench::Options&) = nullptr;
  if (opt.workload == "offline_suite") run = perfbench::run_offline_suite;
  if (opt.workload == "pooled_3d") run = perfbench::run_pooled_3d;
  if (opt.workload == "served_mix") run = perfbench::run_served_mix;
  if (run == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

  char prov[1024];
  std::snprintf(prov, sizeof(prov),
                "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"scale\":%g,"
                "\"host_cores\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
                "\"commit\":\"%s\"}",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), trace,
                opt.scale, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                json_escape(std::string("g++ ") + __VERSION__).c_str(),
                json_escape(commit).c_str());
  opt.provenance_json = prov;

  perfbench::Result res;
  try {
    res = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  res.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");

  std::printf("perfbench %s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), trace);
  std::printf("provenance %s\n", prov);
  for (const std::string& s : res.sizes) std::printf("input %s\n", s.c_str());
  for (const std::string& l : res.lines) std::printf("%s\n", l.c_str());
  for (const std::string& e : res.errors) std::printf("ORACLE FAILURE: %s\n", e.c_str());
  const double fail_ratio = res.attempted > 0 ? static_cast<double>(res.failed) /
                                                    static_cast<double>(res.attempted)
                                              : 1.0;
  std::printf("fail_ratio = %.6f ratio (%lld of %lld results)\n", fail_ratio,
              static_cast<long long>(res.failed), static_cast<long long>(res.attempted));

  std::string json = "{";
  bool complete = true;
  const auto emit = [&](const MetricDecl& d, bool required) {
    auto it = res.metrics.find(d.name);
    double value = 0;
    if (it != res.metrics.end()) {
      value = it->second.value;
    } else if (required) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", opt.workload.c_str(),
                   d.name);
      complete = false;
    }
    std::printf("%s = %.10g %s\n", d.name, value, d.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", d.name, value, d.unit);
    json += buf;
  };
  if (opt.trace) {
    for (const MetricDecl& d : kPerLayer) emit(d, false);
  } else {
    for (const MetricDecl& d : kEndToEnd) emit(d, true);
  }
  json += "}";
  if (!complete) return 1;
  const bool correct = res.failed == 0 && res.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), json.c_str());
  return correct ? 0 : 1;
}
