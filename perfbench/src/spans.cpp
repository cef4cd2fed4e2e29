#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kAnchor = std::chrono::steady_clock::now();

std::string layer_of(std::string_view name) {
  const std::size_t dot = name.find('.');
  return std::string(dot == std::string_view::npos ? name : name.substr(0, dot));
}

double phase_sum(const SpanRecord& s) {
  double t = 0;
  for (double p : s.phase_s) t += p;
  return t;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kAnchor)
      .count();
}

int SpanLog::begin(const char* name, std::int64_t request, int parent) {
  if (!on) return -1;
  SpanRecord r;
  r.name = name;
  r.start_ns = r.end_ns = now_ns();
  r.id = static_cast<int>(spans_.size());
  r.parent = parent;
  r.request = request;
  spans_.push_back(r);
  return r.id;
}

void SpanLog::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanLog::set_phases(int id, const mgp::PhaseTimers& pt) {
  if (id < 0) return;
  SpanRecord& r = spans_[static_cast<std::size_t>(id)];
  r.has_phases = true;
  for (int p = 0; p < mgp::PhaseTimers::kNumPhases; ++p) {
    r.phase_s[p] = pt.get(static_cast<mgp::PhaseTimers::Phase>(p));
  }
}

std::map<std::string, double> layer_self_seconds(const std::vector<const SpanLog*>& logs,
                                                 const std::string& root_name) {
  static const char* const kPhaseLayer[mgp::PhaseTimers::kNumPhases] = {
      "coarsen", "initpart", "refine", "core"};
  std::map<std::string, double> out;
  for (const SpanLog* log : logs) {
    const std::vector<SpanRecord>& spans = log->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    std::vector<int> root(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      // A parent is always recorded before its children.
      root[static_cast<std::size_t>(s.id)] =
          s.parent < 0 ? s.id : root[static_cast<std::size_t>(s.parent)];
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += (s.end_ns - s.start_ns) * 1e-9;
      }
    }
    for (const SpanRecord& s : spans) {
      const int r = root[static_cast<std::size_t>(s.id)];
      if (root_name != spans[static_cast<std::size_t>(r)].name) continue;
      const double dur = (s.end_ns - s.start_ns) * 1e-9;
      double self = std::max(0.0, dur - child_s[static_cast<std::size_t>(s.id)]);
      if (s.has_phases) {
        // Pooled calls report CPU-seconds summed over workers; scale them
        // into the span's own wall time so shares stay comparable.
        const double total = phase_sum(s);
        const double scale = total > self && total > 0 ? self / total : 1.0;
        for (int p = 0; p < mgp::PhaseTimers::kNumPhases; ++p) {
          out[kPhaseLayer[p]] += s.phase_s[p] * scale;
        }
        self -= total * scale;
      }
      out[layer_of(s.name)] += self;
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        const std::string& metadata_json) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
     << ",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanLog* log : logs) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"name\":\"perfbench-%d\"}}",
                  first ? "" : ",\n", log->tid(), log->tid());
    os << buf;
    first = false;
    for (const SpanRecord& s : log->spans()) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld,"
                    "\"span\":%d,\"parent\":%d",
                    s.name, layer_of(s.name).c_str(), log->tid(), s.start_ns * 1e-3,
                    (s.end_ns - s.start_ns) * 1e-3, static_cast<long long>(s.request),
                    s.id, s.parent);
      os << buf;
      if (s.has_phases) {
        std::snprintf(buf, sizeof(buf),
                      ",\"ctime_s\":%.6f,\"itime_s\":%.6f,\"rtime_s\":%.6f,"
                      "\"ptime_s\":%.6f",
                      s.phase_s[0], s.phase_s[1], s.phase_s[2], s.phase_s[3]);
        os << buf;
      }
      os << "}}";
    }
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
