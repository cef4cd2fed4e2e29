// In-memory spans recorded by the benchmark around its own calls into the
// library's layers, dumped once a run ends as Chrome trace-event JSON (the
// format src/obs emits, so Perfetto opens both).
//
// A span has a name "<layer>.<call>", a start, an end, a parent span and a
// request id shared by every span of one request.  A parent is either the
// span that encloses it in time, or, for replays of server-side work, the
// client-side request span it explains; in both cases the child's duration
// is subtracted from the parent's self time.  Spans that ran a multilevel
// partition carry its PhaseTimers, so a layer's self time can be split into
// the paper's phases (CTime to coarsen, ITime to initpart, RTime to refine,
// PTime and the remainder to core).
//
// One SpanLog per thread: the served workload gives each client its own.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/timer.hpp"

namespace perfbench {

/// Nanoseconds since a process-wide steady-clock anchor.
std::int64_t now_ns();

struct SpanRecord {
  const char* name = "";  ///< static string "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;        ///< index in the same log, or -1
  std::int64_t request = -1;
  bool has_phases = false;
  double phase_s[mgp::PhaseTimers::kNumPhases] = {0, 0, 0, 0};
};

class SpanLog {
 public:
  explicit SpanLog(int tid = 1) : tid_(tid) {}

  /// Recording switch; begin() returns -1 and end() ignores it while off.
  bool on = false;

  int begin(const char* name, std::int64_t request, int parent = -1);
  void end(int id);
  void set_phases(int id, const mgp::PhaseTimers& pt);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  int tid_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `log` is null or off.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::int64_t request, int parent = -1)
      : log_(log), id_(log != nullptr ? log->begin(name, request, parent) : -1) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }
  void close() {
    if (id_ >= 0) log_->end(id_);
    id_ = -1;
  }
  void phases(const mgp::PhaseTimers& pt) {
    if (id_ >= 0) log_->set_phases(id_, pt);
  }

 private:
  SpanLog* log_;
  int id_;
};

/// Self time per layer, in seconds, summed over the span trees whose root
/// is named `root_name`; other roots (standalone replays) are left out.
std::map<std::string, double> layer_self_seconds(const std::vector<const SpanLog*>& logs,
                                                 const std::string& root_name);

/// Writes every span as Chrome trace-event JSON.  False on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        const std::string& metadata_json);

}  // namespace perfbench
