// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// A span brackets one call into a library layer: its name is the layer
// metric it feeds ("cluster.elink", "serve.publish", ...), its parent is the
// span that was open on the same thread when it began, and `op` groups the
// spans of one logical operation (a query, a publish, a read).  Spans are
// kept in memory and only serialized when the run ends, as Chrome
// trace_event JSON (the same container format bench/trace_run writes), so a
// traced run loads in chrome://tracing or Perfetto.
//
// Recording is off unless the log was constructed enabled; a disabled
// ScopedSpan costs one branch.  End-to-end metrics always come from runs
// with recording off.
#ifndef ELINK_PERFBENCH_SPANS_H_
#define ELINK_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // Index into the same log; -1 for a top-level span.
  uint64_t op = 0;  // Operation id shared by the spans of one operation.
};

/// \brief Span log of one thread.  Not thread-safe: give every thread its
/// own log and merge them when the run ends.
class SpanLog {
 public:
  SpanLog(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  bool enabled() const { return enabled_; }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  int Begin(const char* name, uint64_t op) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  /// Records an already-measured interval (used where the caller times the
  /// call itself, e.g. every served read).
  void Add(const char* name, int64_t start_ns, int64_t end_ns, uint64_t op) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
  }

 private:
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief RAII span; records nothing when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op = 0)
      : log_(log->enabled() ? log : nullptr),
        index_(log_ ? log_->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Per-name aggregate over every log: count, total and self time, and the
/// individual durations (for percentiles).
struct SpanStats {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

/// Self time of a span is its duration minus the time its direct children
/// cover (children of one parent never overlap: a thread runs one call at a
/// time).
inline std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_s[s.parent] += (s.end_ns - s.start_ns) * 1e-9;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = (spans[i].end_ns - spans[i].start_ns) * 1e-9;
      SpanStats& st = out[spans[i].name];
      ++st.count;
      st.total_s += dur;
      st.self_s += dur - child_s[i];
      st.durations_s.push_back(dur);
    }
  }
  return out;
}

/// Writes every span of `logs` as Chrome trace_event complete events ("X"),
/// one track per thread, timestamps relative to the earliest span.  At most
/// `max_per_name` spans of any one name are written (served reads number in
/// the millions); the aggregates above always use every span.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanLog*>& logs,
                             size_t max_per_name) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin_ns = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin_ns = std::min(origin_ns, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  std::map<std::string, size_t> written;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (written[s.name]++ >= max_per_name) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"parent\":%d}}",
                   first ? "" : ",\n", s.name, log->tid(),
                   (s.start_ns - origin_ns) * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.op), s.parent);
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

/// Nearest-rank percentile of an unsorted sample (copied, then partially
/// sorted); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

}  // namespace perfbench

#endif  // ELINK_PERFBENCH_SPANS_H_
