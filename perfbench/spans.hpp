#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval of the traced run. `parent` indexes the span that
/// was open when this one began (-1 at the root); `owner` is the trial or
/// stream event the work belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long long owner = -1;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-name totals over a span set.
struct SpanTotals {
  long long calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// In-memory span recorder for one single-threaded traced run. Spans nest
/// by open order; nothing is written until the run ends.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index. A span
  /// opened without an owner inherits its parent's.
  int begin(const char* name, long long owner = -1);
  /// Closes span `index`, which must be the innermost open span.
  void end(int index);

  /// Adds a span with explicit times (tests build span trees this way).
  int add(const Span& span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the first `limit` spans as a Chrome trace-event JSON document
  /// (complete "X" events, microsecond timestamps), loadable in Perfetto.
  /// Spans are stored in open order, so a parent always precedes its
  /// children.
  void write_chrome_trace(std::ostream& out, std::size_t limit) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, long long owner = -1)
      : recorder_(recorder), index_(recorder.begin(name, owner)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are merged, children
/// running past the parent are clipped).
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Calls, total and self time per span name.
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

}  // namespace perfbench
