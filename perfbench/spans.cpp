#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ios>
#include <ostream>
#include <utility>

namespace perfbench {

int SpanRecorder::begin(const char* name, long long owner) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.owner = owner >= 0 || span.parent < 0
                   ? owner
                   : spans_[static_cast<std::size_t>(span.parent)].owner;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  return index;
}

void SpanRecorder::end(int index) {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  if (open_.empty() || open_.back() != index) {
    // Called from ScopedSpan's destructor, so this cannot throw.
    std::fputs("SpanRecorder::end: span is not the innermost open one\n",
               stderr);
    std::abort();
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

int SpanRecorder::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::write_chrome_trace(std::ostream& out,
                                      std::size_t limit) const {
  const std::ios_base::fmtflags flags = out.flags();
  const std::streamsize precision = out.precision(3);
  out << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size() && i < limit; ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ',';
    out << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.duration_ns()) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"owner\":" << s.owner << "}}";
  }
  out << "\n]}\n";
  out.flags(flags);
  out.precision(precision);
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [kid_start, kid_end] : kids) {
      const std::int64_t from = std::max(kid_start, cursor);
      const std::int64_t to = std::min(kid_end, s.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = static_cast<double>(s.duration_ns() - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.calls;
    t.total_ns += static_cast<double>(spans[i].duration_ns());
    t.self_ns += self[i];
  }
  return totals;
}

}  // namespace perfbench
