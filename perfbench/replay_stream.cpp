#include "replay_stream.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "spans.hpp"

namespace perfbench {

using taskdrop::Decision;
using taskdrop::DecisionKind;
using taskdrop::MachineId;
using taskdrop::OnlineScheduler;
using taskdrop::ReplayEvent;
using taskdrop::ReplayLog;
using taskdrop::TaskTypeId;

std::vector<StreamEvent> to_stream_events(const ReplayLog& log) {
  std::vector<StreamEvent> events;
  events.reserve(log.events.size());
  for (const ReplayEvent& e : log.events) {
    StreamEvent out;
    out.t = e.time;
    out.a = e.machine;
    switch (e.kind) {
      case ReplayEvent::Kind::Arrive: {
        const auto& spec = log.tasks.at(static_cast<std::size_t>(e.task));
        out.kind = StreamEvent::Kind::Arrive;
        out.a = spec.type;
        out.deadline = spec.deadline;
        break;
      }
      case ReplayEvent::Kind::Start: continue;
      case ReplayEvent::Kind::Finish: out.kind = StreamEvent::Kind::Finish; break;
      case ReplayEvent::Kind::Down: out.kind = StreamEvent::Kind::Down; break;
      case ReplayEvent::Kind::Up: out.kind = StreamEvent::Kind::Up; break;
      case ReplayEvent::Kind::Advance: out.kind = StreamEvent::Kind::Advance; break;
    }
    events.push_back(out);
  }
  return events;
}

std::string render_stream(const std::vector<StreamEvent>& events) {
  std::ostringstream out;
  for (const StreamEvent& e : events) {
    switch (e.kind) {
      case StreamEvent::Kind::Arrive:
        out << "arrive " << e.t << ' ' << e.a << ' ' << e.deadline << '\n';
        break;
      case StreamEvent::Kind::Finish:
        out << "finish " << e.t << ' ' << e.a << '\n';
        break;
      case StreamEvent::Kind::Down:
        out << "down " << e.t << ' ' << e.a << '\n';
        break;
      case StreamEvent::Kind::Up:
        out << "up " << e.t << ' ' << e.a << '\n';
        break;
      case StreamEvent::Kind::Advance:
        out << "advance " << e.t << '\n';
        break;
    }
  }
  return out.str();
}

std::string render_decisions(const std::vector<Decision>& decisions) {
  std::ostringstream out;
  for (const Decision& d : decisions) out << d << '\n';
  return out.str();
}

namespace {

const char* span_name(StreamEvent::Kind kind) {
  switch (kind) {
    case StreamEvent::Kind::Arrive: return "online.task_arrived";
    case StreamEvent::Kind::Finish: return "online.task_finished";
    case StreamEvent::Kind::Down: return "online.machine_down";
    case StreamEvent::Kind::Up: return "online.machine_up";
    case StreamEvent::Kind::Advance: return "online.advance";
  }
  return "online.?";
}

const std::vector<Decision>& dispatch(OnlineScheduler& scheduler,
                                      const StreamEvent& e) {
  const auto machine = static_cast<MachineId>(e.a);
  switch (e.kind) {
    case StreamEvent::Kind::Arrive:
      return scheduler.task_arrived(e.t, static_cast<TaskTypeId>(e.a),
                                    e.deadline);
    case StreamEvent::Kind::Finish: return scheduler.task_finished(e.t, machine);
    case StreamEvent::Kind::Down: return scheduler.machine_down(e.t, machine);
    case StreamEvent::Kind::Up: return scheduler.machine_up(e.t, machine);
    case StreamEvent::Kind::Advance: return scheduler.advance(e.t);
  }
  throw std::logic_error("serve_replay: unknown event kind");
}

}  // namespace

ReplayedStream serve_replay(OnlineScheduler& scheduler,
                            const std::vector<StreamEvent>& events,
                            std::vector<double>* latency_ns,
                            SpanRecorder* spans, long long first_owner) {
  if (scheduler.task_count() != 0) {
    throw std::invalid_argument(
        "serve_replay: scheduler must be freshly constructed");
  }
  using Clock = std::chrono::steady_clock;
  ReplayedStream out;
  // Sized up front: regrowing a multi-megabyte vector between timed events
  // would evict the scheduler's working set and slow the next event.
  out.decisions.reserve(2 * events.size());
  out.offsets.reserve(events.size() + 1);
  out.offsets.push_back(0);
  if (latency_ns != nullptr) latency_ns->reserve(latency_ns->size() + events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const StreamEvent& e = events[i];
    const int span =
        spans ? spans->begin(span_name(e.kind),
                             first_owner + static_cast<long long>(i))
              : -1;
    const Clock::time_point begin = Clock::now();
    const std::vector<Decision>& batch = dispatch(scheduler, e);
    for (const Decision& d : batch) {
      if (d.kind == DecisionKind::Start) {
        scheduler.task_started(e.t, d.machine, d.task);
      }
    }
    const Clock::time_point end = Clock::now();
    if (spans) spans->end(span);
    if (latency_ns != nullptr) {
      latency_ns->push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
              .count()));
    }
    out.decisions.insert(out.decisions.end(), batch.begin(), batch.end());
    out.offsets.push_back(out.decisions.size());
  }
  return out;
}

long long mismatched_events(const ReplayedStream& got,
                            const std::vector<Decision>& oracle) {
  long long failed = 0;
  for (std::size_t i = 0; i + 1 < got.offsets.size(); ++i) {
    for (std::size_t k = got.offsets[i]; k < got.offsets[i + 1]; ++k) {
      if (k >= oracle.size() || got.decisions[k] != oracle[k]) {
        ++failed;
        break;
      }
    }
  }
  if (oracle.size() > got.decisions.size()) ++failed;
  return failed;
}

long long mismatched_log_events(const std::string& log,
                                const ReplayedStream& expected) {
  std::vector<std::string_view> lines;
  std::size_t from = 0;
  while (from < log.size()) {
    std::size_t to = log.find('\n', from);
    if (to == std::string::npos) to = log.size();
    lines.push_back(std::string_view(log).substr(from, to - from));
    from = to + 1;
  }
  // An unterminated last record is not a complete record.
  const bool torn = !log.empty() && log.back() != '\n';
  long long failed = 0;
  std::ostringstream record;
  for (std::size_t i = 0; i + 1 < expected.offsets.size(); ++i) {
    for (std::size_t k = expected.offsets[i]; k < expected.offsets[i + 1]; ++k) {
      record.str("");
      record << expected.decisions[k];
      const bool last = k + 1 == lines.size();
      if (k >= lines.size() || lines[k] != record.str() || (last && torn)) {
        ++failed;
        break;
      }
    }
  }
  if (lines.size() > expected.decisions.size()) ++failed;
  return failed;
}

}  // namespace perfbench
