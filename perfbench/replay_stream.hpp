#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "online/decision.hpp"
#include "online/online_scheduler.hpp"
#include "online/replay.hpp"

namespace perfbench {

class SpanRecorder;

/// One line of the `taskdrop_cli serve` stream protocol.
struct StreamEvent {
  enum class Kind : std::uint8_t { Arrive, Finish, Down, Up, Advance };

  Kind kind = Kind::Advance;
  taskdrop::Tick t = 0;
  /// Task type (arrive) or machine (finish, down, up).
  long long a = 0;
  /// Absolute deadline (arrive only).
  taskdrop::Tick deadline = 0;
};

/// Converts a recorded engine trial into serve-protocol events. Arrivals
/// carry the task's type and deadline from the log's task table. Start
/// records are left out: a serve daemon confirms its own starts.
std::vector<StreamEvent> to_stream_events(const taskdrop::ReplayLog& log);

/// Renders events as serve stream lines (`arrive <t> <type> <deadline>`,
/// `finish <t> <machine>`, `down`/`up <t> <machine>`, `advance <t>`).
std::string render_stream(const std::vector<StreamEvent>& events);

/// Renders decisions the way serve's `--out` log does: one `operator<<`
/// record per line.
std::string render_decisions(const std::vector<taskdrop::Decision>& decisions);

/// The decisions a stream produced, with event i's decisions at
/// [offsets[i], offsets[i + 1]).
struct ReplayedStream {
  std::vector<taskdrop::Decision> decisions;
  std::vector<std::size_t> offsets;
};

/// Drives a freshly constructed scheduler through `events` with serve
/// semantics: arrivals register through task_arrived(t, type, deadline)
/// and every Start decision is confirmed at once with no duration.
///
/// With `latency_ns`, one wall-clock sample per event is appended, covering
/// the callback plus its start confirmations (the interval serve's own
/// kernel timer covers). With `spans`, event i runs inside an
/// `online.<callback>` span owned by `first_owner + i`.
ReplayedStream serve_replay(taskdrop::OnlineScheduler& scheduler,
                            const std::vector<StreamEvent>& events,
                            std::vector<double>* latency_ns = nullptr,
                            SpanRecorder* spans = nullptr,
                            long long first_owner = 0);

/// Events of `got` whose decisions differ from `oracle` at the same stream
/// positions. Decisions `oracle` has past the end of `got` count as one
/// more failed event.
long long mismatched_events(const ReplayedStream& got,
                            const std::vector<taskdrop::Decision>& oracle);

/// Events whose lines in a serve `--out` log differ from the expected
/// rendering of `expected`'s decisions. Lines past the expected end count
/// as one more failed event.
long long mismatched_log_events(const std::string& log,
                                const ReplayedStream& expected);

}  // namespace perfbench
