#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "util/time_types.hpp"

namespace taskdrop {

/// One streamed scheduling decision emitted by the OnlineScheduler. Every
/// observable state transition the decision kernels cause — an admission
/// (assignment), a proactive or reactive drop, an execution-start
/// recommendation, a downgrade, or a terminal completion/loss record —
/// becomes exactly one Decision, in mutation order. The engine-driven and
/// callback-driven paths emit bit-identical streams for the same inputs
/// (tests/online_replay_test.cpp locks this down).
enum class DecisionKind : std::uint8_t {
  /// The mapper moved the task from the batch queue to `machine`'s queue.
  Assign,
  /// The machine's queue head should begin executing now. Advisory: the
  /// environment confirms with OnlineScheduler::task_started, after which
  /// the task is modelled as running.
  Start,
  /// Approximate-computing extension: the task was switched to its
  /// degraded-quality variant.
  Downgrade,
  /// The dropping mechanism discarded the task from a machine queue.
  DropProactive,
  /// The task's deadline passed while it waited in a machine queue (or at
  /// the start gate); it can no longer finish in time.
  DropReactive,
  /// The task's deadline passed while it was still unmapped in the batch
  /// queue.
  ExpireUnmapped,
  /// The environment reported the task finished strictly before its
  /// deadline.
  FinishOnTime,
  /// The environment reported the task finished at/after its deadline.
  FinishLate,
  /// The task was executing when its machine went down.
  LostToFailure,
  /// Overload shedding (OnlineConfig::shed): the admission valve refused
  /// the arrival because the backlog watermark was crossed; the task never
  /// entered the batch queue.
  ShedOverload,
};

std::string_view to_string(DecisionKind kind);

/// True when the kind puts the task in a terminal state (the task will
/// never appear in a later decision).
constexpr bool is_terminal(DecisionKind kind) {
  return kind == DecisionKind::DropProactive ||
         kind == DecisionKind::DropReactive ||
         kind == DecisionKind::ExpireUnmapped ||
         kind == DecisionKind::FinishOnTime ||
         kind == DecisionKind::FinishLate ||
         kind == DecisionKind::LostToFailure ||
         kind == DecisionKind::ShedOverload;
}

struct Decision {
  DecisionKind kind = DecisionKind::Assign;
  /// Scheduler clock at emission.
  Tick time = 0;
  TaskId task = -1;
  /// Machine involved; -1 for ExpireUnmapped (the task never left the
  /// batch queue).
  MachineId machine = -1;

  bool operator==(const Decision&) const = default;
};

/// One-line textual rendering, the record format of `taskdrop_cli serve`:
///   `t=<time> kind=<kind> task=<id> machine=<id>`
/// (machine omitted when -1). Deterministic — the serve golden files
/// byte-diff against it.
std::ostream& operator<<(std::ostream& out, const Decision& decision);

}  // namespace taskdrop
