#include "online/decision.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <ostream>
#include <type_traits>

namespace taskdrop {
namespace {

constexpr std::string_view kind_name(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::Assign: return "assign";
    case DecisionKind::Start: return "start";
    case DecisionKind::Downgrade: return "downgrade";
    case DecisionKind::DropProactive: return "drop_proactive";
    case DecisionKind::DropReactive: return "drop_reactive";
    case DecisionKind::ExpireUnmapped: return "expire_unmapped";
    case DecisionKind::FinishOnTime: return "finish_on_time";
    case DecisionKind::FinishLate: return "finish_late";
    case DecisionKind::LostToFailure: return "lost_to_failure";
    case DecisionKind::ShedOverload: return "shed_overload";
  }
  return "?";
}

// kMaxDecisionChars spells the widest record out; these keep it the widest.
constexpr bool kind_names_fit() {
  for (int k = 0; k <= static_cast<int>(DecisionKind::ShedOverload); ++k) {
    if (kind_name(static_cast<DecisionKind>(k)).size() >
        std::string_view("expire_unmapped").size()) {
      return false;
    }
  }
  return true;
}
static_assert(kind_names_fit());
static_assert(std::is_same_v<Tick, std::int64_t> &&
              std::is_same_v<TaskId, std::int64_t>);
static_assert(std::numeric_limits<MachineId>::max() == 2147483647);

char* put(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

}  // namespace

std::string_view to_string(DecisionKind kind) { return kind_name(kind); }

char* render_decision(char* buf, const Decision& decision) {
  char* const end = buf + kMaxDecisionChars;
  char* out = put(buf, "t=");
  out = std::to_chars(out, end, decision.time).ptr;
  out = put(out, " kind=");
  out = put(out, kind_name(decision.kind));
  out = put(out, " task=");
  out = std::to_chars(out, end, decision.task).ptr;
  if (decision.machine >= 0) {
    out = put(out, " machine=");
    out = std::to_chars(out, end, decision.machine).ptr;
  }
  return out;
}

std::ostream& operator<<(std::ostream& out, const Decision& decision) {
  char buf[kMaxDecisionChars];
  return out.write(buf, render_decision(buf, decision) - buf);
}

}  // namespace taskdrop
