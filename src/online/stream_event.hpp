#pragma once

#include <string_view>
#include <vector>

#include "online/online_scheduler.hpp"
#include "util/time_types.hpp"

namespace taskdrop {

/// One line of the `taskdrop_cli serve` event stream:
///
///   arrive <t> <type> <deadline>   a task of PET type <type> arrives
///   finish <t> <machine>           the running task on <machine> completed
///   down <t> <machine>             <machine> failed
///   up <t> <machine>               <machine> recovered
///   advance <t>                    time passed with no event
struct StreamEvent {
  enum class Kind { Arrive, Finish, Down, Up, Advance };
  Kind kind = Kind::Advance;
  Tick t = 0;
  int a = 0;        ///< type (arrive) or machine (finish/down/up)
  long long b = 0;  ///< deadline (arrive only)

  bool operator==(const StreamEvent&) const = default;
};

/// True for the lines the stream skips: empty, only spaces, tabs and
/// carriage returns, or a `#` comment after them.
bool is_blank_or_comment(std::string_view line);

/// Parses one stream line that is not blank or a comment, reading it as an
/// `std::istringstream` in the classic locale would: tokens are separated
/// by any of ` \t\n\v\f\r`, and an operand is one optional `+` or `-` and
/// the decimal digits up to the first non-digit, so `arrive 5-3 1` is t=5
/// with type -3 and `advance 1e3` leaves the trailing token `e3`. An
/// operand that overflows 64 bits fails like a missing one. Throws
/// std::invalid_argument naming the token that failed; the caller prefixes
/// the line number. An accepted line allocates nothing.
StreamEvent parse_stream_event(std::string_view line);

/// One step of `taskdrop_cli serve`: feeds `event` to its scheduler
/// callback, confirms every Start it returned at the event's time (live
/// mode), and returns its decisions, valid until the next callback that
/// returns decisions. A rejected event throws std::invalid_argument.
const std::vector<Decision>& apply_stream_event(OnlineScheduler& scheduler,
                                                const StreamEvent& event);

}  // namespace taskdrop
