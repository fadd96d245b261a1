#include "online/stream_event.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>

namespace taskdrop {
namespace {

/// The classic locale's whitespace: what `std::istream >>` skips.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// A cursor over one line that reads tokens the way `operator>>` does.
class Scanner {
 public:
  explicit Scanner(std::string_view line)
      : pos_(line.data()), end_(line.data() + line.size()) {}

  /// `in >> std::string`: the next run of non-space characters, empty at
  /// the end of the line.
  std::string_view word() {
    skip_space();
    const char* begin = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    return {begin, static_cast<std::size_t>(pos_ - begin)};
  }

  /// `in >> long long`: false when no digit follows the optional sign or
  /// the value does not fit. The cursor stops at the first non-digit.
  bool integer(long long& value) {
    skip_space();
    const char* digits = pos_;
    if (digits != end_ && (*digits == '+' || *digits == '-')) ++digits;
    if (digits == end_ || !is_digit(*digits)) return false;
    // from_chars takes a leading '-' but not a '+'.
    const auto [stop, error] =
        std::from_chars(*pos_ == '-' ? pos_ : digits, end_, value);
    pos_ = stop;
    return error == std::errc();
  }

 private:
  void skip_space() {
    while (pos_ != end_ && is_space(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
};

}  // namespace

bool is_blank_or_comment(std::string_view line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first == std::string_view::npos || line[first] == '#';
}

StreamEvent parse_stream_event(std::string_view line) {
  Scanner in(line);
  const std::string_view op = in.word();
  StreamEvent event;
  int operands = 0;
  if (op == "arrive") {
    event.kind = StreamEvent::Kind::Arrive;
    operands = 3;
  } else if (op == "finish") {
    event.kind = StreamEvent::Kind::Finish;
    operands = 2;
  } else if (op == "down") {
    event.kind = StreamEvent::Kind::Down;
    operands = 2;
  } else if (op == "up") {
    event.kind = StreamEvent::Kind::Up;
    operands = 2;
  } else if (op == "advance") {
    event.kind = StreamEvent::Kind::Advance;
    operands = 1;
  } else {
    throw std::invalid_argument(
        "unknown event '" + std::string(op) +
        "' (available: arrive, finish, down, up, advance)");
  }
  long long fields[3] = {0, 0, 0};
  for (int i = 0; i < operands; ++i) {
    if (!in.integer(fields[i])) {
      throw std::invalid_argument("event '" + std::string(op) + "' needs " +
                                  std::to_string(operands) +
                                  " integer operand(s)");
    }
  }
  const std::string_view trailing = in.word();
  if (!trailing.empty()) {
    throw std::invalid_argument("trailing token '" + std::string(trailing) +
                                "' after event '" + std::string(op) + "'");
  }
  if (fields[1] < std::numeric_limits<int>::min() ||
      fields[1] > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("operand " + std::to_string(fields[1]) +
                                " of event '" + std::string(op) +
                                "' out of range");
  }
  event.t = fields[0];
  event.a = static_cast<int>(fields[1]);
  event.b = fields[2];
  return event;
}

}  // namespace taskdrop
