// Differential tests for serve's stream codec. parse_stream_event and
// render_decision replaced an `std::istringstream` parser and an `ostream
// <<` chain; both originals are kept here as references, and every line or
// decision must give the same event, the same error message or the same
// bytes as they do.
#include "online/stream_event.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "online/decision.hpp"

namespace taskdrop {
namespace {

/// The parser serve used before parse_stream_event, verbatim.
StreamEvent reference_parse(const std::string& line) {
  std::istringstream in(line);
  std::string op;
  in >> op;
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
        "unknown event '" + op +
        "' (available: arrive, finish, down, up, advance)");
  }
  long long fields[3] = {0, 0, 0};
  for (int i = 0; i < operands; ++i) {
    if (!(in >> fields[i])) {
      throw std::invalid_argument("event '" + op + "' needs " +
                                  std::to_string(operands) +
                                  " integer operand(s)");
    }
  }
  std::string trailing;
  if (in >> trailing) {
    throw std::invalid_argument("trailing token '" + trailing +
                                "' after event '" + op + "'");
  }
  if (fields[1] < std::numeric_limits<int>::min() ||
      fields[1] > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("operand " + std::to_string(fields[1]) +
                                " of event '" + op + "' out of range");
  }
  event.t = fields[0];
  event.a = static_cast<int>(fields[1]);
  event.b = fields[2];
  return event;
}

/// The record chain serve wrote before render_decision, verbatim.
std::string reference_render(const Decision& decision) {
  std::ostringstream out;
  out << "t=" << decision.time << " kind=" << to_string(decision.kind)
      << " task=" << decision.task;
  if (decision.machine >= 0) out << " machine=" << decision.machine;
  return out.str();
}

/// "ok <kind> <t> <a> <b>" or "error: <message>".
template <typename Parse>
std::string outcome(Parse parse, const std::string& line) {
  try {
    const StreamEvent event = parse(line);
    return "ok " + std::to_string(static_cast<int>(event.kind)) + " " +
           std::to_string(event.t) + " " + std::to_string(event.a) + " " +
           std::to_string(event.b);
  } catch (const std::invalid_argument& error) {
    return std::string("error: ") + error.what();
  }
}

std::string parsed(const std::string& line) {
  return outcome([](const std::string& l) { return parse_stream_event(l); },
                 line);
}

std::string expected(const std::string& line) {
  return outcome(reference_parse, line);
}

std::string rendered(const Decision& decision) {
  char buf[kMaxDecisionChars];
  return std::string(buf, render_decision(buf, decision));
}

TEST(StreamEvent, ParsesEveryKind) {
  EXPECT_EQ(parse_stream_event("arrive 10 3 250"),
            (StreamEvent{StreamEvent::Kind::Arrive, 10, 3, 250}));
  EXPECT_EQ(parse_stream_event("finish 11 7"),
            (StreamEvent{StreamEvent::Kind::Finish, 11, 7, 0}));
  EXPECT_EQ(parse_stream_event("down 12 0"),
            (StreamEvent{StreamEvent::Kind::Down, 12, 0, 0}));
  EXPECT_EQ(parse_stream_event("up 13 1"),
            (StreamEvent{StreamEvent::Kind::Up, 13, 1, 0}));
  EXPECT_EQ(parse_stream_event("advance 14"),
            (StreamEvent{StreamEvent::Kind::Advance, 14, 0, 0}));
}

TEST(StreamEvent, ReadsOperandsAsStreamExtractionDoes) {
  // A number ends at its first non-digit.
  EXPECT_EQ(parsed("arrive 5-3 1"), "ok 0 5 -3 1");
  EXPECT_EQ(parsed("advance 1e3"),
            "error: trailing token 'e3' after event 'advance'");
  EXPECT_EQ(parsed("down 0x10 1"),
            "error: event 'down' needs 2 integer operand(s)");
  EXPECT_EQ(parsed("advance 12abc"),
            "error: trailing token 'abc' after event 'advance'");
  // One optional sign.
  EXPECT_EQ(parsed("up +5 -0"), "ok 3 5 0 0");
  EXPECT_EQ(parsed("up +-5 1"), "error: event 'up' needs 2 integer operand(s)");
  // Every classic-locale space separates tokens.
  EXPECT_EQ(parsed("\varrive\f1\t2\r3\n"), "ok 0 1 2 3");
  // 64-bit limits, and one past them.
  EXPECT_EQ(parsed("advance -9223372036854775808"),
            "ok 4 -9223372036854775808 0 0");
  EXPECT_EQ(parsed("advance 9223372036854775807"),
            "ok 4 9223372036854775807 0 0");
  EXPECT_EQ(parsed("advance 9223372036854775808"),
            "error: event 'advance' needs 1 integer operand(s)");
  EXPECT_EQ(parsed("finish 1 2147483648"),
            "error: operand 2147483648 of event 'finish' out of range");
  EXPECT_EQ(parsed(""),
            "error: unknown event '' (available: arrive, finish, down, up, "
            "advance)");
}

TEST(StreamEvent, BlankAndCommentLinesAreSkipped) {
  for (const char* line : {"", "   ", "\t\r", "# note", " \t# note"}) {
    EXPECT_TRUE(is_blank_or_comment(line)) << '"' << line << '"';
  }
  for (const char* line : {"\v", "\f# note", "advance 1", "x # note"}) {
    EXPECT_FALSE(is_blank_or_comment(line)) << '"' << line << '"';
  }
}

/// One random stream line built to hit the parser's edges: glued and
/// signed operands, 19- and 20-digit values, values at +-2^31, every space
/// kind, mid-line `#`, empty and unknown ops, and trailing junk.
std::string random_line(std::mt19937_64& rng) {
  static const std::vector<std::string> kOps = {
      "arrive", "finish", "down", "up", "advance", "arrive", "finish",
      "advance", "", "frobnicate", "Arrive", "arrive5", "#", "advance#",
      "+1"};
  static const std::vector<std::string> kOddOperands = {
      "+5", "-0", "+-5", "-+5", "+", "-", "--5", "5-3", "1e3", "0x10",
      "12abc", "007", "-007", "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "-9223372036854775809", "18446744073709551615",
      "99999999999999999999", "-99999999999999999999", "2147483647",
      "2147483648", "-2147483648", "-2147483649", "4294967296", "#", "#5",
      "abc", "1.5", ".5", "\xa0" "5", "5\xa0", "5#"};
  static const std::vector<std::string> kTrailing = {
      "junk", "#", "# comment", "5", "e3", "-", "+", "\xff"};
  static const std::string kSpaces = " \t\n\v\f\r";
  const auto chance = [&](int percent) {
    return static_cast<int>(rng() % 100) < percent;
  };
  const auto pick = [&](const std::vector<std::string>& from) {
    return from[rng() % from.size()];
  };
  const auto spaces = [&](std::size_t min_count) {
    std::string out;
    const std::size_t count = min_count + rng() % 3;
    for (std::size_t i = 0; i < count; ++i) out += kSpaces[rng() % 6];
    return out;
  };
  const auto operand = [&]() -> std::string {
    if (chance(30)) return pick(kOddOperands);
    const long long value = static_cast<long long>(rng() % 200000) - 1000;
    return (chance(10) && value >= 0 ? "+" : "") + std::to_string(value);
  };

  std::string line = spaces(0);
  const std::string op = pick(kOps);
  line += op;
  int operands = op == "arrive" ? 3 : op == "advance" ? 1 : 2;
  if (chance(25)) operands = static_cast<int>(rng() % 5);
  for (int i = 0; i < operands; ++i) {
    line += chance(8) ? "" : spaces(1);  // glued to the previous token
    line += operand();
  }
  if (chance(15)) line += spaces(1) + pick(kTrailing);
  line += spaces(0);
  return line;
}

TEST(StreamEvent, MatchesTheIstringstreamParserOnFuzzedLines) {
  std::mt19937_64 rng(20261018);
  std::map<std::string, int> seen;  // outcome class -> lines
  for (int i = 0; i < 100000; ++i) {
    const std::string line = random_line(rng);
    const std::string want = expected(line);
    ASSERT_EQ(parsed(line), want) << "line " << i << ": \"" << line << '"';
    seen[want.substr(0, want.find_first_of("0123456789'-"))] += 1;
  }
  // Every outcome class was exercised, not only the easy ones.
  for (const char* prefix :
       {"ok ", "error: unknown event ", "error: event ",
        "error: trailing token ", "error: operand "}) {
    EXPECT_GT(seen[prefix], 100) << prefix;
  }
}

TEST(RenderDecision, MatchesTheOstreamChainAtEveryEdge) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<DecisionKind> kinds;
  for (int k = 0; k <= static_cast<int>(DecisionKind::ShedOverload); ++k) {
    kinds.push_back(static_cast<DecisionKind>(k));
  }
  kinds.push_back(static_cast<DecisionKind>(200));  // renders "?"
  for (const DecisionKind kind : kinds) {
    for (const Tick time : {kMin, Tick{-1}, Tick{0}, Tick{7}, kMax}) {
      for (const TaskId task : {kMin, TaskId{-1}, TaskId{0}, kMax}) {
        for (const MachineId machine : {INT_MIN, -1, 0, 3, INT_MAX}) {
          const Decision decision{kind, time, task, machine};
          const std::string want = reference_render(decision);
          ASSERT_EQ(rendered(decision), want);
          ASSERT_LE(want.size(), kMaxDecisionChars);
          std::ostringstream out;
          out << decision;
          ASSERT_EQ(out.str(), want);
        }
      }
    }
  }
}

TEST(RenderDecision, TheWidestRecordFillsTheBuffer) {
  const Decision widest{DecisionKind::ExpireUnmapped,
                        std::numeric_limits<Tick>::min(),
                        std::numeric_limits<TaskId>::min(), INT_MAX};
  EXPECT_EQ(rendered(widest).size(), kMaxDecisionChars);
}

TEST(RenderDecision, MatchesTheOstreamChainOnRandomDecisions) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    Decision decision;
    decision.kind = static_cast<DecisionKind>(
        rng() % (static_cast<unsigned>(DecisionKind::ShedOverload) + 1));
    // Mix full-width values with small ones.
    decision.time = static_cast<Tick>(i % 2 == 0 ? rng() : rng() % 100000);
    decision.task = static_cast<TaskId>(i % 3 == 0 ? rng() : rng() % 1000);
    decision.machine = static_cast<MachineId>(rng() % 12) - 1;
    ASSERT_EQ(rendered(decision), reference_render(decision));
  }
}

}  // namespace
}  // namespace taskdrop
