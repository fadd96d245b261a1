#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/flags.hpp"
#include "util/table.hpp"

namespace taskdrop {
namespace {

// ------------------------------- Table -------------------------------

TEST(Table, PrintsAlignedHeadersAndRows) {
  Table table({"name", "value"});
  table.row().cell("alpha").cell(1.5, 1);
  table.row().cell("b").cell(static_cast<long long>(42));
  std::ostringstream oss;
  table.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);  // separator line
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table table({"label"});
  table.row().cell("has,comma");
  table.row().cell("has\"quote");
  std::ostringstream oss;
  table.print_csv(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RowAndCellCounts) {
  Table table({"a", "b"});
  EXPECT_EQ(table.row_count(), 0u);
  table.row().cell("1").cell("2");
  table.row().cell("3").cell("4");
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.rows()[1][0], "3");
}

TEST(Table, FormatFixedPrecision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
}

TEST(Table, FormatDoubleShortestForms) {
  EXPECT_EQ(format_double(4.0), "4");
  EXPECT_EQ(format_double(2.5), "2.5");
  EXPECT_EQ(format_double(0.55), "0.55");
  EXPECT_EQ(format_double(0.0), "0");
  // Integers below 2^53 print as plain digits, not "1e+01"/"1e+05", so
  // spec labels built from parsed values match their source tokens.
  EXPECT_EQ(format_double(10.0), "10");
  EXPECT_EQ(format_double(100000.0), "100000");
  EXPECT_EQ(format_double(1e22), "1e+22");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");
}

TEST(Table, FormatDoubleParseBackIsAFixpoint) {
  // The contract the sweep-spec serialiser relies on: strtod of the
  // rendering recovers the exact bits, for awkward doubles the old
  // 6-significant-digit formatting silently truncated.
  const double awkward[] = {0.1234567,
                            1.0 / 3.0,
                            4.000000000000001,
                            1e-17,
                            123456789.123456789,
                            6.02214076e23,
                            -0.1,
                            5e-324,          // min subnormal
                            1.7976931348623157e308};
  for (const double value : awkward) {
    const std::string text = format_double(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
  // Deterministic pseudo-random sweep over many magnitudes.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double mantissa =
        static_cast<double>(state >> 11) / 9007199254740992.0;
    const int exponent = static_cast<int>(state % 613) - 306;
    const double value = std::ldexp(mantissa, exponent);
    const std::string text = format_double(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
}

// ------------------------------- Flags -------------------------------

TEST(Flags, ParsesKeyValueAndSwitches) {
  const char* argv[] = {"prog", "--alpha=3.5", "--on", "positional",
                        "--n=42"};
  const Flags flags(5, argv);
  EXPECT_TRUE(flags.has("alpha"));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 3.5);
  EXPECT_TRUE(flags.get_bool("on"));
  EXPECT_EQ(flags.get_int("n", 0), 42);
  EXPECT_FALSE(flags.has("positional"));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Flags flags(1, argv);
  EXPECT_EQ(flags.get("missing", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.get_bool("missing"));
  EXPECT_TRUE(flags.get_bool("missing", true));
}

TEST(Flags, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=true"};
  const Flags flags(4, argv);
  EXPECT_FALSE(flags.get_bool("a"));
  EXPECT_FALSE(flags.get_bool("b"));
  EXPECT_TRUE(flags.get_bool("c"));
}

/// The message a typed getter throws for `key`, or "" when it does not.
template <typename Get>
std::string error_of(Get&& get) {
  try {
    get();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Flags, IntRejectsGarbageAndTrailingCharacters) {
  const char* argv[] = {"prog", "--a=abc", "--b=12abc", "--c=1e3",
                        "--d=",  "--e= 7x", "--f=-42"};
  const Flags flags(7, argv);
  EXPECT_EQ(error_of([&] { flags.get_int("a", 0); }),
            "--a: malformed integer 'abc'");
  EXPECT_EQ(error_of([&] { flags.get_int("b", 0); }),
            "--b: malformed integer '12abc'");
  EXPECT_EQ(error_of([&] { flags.get_int("c", 0); }),
            "--c: malformed integer '1e3'");
  EXPECT_EQ(error_of([&] { flags.get_int("d", 0); }),
            "--d: malformed integer ''");
  EXPECT_THROW(flags.get_int("e", 0), std::invalid_argument);
  EXPECT_EQ(flags.get_int("f", 0), -42);
}

TEST(Flags, IntRejectsOutOfRangeValues) {
  const char* argv[] = {"prog", "--big=18446744073709551615",
                        "--max=9223372036854775807",
                        "--min=-9223372036854775808",
                        "--under=-9223372036854775809"};
  const Flags flags(5, argv);
  EXPECT_EQ(error_of([&] { flags.get_int("big", 0); }),
            "--big: integer out of range '18446744073709551615'");
  EXPECT_EQ(flags.get_int("max", 0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(flags.get_int("min", 0), std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(flags.get_int("under", 0), std::invalid_argument);
}

TEST(Flags, DoubleRejectsGarbageAndNonFiniteValues) {
  const char* argv[] = {"prog", "--a=3.5x", "--b=abc", "--c=1e400",
                        "--d=inf", "--e=nan", "--f=1e3"};
  const Flags flags(7, argv);
  EXPECT_EQ(error_of([&] { flags.get_double("a", 0.0); }),
            "--a: malformed number '3.5x'");
  EXPECT_THROW(flags.get_double("b", 0.0), std::invalid_argument);
  EXPECT_EQ(error_of([&] { flags.get_double("c", 0.0); }),
            "--c: number out of range '1e400'");
  EXPECT_THROW(flags.get_double("d", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("e", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(flags.get_double("f", 0.0), 1000.0);
}

TEST(Flags, BoolAcceptsOnlyItsFourSpellings) {
  const char* argv[] = {"prog", "--switch", "--one=1",  "--no=no",
                        "--yes=yes", "--two=2", "--upper=TRUE"};
  const Flags flags(7, argv);
  EXPECT_TRUE(flags.get_bool("switch"));
  EXPECT_TRUE(flags.get_bool("one"));
  EXPECT_EQ(error_of([&] { flags.get_bool("no"); }),
            "--no: expected 0/1/true/false, got 'no'");
  EXPECT_THROW(flags.get_bool("yes"), std::invalid_argument);
  EXPECT_THROW(flags.get_bool("two"), std::invalid_argument);
  EXPECT_THROW(flags.get_bool("upper"), std::invalid_argument);
}

}  // namespace
}  // namespace taskdrop
