#include "util/spec_parser.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace taskdrop {
namespace {

TEST(SpecParser, ParsesKeyValueLinesWithCommentsAndLists) {
  const SpecMap map = parse_spec_text(
      "# a sweep\n"
      "scenario = spec_hc\n"
      "mapper   = PAM, MM   # trailing comment\n"
      "dropper  = [optimal, heuristic, threshold]\n"
      "\n"
      "trials = 8\n");
  EXPECT_EQ(map.at("scenario"), (std::vector<std::string>{"spec_hc"}));
  EXPECT_EQ(map.at("mapper"), (std::vector<std::string>{"PAM", "MM"}));
  EXPECT_EQ(map.at("dropper"),
            (std::vector<std::string>{"optimal", "heuristic", "threshold"}));
  EXPECT_EQ(map.at("trials"), (std::vector<std::string>{"8"}));
}

TEST(SpecParser, RepeatedKeysAppend) {
  const SpecMap map = parse_spec_text("eta = 1, 2\neta = 3\n");
  EXPECT_EQ(map.at("eta"), (std::vector<std::string>{"1", "2", "3"}));
}

TEST(SpecParser, ParsesJsonObjects) {
  const SpecMap map = parse_spec_text(
      R"({"scenario": "spec_hc", "mapper": ["PAM", "MM"],
          "oversub": [2.5, 3.0], "trials": 8, "adaptive": true})");
  EXPECT_EQ(map.at("scenario"), (std::vector<std::string>{"spec_hc"}));
  EXPECT_EQ(map.at("mapper"), (std::vector<std::string>{"PAM", "MM"}));
  EXPECT_EQ(map.at("oversub"), (std::vector<std::string>{"2.5", "3.0"}));
  EXPECT_EQ(map.at("trials"), (std::vector<std::string>{"8"}));
  EXPECT_EQ(map.at("adaptive"), (std::vector<std::string>{"true"}));
}

TEST(SpecParser, JsonHandlesEmptyObjectAndEscapes) {
  EXPECT_TRUE(parse_spec_text("{}").empty());
  const SpecMap map = parse_spec_text(R"({"name": "fig \"8\""})");
  EXPECT_EQ(map.at("name"), (std::vector<std::string>{"fig \"8\""}));
}

TEST(SpecParser, JsonRejectsNonJsonAndNestedValues) {
  for (const char* text :
       {R"({"a": null})", R"({"a": spec_hc})", R"({"x": tru})",
        R"({"a": {"b": 1}})", R"({"a": [[1, 2]]})", R"({"a": [null]})",
        R"(["a", "b"])"}) {
    EXPECT_THROW(parse_spec_text(text), std::invalid_argument) << text;
  }
  // Syntax errors carry util/json's line and offset.
  try {
    parse_spec_text("{\"a\": 1,\n \"b\": spec_hc}");
    ADD_FAILURE() << "bare word accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("at line 2, offset 15"),
              std::string::npos)
        << error.what();
  }
  // Repeated keys append, as in key=value input.
  EXPECT_EQ(parse_spec_text(R"({"eta": 1, "eta": [2, 3]})").at("eta"),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST(SpecParser, RoundTripsThroughCanonicalText) {
  const SpecMap original = {
      {"dropper", {"optimal", "heuristic"}},
      {"levels", {"20k:2000:2.5", "30k:3000:3.0"}},
      {"seed", {"42"}},
  };
  EXPECT_EQ(parse_spec_text(spec_to_text(original)), original);
}

TEST(SpecParser, SplitsInlineLists) {
  EXPECT_EQ(split_spec_list("a, b ,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_spec_list("[x, y]"), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(split_spec_list("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(split_spec_list("  ").empty());
}

TEST(SpecParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_spec_text("no equals sign"), std::invalid_argument);
  EXPECT_THROW(parse_spec_text("= value\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec_text("key =   # nothing\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec_text("{\"unterminated\": \"str"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec_text("{\"a\": 1} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_spec_file("/nonexistent/path.sweep"),
               std::runtime_error);
}

}  // namespace
}  // namespace taskdrop
