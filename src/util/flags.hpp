#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace taskdrop {

/// Tiny command-line flag parser for the CLI and the example binaries.
///
/// Accepted syntax: `--key=value` and bare `--switch` (value "1"). Anything
/// else is ignored; strict consumers check keys(). The typed getters parse
/// the whole value through util/spec_parser's parse_spec_* family and throw
/// std::invalid_argument naming the flag ("--seed: malformed integer
/// '12abc'") on garbage, trailing characters, out-of-range numbers, or a
/// bool other than 0/1/true/false; an absent flag yields the fallback.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  /// All parsed --key names, sorted — lets strict consumers (every
  /// taskdrop_cli command) reject typo'd flags that the lenient parser
  /// would otherwise silently drop.
  std::vector<std::string> keys() const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace taskdrop
