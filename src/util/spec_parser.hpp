#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace taskdrop {

/// A parsed sweep-spec document: each key maps to its list of scalar
/// values, all kept as text (the sweep layer owns typing, the parser owns
/// syntax). Two input syntaxes are accepted:
///
/// key=value (one axis per line, '#' comments, repeated keys append —
/// handy for wrapping long axes):
///
///     # Fig. 8 at divisor-10 scale
///     scenario = spec_hc
///     dropper  = [optimal, heuristic, threshold]
///     levels   = 20k:2000:2.5, 30k:3000:3.0
///     trials   = 8
///
/// or a JSON object whose values are scalars or flat arrays of scalars
/// (strings, numbers, true/false):
///
///     {"scenario": "spec_hc", "dropper": ["optimal", "heuristic"]}
///
/// A document starting with '{' (after whitespace) is parsed as JSON.
using SpecMap = std::map<std::string, std::vector<std::string>>;

/// Parses either syntax; throws std::invalid_argument with a line/position
/// diagnostic on malformed input.
SpecMap parse_spec_text(const std::string& text);

/// Reads and parses a file; throws std::runtime_error if unreadable.
SpecMap parse_spec_file(const std::string& path);

/// Canonical key=value rendering: `parse_spec_text(spec_to_text(m)) == m`
/// for any map whose values contain no commas, brackets or newlines.
std::string spec_to_text(const SpecMap& map);

/// Splits "a, b, c" (optionally "[a, b, c]") into trimmed items — the same
/// list syntax spec files use, reused by the CLI's inline axis flags.
std::vector<std::string> split_spec_list(const std::string& text);

/// Inverse of split_spec_list: "a, b, c". Used for "(available: ...)"
/// registry error messages as well as spec serialisation.
std::string join_spec_list(const std::vector<std::string>& items);

// --- Whole-string scalar parses shared by every consumer of spec values
// (sweep keys, dropper parameters, Flags' typed getters). Spec input comes
// from files and CLI flags, so "2x" and out-of-range magnitudes must be
// loud std::invalid_argument errors (prefixed with `context`, e.g. "sweep
// key trials" or "--seed"), never silent truncation.

int parse_spec_int(const std::string& context, const std::string& value);
std::int64_t parse_spec_i64(const std::string& context,
                            const std::string& value);
std::uint64_t parse_spec_u64(const std::string& context,
                             const std::string& value);
double parse_spec_double(const std::string& context, const std::string& value);
/// Accepts 0/1/true/false.
bool parse_spec_bool(const std::string& context, const std::string& value);

}  // namespace taskdrop
