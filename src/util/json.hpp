#pragma once

#include <string>
#include <utility>
#include <vector>

namespace taskdrop {

/// Minimal JSON document model shared by every reader in the tree (sweep
/// shard/lease documents, JSON-subset spec files). Sized to the
/// project's own schemas: objects, arrays, strings, numbers, bools, null,
/// and exactly the escapes the report writer emits. Numbers keep their
/// token text so integer fields convert exactly and doubles go through one
/// strtod (see json_double / json_integer).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;  ///< number token or decoded string payload
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;
};

/// Parses a complete document. Every error is a std::invalid_argument
/// prefixed with `context` (e.g. "sweep shard JSON") and carries the
/// 1-based line and byte offset where parsing stopped — a truncated or
/// corrupted file names the exact place it broke.
JsonValue parse_json(const std::string& text, const std::string& context);

/// Member lookup; nullptr when absent.
const JsonValue* json_find(const JsonValue& object, const char* key);

/// Member lookup that throws std::invalid_argument
/// ("<context>: missing \"key\" in <where>") when absent.
const JsonValue& json_require(const JsonValue& object, const char* key,
                              const char* where, const std::string& context);

/// Number-token conversions with full-consumption checks: the token
/// scanner accepts any run of number characters, so "1.2.3" and "1e" must
/// be loud errors, never a silently converted prefix.
double json_double(const JsonValue& value, const char* where,
                   const std::string& context);
long long json_integer(const JsonValue& value, const char* where,
                       const std::string& context);
const std::string& json_string(const JsonValue& value, const char* where,
                               const std::string& context);

}  // namespace taskdrop
