#include "util/spec_parser.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace taskdrop {
namespace {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

// --- JSON: one object of scalars / flat arrays of scalars, read through
// util/json. Numbers are kept as their source text so the sweep layer
// re-parses them with its own validation, exactly as it does for
// key=value input.

constexpr const char* kJsonContext = "spec JSON";

/// A scalar's text: strings decoded, numbers as their token, booleans as
/// true/false. Null and nested containers are rejected, naming the key.
std::string json_scalar(const JsonValue& value, const std::string& key) {
  if (value.kind == JsonValue::Kind::Bool) {
    return value.boolean ? "true" : "false";
  }
  if (value.kind != JsonValue::Kind::String &&
      value.kind != JsonValue::Kind::Number) {
    throw std::invalid_argument(std::string(kJsonContext) + ": \"" + key +
                                "\" needs a string, number or boolean, or "
                                "a flat array of them");
  }
  return value.text;
}

SpecMap parse_json_object(const std::string& text) {
  // The caller routes only documents starting with '{' here, so a
  // document that parses is an object.
  const JsonValue document = parse_json(text, kJsonContext);
  SpecMap map;
  for (const auto& [key, value] : document.members) {
    auto& values = map[key];
    if (value.kind == JsonValue::Kind::Array) {
      for (const JsonValue& item : value.items) {
        values.push_back(json_scalar(item, key));
      }
    } else {
      values.push_back(json_scalar(value, key));
    }
  }
  return map;
}

SpecMap parse_key_value(const std::string& text) {
  SpecMap map;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("spec line " + std::to_string(line_number) +
                                  ": expected key = value, got '" + line +
                                  "'");
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) {
      throw std::invalid_argument("spec line " + std::to_string(line_number) +
                                  ": empty key");
    }
    const std::vector<std::string> values =
        split_spec_list(line.substr(eq + 1));
    if (values.empty()) {
      throw std::invalid_argument("spec line " + std::to_string(line_number) +
                                  ": no values for key '" + key + "'");
    }
    auto& slot = map[key];
    slot.insert(slot.end(), values.begin(), values.end());
  }
  return map;
}

}  // namespace

std::vector<std::string> split_spec_list(const std::string& text) {
  std::string body = trim(text);
  if (body.size() >= 2 && body.front() == '[' && body.back() == ']') {
    body = trim(body.substr(1, body.size() - 2));
  }
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= body.size()) {
    const auto comma = body.find(',', start);
    const std::string item =
        trim(comma == std::string::npos ? body.substr(start)
                                        : body.substr(start, comma - start));
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

std::string join_spec_list(const std::vector<std::string>& items) {
  std::string joined;
  for (const std::string& item : items) {
    if (!joined.empty()) joined += ", ";
    joined += item;
  }
  return joined;
}

SpecMap parse_spec_text(const std::string& text) {
  const std::string body = trim(text);
  if (!body.empty() && body.front() == '{') {
    return parse_json_object(body);
  }
  return parse_key_value(text);
}

SpecMap parse_spec_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot read sweep spec: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_spec_text(buffer.str());
}

namespace {

[[noreturn]] void bad_number(const std::string& context,
                             const std::string& value, const char* what) {
  throw std::invalid_argument(context + ": " + what + " '" + value + "'");
}

}  // namespace

int parse_spec_int(const std::string& context, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    bad_number(context, value, "malformed integer");
  }
  if (errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    bad_number(context, value, "integer out of range");
  }
  return static_cast<int>(parsed);
}

std::uint64_t parse_spec_u64(const std::string& context,
                             const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value.front() == '-' ||
      end != value.c_str() + value.size()) {
    bad_number(context, value, "malformed unsigned integer");
  }
  if (errno == ERANGE) bad_number(context, value, "integer out of range");
  return static_cast<std::uint64_t>(parsed);
}

double parse_spec_double(const std::string& context,
                         const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    bad_number(context, value, "malformed number");
  }
  if (errno == ERANGE || !std::isfinite(parsed)) {
    bad_number(context, value, "number out of range");
  }
  return parsed;
}

bool parse_spec_bool(const std::string& context, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  throw std::invalid_argument(context + ": expected 0/1/true/false, got '" +
                              value + "'");
}

std::string spec_to_text(const SpecMap& map) {
  std::ostringstream out;
  for (const auto& [key, values] : map) {
    out << key << " = " << join_spec_list(values) << '\n';
  }
  return out.str();
}

}  // namespace taskdrop
