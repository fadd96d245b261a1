#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace taskdrop {

std::string format_fixed(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

std::string format_double(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0.0 ? "inf" : "-inf";
  // Every integer below 2^53 is exact in plain digits; the shortest form
  // alone would render 100000 as "1e+05".
  const bool integral =
      std::fabs(value) < 9007199254740992.0 && value == std::trunc(value);
  char buffer[32];
  const std::to_chars_result result =
      integral ? std::to_chars(buffer, buffer + sizeof(buffer), value,
                               std::chars_format::fixed)
               : std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(double value, int precision) {
  return cell(format_fixed(value, precision));
}

Table& Table::cell(long long value) { return cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string();
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << text;
    }
    os << '\n';
  };
  print_row(headers_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << std::string(widths[c], '-') << "  ";
  }
  os << '\n';
  for (const auto& r : rows_) print_row(r);
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::print_csv(std::ostream& os) const {
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  print_row(headers_);
  for (const auto& r : rows_) print_row(r);
}

}  // namespace taskdrop
