#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace taskdrop {

/// Minimal text-table builder behind the CLI's metric tables and the sweep
/// report. Cells are strings; numeric helpers format with fixed precision
/// so tables diff cleanly between runs.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(double value, int precision = 2);
  Table& cell(long long value);

  std::size_t row_count() const { return rows_.size(); }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Pretty-prints with aligned columns.
  void print(std::ostream& os) const;

  /// Machine-readable CSV (RFC-4180-ish; cells containing commas or quotes
  /// are quoted).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` with `precision` fractional digits.
std::string format_fixed(double value, int precision);

/// Shortest decimal rendering of `value` that parses back to the same bits
/// ("4", "2.5", "0.1234567", "1e+22"): integers below 2^53 as plain digits
/// ("100000"), every other finite value in std::to_chars' shortest
/// round-trip form, so spec serialisation is a fixpoint for any finite
/// double. Non-finite values render as "inf", "-inf" or "nan"; emitters
/// targeting formats without those literals (JSON) must special-case them.
std::string format_double(double value);

}  // namespace taskdrop
