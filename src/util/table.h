// Fixed-width text table formatting for paper-style output.
//
// bench_driver's paper presets print rows that mirror the paper's tables
// (Table I-IV) and figure series, and the examples print their reports the
// same way. TablePrinter right-pads headers and cells into aligned columns;
// values can be added as strings, integers or doubles.

#ifndef DYNMIS_SRC_UTIL_TABLE_H_
#define DYNMIS_SRC_UTIL_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dynmis {

// Accumulates rows of string cells and renders them with aligned columns.
// Example:
//   TablePrinter t({"Graph", "n", "m"});
//   t.AddRow({"Epinions", "75879", "405740"});
//   t.Print(stdout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  // Appends a data row; must have as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  // Renders the table (header, separator, rows) to `out`.
  void Print(std::FILE* out) const;

  // Renders the table as comma-separated values (no alignment padding).
  void PrintCsv(std::FILE* out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

// Formats a fraction as a percentage string, e.g. 0.9987 -> "99.87%".
std::string FormatPercent(double fraction, int digits = 2);

// Formats a byte count with a binary unit suffix, e.g. "12.3 MiB".
std::string FormatBytes(uint64_t bytes);

// Formats an integer with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatCount(int64_t value);

}  // namespace dynmis

#endif  // DYNMIS_SRC_UTIL_TABLE_H_
