#ifndef SGR_EXP_TABLE_PRINTER_H_
#define SGR_EXP_TABLE_PRINTER_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace sgr {

/// Minimal fixed-width table printer used by `sgr table` and the benches to
/// emit the paper's tables on stdout.
class TablePrinter {
 public:
  /// Creates a printer writing to `out` with the given column headers.
  TablePrinter(std::ostream& out, std::vector<std::string> headers);

  /// Adds a data row. Throws std::invalid_argument unless it has exactly
  /// one cell per header.
  void AddRow(std::vector<std::string> row);

  /// Renders the header + all rows with aligned columns.
  void Print() const;

  /// Formats a double with `precision` significant decimals (fixed).
  static std::string Fixed(double value, int precision = 3);

  /// Formats "mean ± sd".
  static std::string PlusMinus(double mean, double sd, int precision = 3);

 private:
  std::ostream* out_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sgr

#endif  // SGR_EXP_TABLE_PRINTER_H_
