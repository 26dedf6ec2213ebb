#include "exp/table_printer.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sgr {

TablePrinter::TablePrinter(std::ostream& out,
                           std::vector<std::string> headers)
    : out_(&out), headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  if (row.size() != headers_.size()) {
    throw std::invalid_argument(
        "table row has " + std::to_string(row.size()) + " cell(s), expected " +
        std::to_string(headers_.size()));
  }
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      *out_ << std::left << std::setw(static_cast<int>(widths[c]) + 2)
            << row[c];
    }
    *out_ << "\n";
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  *out_ << rule << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::Fixed(double value, int precision) {
  std::ostringstream s;
  s << std::fixed << std::setprecision(precision) << value;
  return s.str();
}

std::string TablePrinter::PlusMinus(double mean, double sd, int precision) {
  return Fixed(mean, precision) + " +- " + Fixed(sd, precision);
}

}  // namespace sgr
