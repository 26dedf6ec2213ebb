#include "exp/table_printer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace sgr {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  std::ostringstream out;
  TablePrinter t(out, {"Method", "L1"});
  t.AddRow({"BFS", "0.272"});
  t.AddRow({"Proposed", "0.029"});
  t.Print();
  const std::string text = out.str();
  EXPECT_NE(text.find("Method"), std::string::npos);
  EXPECT_NE(text.find("Proposed"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  // Aligned: the "L1" column starts at the same offset on every line.
  std::istringstream lines(text);
  std::string header;
  std::string rule;
  std::string row1;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, row1);
  EXPECT_EQ(header.find("L1"), row1.find("0.272"));
}

TEST(TablePrinterTest, RejectsARowOfTheWrongWidth) {
  // Print indexes the column widths by row cell, so a row wider than the
  // header must never be stored; Release builds keep the check.
  std::ostringstream out;
  TablePrinter t(out, {"a", "b"});
  EXPECT_THROW(t.AddRow({"1", "2", "3"}), std::invalid_argument);
  EXPECT_THROW(t.AddRow({"1"}), std::invalid_argument);
  t.AddRow({"1", "2"});
  t.Print();
  EXPECT_EQ(out.str(), "a  b  \n-  -  \n1  2  \n");
}

TEST(TablePrinterTest, FixedFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Fixed(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::Fixed(2.0, 1), "2.0");
}

TEST(TablePrinterTest, PlusMinus) {
  EXPECT_EQ(TablePrinter::PlusMinus(0.5, 0.1, 2), "0.50 +- 0.10");
}

}  // namespace
}  // namespace sgr
