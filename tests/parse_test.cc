#include "util/parse.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace sgr {
namespace {

TEST(ParseInputTest, AcceptsWholeValuesInRange) {
  EXPECT_EQ(ParseInput<std::uint64_t>("0", "--n"), 0u);
  EXPECT_EQ(ParseInput<std::uint64_t>("18446744073709551615", "--n"),
            UINT64_MAX);
  EXPECT_EQ(ParseInput<std::uint64_t>("1024", "--n", 0, 1024), 1024u);
  EXPECT_DOUBLE_EQ(ParseInput<double>("2.5", "--x"), 2.5);
  EXPECT_DOUBLE_EQ(ParseInput<double>("-1e-3", "--x"), -1e-3);
  EXPECT_DOUBLE_EQ(ParseInput<double>("1", "--x", 0.0, 1.0), 1.0);
  EXPECT_TRUE(ParseInput<bool>("1", "--b"));
  EXPECT_FALSE(ParseInput<bool>("0", "--b"));
}

TEST(ParseInputTest, RejectsAnythingButOneWholeValue) {
  // Each of these used to parse as a prefix, wrap around, or fall back.
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "3x", "2x", "0x10",
                          "1e3", "1.0", "18446744073709551616"}) {
    EXPECT_THROW(ParseInput<std::uint64_t>(bad, "SGR_THREADS"), InputError)
        << "'" << bad << "'";
  }
  for (const char* bad : {"", " 1", "1 ", "1.5x", "abc", "nan", "inf",
                          "-inf", "1e999"}) {
    EXPECT_THROW(ParseInput<double>(bad, "--rc"), InputError)
        << "'" << bad << "'";
  }
  for (const char* bad : {"", "yes", "true", "on", "2", "01"}) {
    EXPECT_THROW(ParseInput<bool>(bad, "SGR_METRICS"), InputError)
        << "'" << bad << "'";
  }
}

TEST(ParseInputTest, EnforcesTheRangeAndNamesTheInput) {
  EXPECT_THROW(ParseInput<std::uint64_t>("1025", "--threads", 0, 1024),
               InputError);
  EXPECT_THROW(ParseInput<double>("1.5", "--fraction", 0.0, 1.0),
               InputError);
  EXPECT_THROW(ParseInput<double>("-0.5", "--rc", 0.0), InputError);
  try {
    (void)ParseInput<std::uint64_t>("-1", "SGR_INGEST_THREADS", 0, 1024);
    ADD_FAILURE() << "-1 accepted";
  } catch (const InputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SGR_INGEST_THREADS"), std::string::npos) << what;
    EXPECT_NE(what.find("'-1'"), std::string::npos) << what;
    EXPECT_NE(what.find("[0, 1024]"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace sgr
