#include "core/string_util.h"

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace bikegraph {
namespace {

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(ParseIntTest, ParsesValidIntegers) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-17"), -17);
  EXPECT_EQ(*ParseInt("  99  "), 99);
  EXPECT_EQ(*ParseInt("0"), 0);
}

TEST(ParseIntTest, RejectsInvalid) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("1.5").ok());
  EXPECT_FALSE(ParseInt("999999999999999999999999").ok());
}

TEST(ParseIntTest, MatchesStrtollGrammar) {
  EXPECT_EQ(*ParseInt("+5"), 5);
  EXPECT_EQ(*ParseInt(" +5\t"), 5);
  EXPECT_EQ(*ParseInt("-0"), 0);
  EXPECT_EQ(*ParseInt("007"), 7);
  EXPECT_EQ(*ParseInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt("-9223372036854775808"), INT64_MIN);
  for (const char* bad : {"+", "-", "++5", "+-5", "-+5", "+ 5", "- 5", "1 2",
                          "0x10", "5+"}) {
    EXPECT_FALSE(ParseInt(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseIntTest, ErrorsKeepCodesAndMessages) {
  auto expect_error = [](std::string_view text, StatusCode code,
                         const std::string& message) {
    auto got = ParseInt(text);
    ASSERT_FALSE(got.ok()) << "'" << text << "'";
    EXPECT_EQ(got.status().code(), code) << "'" << text << "'";
    EXPECT_EQ(got.status().message(), message) << "'" << text << "'";
  };
  expect_error("", StatusCode::kDataLoss, "empty integer field");
  expect_error(" \t ", StatusCode::kDataLoss, "empty integer field");
  expect_error(" 12x ", StatusCode::kDataLoss, "invalid integer: '12x'");
  expect_error("+-5", StatusCode::kDataLoss, "invalid integer: '+-5'");
  expect_error("9223372036854775808", StatusCode::kOutOfRange,
               "integer overflow: 9223372036854775808");
  expect_error("-9223372036854775809", StatusCode::kOutOfRange,
               "integer overflow: -9223372036854775809");
  expect_error("+99999999999999999999", StatusCode::kOutOfRange,
               "integer overflow: +99999999999999999999");
  // Overflow wins over trailing text, as with strtoll's ERANGE.
  expect_error("99999999999999999999x", StatusCode::kOutOfRange,
               "integer overflow: 99999999999999999999x");
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-6.2603"), -6.2603);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
}

TEST(ParseDoubleTest, RejectsInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12.3.4").ok());
  EXPECT_FALSE(ParseDouble("lat").ok());
}

TEST(FormatTest, FormatDoubleDecimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(FormatTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(61872), "61,872");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-61872), "-61,872");
}

}  // namespace
}  // namespace bikegraph
