#include "core/civil_time.h"

#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace bikegraph {
namespace {

TEST(CivilTimeTest, EpochIsThursday) {
  CivilTime t(0);
  EXPECT_EQ(t.year(), 1970);
  EXPECT_EQ(t.month(), 1);
  EXPECT_EQ(t.day(), 1);
  EXPECT_EQ(t.weekday(), Weekday::kThursday);
}

TEST(CivilTimeTest, FromCalendarRoundTrips) {
  auto t = CivilTime::FromCalendar(2020, 3, 15, 13, 45, 59);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->year(), 2020);
  EXPECT_EQ(t->month(), 3);
  EXPECT_EQ(t->day(), 15);
  EXPECT_EQ(t->hour(), 13);
  EXPECT_EQ(t->minute(), 45);
  EXPECT_EQ(t->second(), 59);
}

TEST(CivilTimeTest, StudyWindowWeekdays) {
  // 3 Jan 2020 (study start) was a Friday; 19 Sep 2021 (end) a Sunday.
  auto start = CivilTime::FromCalendar(2020, 1, 3);
  auto end = CivilTime::FromCalendar(2021, 9, 19);
  ASSERT_TRUE(start.ok());
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(start->weekday(), Weekday::kFriday);
  EXPECT_EQ(end->weekday(), Weekday::kSunday);
}

TEST(CivilTimeTest, LeapYearRules) {
  EXPECT_TRUE(IsLeapYear(2020));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2021));
}

TEST(CivilTimeTest, DaysInMonthRespectsLeapYears) {
  EXPECT_EQ(DaysInMonth(2020, 2), 29);
  EXPECT_EQ(DaysInMonth(2021, 2), 28);
  EXPECT_EQ(DaysInMonth(2021, 9), 30);
  EXPECT_EQ(DaysInMonth(2021, 12), 31);
  EXPECT_EQ(DaysInMonth(2021, 13), 0);
}

TEST(CivilTimeTest, RejectsInvalidCalendarFields) {
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 2, 29).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 0, 1).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 13, 1).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 6, 31).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 6, 1, 24, 0, 0).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 6, 1, 0, 60, 0).ok());
}

TEST(CivilTimeTest, ParseFullTimestamp) {
  auto t = CivilTime::Parse("2020-06-15 08:30:00");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->hour(), 8);
  EXPECT_EQ(t->minute(), 30);
}

TEST(CivilTimeTest, ParseIsoTSeparator) {
  auto t = CivilTime::Parse("2020-06-15T08:30:00");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->day(), 15);
}

TEST(CivilTimeTest, ParseBareDate) {
  auto t = CivilTime::Parse("2021-09-19");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->hour(), 0);
}

TEST(CivilTimeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(CivilTime::Parse("not a date").ok());
  EXPECT_FALSE(CivilTime::Parse("").ok());
  EXPECT_FALSE(CivilTime::Parse("2020-13-40 99:99:99").ok());
}

// Parse reads the padded "YYYY-MM-DD[ T]HH:MM:SS" form directly and every
// other form through sscanf; both must accept, value and reject exactly as
// sscanf alone did.
TEST(CivilTimeTest, ParseFormsMatchScanfSemantics) {
  auto expect_time = [](const std::string& text, int y, int mo, int d, int h,
                        int mi, int s) {
    auto got = CivilTime::Parse(text);
    ASSERT_TRUE(got.ok()) << "'" << text << "': " << got.status().message();
    auto want = CivilTime::FromCalendar(y, mo, d, h, mi, s);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*got, *want) << "'" << text << "'";
  };
  expect_time("2020-06-15 08:30:07", 2020, 6, 15, 8, 30, 7);
  expect_time("2020-06-15T08:30:07", 2020, 6, 15, 8, 30, 7);
  expect_time("2021-09-19", 2021, 9, 19, 0, 0, 0);
  // Unpadded fields, a sign and leading blanks all pass through sscanf.
  expect_time("2020-6-5 8:3:7", 2020, 6, 5, 8, 3, 7);
  expect_time("2020-6-5T8:30:00", 2020, 6, 5, 8, 30, 0);
  expect_time("+2020-06-15 08:30:07", 2020, 6, 15, 8, 30, 7);
  expect_time("  2020-06-15 08:30:07", 2020, 6, 15, 8, 30, 7);
  expect_time("2020-06-15  08:30:07", 2020, 6, 15, 8, 30, 7);
  // Text after the seconds is ignored, unless it extends their digits.
  expect_time("2020-06-15 08:30:07 UTC", 2020, 6, 15, 8, 30, 7);
  expect_time("2020-06-15 08:30:07.9", 2020, 6, 15, 8, 30, 7);
  expect_time("2020-06-15 08:30:0007", 2020, 6, 15, 8, 30, 7);
  expect_time("2020-06-15 08:30:007", 2020, 6, 15, 8, 30, 7);
  // A view into a longer buffer parses exactly like the same text on its
  // own: nothing past its end is read, on either path.
  auto expect_view = [](std::string_view buffer, size_t size) {
    const std::string_view view = buffer.substr(0, size);
    auto got = CivilTime::Parse(view);
    auto alone = CivilTime::Parse(std::string(view));
    ASSERT_TRUE(alone.ok()) << "'" << view << "'";
    ASSERT_TRUE(got.ok()) << "'" << view << "' in '" << buffer
                          << "': " << got.status().message();
    EXPECT_EQ(*got, *alone) << "'" << view << "' in '" << buffer << "'";
  };
  expect_view("2021-09-195", 10);           // a bare date, then a 5
  expect_view("2020-06-15 08:30:075", 19);  // 19 characters, then a digit
  expect_view("2020-06-15 08:30:07,1", 19);  // a field, then a comma
  expect_view("2020-6-5 8:3:75", 14);       // the sscanf path, then a 5
}

TEST(CivilTimeTest, ParseErrorsKeepCodesAndMessages) {
  auto expect_error = [](const std::string& text, StatusCode code,
                         const std::string& message) {
    auto got = CivilTime::Parse(text);
    ASSERT_FALSE(got.ok()) << "'" << text << "'";
    EXPECT_EQ(got.status().code(), code) << "'" << text << "'";
    EXPECT_EQ(got.status().message(), message) << "'" << text << "'";
  };
  expect_error("", StatusCode::kDataLoss, "unparseable timestamp: ''");
  expect_error("2020-06-15X08:30:07", StatusCode::kDataLoss,
               "unparseable timestamp: '2020-06-15X08:30:07'");
  expect_error("2020-06-15 08:30", StatusCode::kDataLoss,
               "unparseable timestamp: '2020-06-15 08:30'");
  expect_error("2020-06-15 ", StatusCode::kDataLoss,
               "unparseable timestamp: '2020-06-15 '");
  expect_error("2020-13-15 08:30:07", StatusCode::kInvalidArgument,
               "month out of range: 13");
  expect_error("2021-02-29 08:30:07", StatusCode::kInvalidArgument,
               "day out of range: 29");
  expect_error("2020-06-15 24:00:00", StatusCode::kInvalidArgument,
               "time-of-day out of range");
  expect_error("2020-06-15T08:60:07", StatusCode::kInvalidArgument,
               "time-of-day out of range");
  expect_error("2020-06-15 08:30:60", StatusCode::kInvalidArgument,
               "time-of-day out of range");
}

TEST(CivilTimeTest, ToStringRoundTrips) {
  auto t = CivilTime::FromCalendar(2021, 12, 31, 23, 59, 58);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ToString(), "2021-12-31 23:59:58");
  auto back = CivilTime::Parse(t->ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *t);
}

TEST(CivilTimeTest, AddDaysCrossesMonthAndYear) {
  auto t = CivilTime::FromCalendar(2020, 12, 31, 12, 0, 0);
  ASSERT_TRUE(t.ok());
  CivilTime next = t->AddDays(1);
  EXPECT_EQ(next.year(), 2021);
  EXPECT_EQ(next.month(), 1);
  EXPECT_EQ(next.day(), 1);
  EXPECT_EQ(next.hour(), 12);
}

TEST(CivilTimeTest, WeekdayCyclesOverWeek) {
  auto base = CivilTime::FromCalendar(2020, 1, 6);  // a Monday
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(static_cast<int>(base->AddDays(i).weekday()), i % 7);
  }
}

TEST(CivilTimeTest, ComparisonOperators) {
  CivilTime a(100), b(200);
  EXPECT_LT(a, b);
  EXPECT_LE(a, b);
  EXPECT_GT(b, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, CivilTime(100));
}

TEST(CivilTimeTest, IsWeekendHelper) {
  EXPECT_TRUE(IsWeekend(Weekday::kSaturday));
  EXPECT_TRUE(IsWeekend(Weekday::kSunday));
  EXPECT_FALSE(IsWeekend(Weekday::kMonday));
  EXPECT_FALSE(IsWeekend(Weekday::kFriday));
}

// Property sweep: DaysFromCivil and CivilFromDays are inverse over a wide
// range of dates.
class DaysRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DaysRoundTripTest, RoundTrips) {
  int64_t days = GetParam();
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  EXPECT_EQ(DaysFromCivil(y, m, d), days);
  EXPECT_GE(m, 1);
  EXPECT_LE(m, 12);
  EXPECT_GE(d, 1);
  EXPECT_LE(d, DaysInMonth(y, m));
}

INSTANTIATE_TEST_SUITE_P(WideRange, DaysRoundTripTest,
                         ::testing::Values(-719468, -1, 0, 1, 18262, 18993,
                                           20000, 365 * 100, 365 * 400 + 97,
                                           -365 * 100));

}  // namespace
}  // namespace bikegraph
