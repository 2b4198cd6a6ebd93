#include "core/civil_time.h"

#include <algorithm>
#include <cstdio>

namespace bikegraph {

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

int64_t DaysFromCivil(int y, int m, int d) {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);          // [0,399]
  const unsigned doy = static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);  // [0,365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;  // [0,146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* year, int* month, int* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0,146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0,399]
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0,365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0,11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;               // [1,31]
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;                  // [1,12]
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

Result<CivilTime> CivilTime::FromCalendar(int year, int month, int day,
                                          int hour, int minute, int second) {
  if (month < 1 || month > 12) {
    return Status::InvalidArgument("month out of range: " +
                                   std::to_string(month));
  }
  if (day < 1 || day > DaysInMonth(year, month)) {
    return Status::InvalidArgument("day out of range: " + std::to_string(day));
  }
  if (hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0 ||
      second > 59) {
    return Status::InvalidArgument("time-of-day out of range");
  }
  int64_t days = DaysFromCivil(year, month, day);
  return CivilTime(days * 86400 + hour * 3600 + minute * 60 + second);
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Value of the `width` ASCII digits at `p`, or -1 if any is not a digit.
int FixedDigits(const char* p, int width) {
  int value = 0;
  for (int i = 0; i < width; ++i) {
    if (!IsDigit(p[i])) return -1;
    value = value * 10 + (p[i] - '0');
  }
  return value;
}

}  // namespace

Result<CivilTime> CivilTime::Parse(std::string_view text) {
  // Fast path for the zero-padded "YYYY-MM-DD[ T]HH:MM:SS" form every CSV
  // row carries. sscanf below reads the same fields from it, provided the
  // seconds are not followed by a further digit; any other text (bare
  // dates, unpadded fields, signs, leading blanks) takes the sscanf path.
  const char* t = text.data();
  if (text.size() >= 19 && (text.size() == 19 || !IsDigit(t[19])) &&
      t[4] == '-' && t[7] == '-' && (t[10] == ' ' || t[10] == 'T') &&
      t[13] == ':' && t[16] == ':') {
    const int y = FixedDigits(t, 4), mo = FixedDigits(t + 5, 2),
              d = FixedDigits(t + 8, 2), h = FixedDigits(t + 11, 2),
              mi = FixedDigits(t + 14, 2), s = FixedDigits(t + 17, 2);
    if (std::min({y, mo, d, h, mi, s}) >= 0) {
      return FromCalendar(y, mo, d, h, mi, s);
    }
  }
  // sscanf reads up to a NUL, so it gets a terminated copy.
  const std::string copy(text);
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, s = 0;
  char sep = 0;
  int n = std::sscanf(copy.c_str(), "%d-%d-%d%c%d:%d:%d", &y, &mo, &d, &sep,
                      &h, &mi, &s);
  if (n == 3) {
    return FromCalendar(y, mo, d);
  }
  if (n == 7 && (sep == ' ' || sep == 'T')) {
    return FromCalendar(y, mo, d, h, mi, s);
  }
  return Status::DataLoss("unparseable timestamp: '" + copy + "'");
}

namespace {

// Floor division helpers so pre-epoch timestamps behave.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) { return a - FloorDiv(a, b) * b; }

}  // namespace

int CivilTime::year() const {
  int y, m, d;
  CivilFromDays(FloorDiv(seconds_, 86400), &y, &m, &d);
  return y;
}

int CivilTime::month() const {
  int y, m, d;
  CivilFromDays(FloorDiv(seconds_, 86400), &y, &m, &d);
  return m;
}

int CivilTime::day() const {
  int y, m, d;
  CivilFromDays(FloorDiv(seconds_, 86400), &y, &m, &d);
  return d;
}

int CivilTime::hour() const {
  return static_cast<int>(FloorMod(seconds_, 86400) / 3600);
}

int CivilTime::minute() const {
  return static_cast<int>(FloorMod(seconds_, 3600) / 60);
}

int CivilTime::second() const { return static_cast<int>(FloorMod(seconds_, 60)); }

Weekday CivilTime::weekday() const {
  // 1970-01-01 was a Thursday (ISO index 3).
  int64_t days = FloorDiv(seconds_, 86400);
  return static_cast<Weekday>(FloorMod(days + 3, 7));
}

std::string CivilTime::ToString() const {
  int y, mo, d;
  CivilFromDays(FloorDiv(seconds_, 86400), &y, &mo, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", y, mo, d,
                hour(), minute(), second());
  return buf;
}

}  // namespace bikegraph
