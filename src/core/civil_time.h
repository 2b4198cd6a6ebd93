#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/result.h"

namespace bikegraph {

/// \brief Day of the week; numbering follows ISO-8601 (Monday first), which
/// matches the paper's Figure 5 x-axis.
enum class Weekday {
  kMonday = 0,
  kTuesday = 1,
  kWednesday = 2,
  kThursday = 3,
  kFriday = 4,
  kSaturday = 5,
  kSunday = 6,
};

/// True for Saturday/Sunday.
inline bool IsWeekend(Weekday day) {
  return day == Weekday::kSaturday || day == Weekday::kSunday;
}

/// \brief A wall-clock timestamp with second resolution, stored as seconds
/// since the Unix epoch (UTC, no leap seconds).
///
/// The Moby dataset spans January 2020 – September 2021; all rental start
/// and end times in the library are `CivilTime`s. Conversions use Howard
/// Hinnant's `days_from_civil` algorithm, valid far beyond the study window,
/// so day-of-week and hour-of-day extraction (the GDay/GHour temporal
/// features) are exact and timezone-free.
class CivilTime {
 public:
  CivilTime() : seconds_(0) {}
  explicit CivilTime(int64_t seconds_since_epoch)
      : seconds_(seconds_since_epoch) {}

  /// Builds a timestamp from calendar fields. Fields are validated
  /// (month 1–12, day within month incl. leap years, hour 0–23, etc.).
  static Result<CivilTime> FromCalendar(int year, int month, int day,
                                        int hour = 0, int minute = 0,
                                        int second = 0);

  /// Parses "YYYY-MM-DD HH:MM:SS" (also accepts 'T' as the separator and a
  /// bare "YYYY-MM-DD" date). `text` need not be NUL-terminated: a view
  /// into a longer buffer parses exactly like the same text on its own.
  static Result<CivilTime> Parse(std::string_view text);

  int64_t seconds_since_epoch() const { return seconds_; }

  /// Calendar field accessors (proleptic Gregorian, UTC).
  int year() const;
  int month() const;   ///< 1-12
  int day() const;     ///< 1-31
  int hour() const;    ///< 0-23
  int minute() const;  ///< 0-59
  int second() const;  ///< 0-59

  /// ISO weekday of this timestamp.
  Weekday weekday() const;

  /// Formats as "YYYY-MM-DD HH:MM:SS".
  std::string ToString() const;

  /// Returns this time advanced by `seconds` (may be negative).
  CivilTime AddSeconds(int64_t seconds) const {
    return CivilTime(seconds_ + seconds);
  }
  CivilTime AddDays(int64_t days) const { return AddSeconds(days * 86400); }

  bool operator==(const CivilTime& o) const { return seconds_ == o.seconds_; }
  bool operator!=(const CivilTime& o) const { return seconds_ != o.seconds_; }
  bool operator<(const CivilTime& o) const { return seconds_ < o.seconds_; }
  bool operator<=(const CivilTime& o) const { return seconds_ <= o.seconds_; }
  bool operator>(const CivilTime& o) const { return seconds_ > o.seconds_; }
  bool operator>=(const CivilTime& o) const { return seconds_ >= o.seconds_; }

 private:
  int64_t seconds_;
};

/// \brief Number of days from 1970-01-01 to year/month/day (proleptic
/// Gregorian). Hinnant's algorithm; exposed for testing.
int64_t DaysFromCivil(int year, int month, int day);

/// \brief Inverse of DaysFromCivil. Writes the calendar date of the given
/// epoch-day into the out parameters.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

/// \brief True if `year` is a Gregorian leap year.
bool IsLeapYear(int year);

/// \brief Number of days in `month` (1-12) of `year`.
int DaysInMonth(int year, int month);

}  // namespace bikegraph
