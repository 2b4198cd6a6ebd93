#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "core/civil_time.h"
#include "geo/latlon.h"

namespace bikegraph::data {

/// \brief Sentinel for a missing foreign key or id.
inline constexpr int64_t kInvalidId = -1;

/// \brief One row of the Location table: a distinct place a bike was rented
/// from or returned to during the study period.
///
/// Stations (the 92–95 fixed charging points) are Location rows with
/// `is_station == true` and a human-readable name. Missing GPS coordinates
/// are represented by NaN lat/lon (see `has_coordinates()`), matching the
/// paper's "locations missing latitude or longitude" cleaning rule.
struct LocationRecord {
  int64_t id = kInvalidId;
  geo::LatLon position;
  bool is_station = false;
  std::string name;  ///< non-empty for stations only

  LocationRecord() { position = geo::LatLon(std::nan(""), std::nan("")); }
  LocationRecord(int64_t location_id, geo::LatLon pos, bool station = false,
                 std::string station_name = "")
      : id(location_id),
        position(pos),
        is_station(station),
        name(std::move(station_name)) {}

  /// True iff both coordinates are present (not NaN).
  bool has_coordinates() const {
    return !std::isnan(position.lat) && !std::isnan(position.lon);
  }
};

/// \brief One row of the Rental table: a single logged trip.
struct RentalRecord {
  int64_t id = kInvalidId;
  int64_t bike_id = kInvalidId;
  CivilTime start_time;
  CivilTime end_time;
  int64_t rental_location_id = kInvalidId;  ///< origin, FK into Location
  int64_t return_location_id = kInvalidId;  ///< destination, FK into Location

  /// True iff both foreign keys are present (may still dangle; the cleaning
  /// pipeline checks referential integrity separately).
  bool has_location_ids() const {
    return rental_location_id != kInvalidId &&
           return_location_id != kInvalidId;
  }
};

}  // namespace bikegraph::data
