#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "core/status.h"
#include "data/records.h"

namespace bikegraph::data {

/// \brief Summary counts in the shape of the paper's Table I.
struct DatasetSummary {
  size_t station_count = 0;
  size_t rental_count = 0;
  size_t location_count = 0;
};

/// \brief The two-table Moby dataset: Rental and Location.
///
/// This is the root input of the whole pipeline. The container owns both
/// tables, maintains a by-id index over locations, and offers CSV round-trip
/// I/O in the export schema:
///  - `locations.csv`: id,lat,lon,is_station,name. lat and lon carry 6
///    decimals, a NaN one is written empty, and an empty one reads back
///    as NaN for both; is_station is 1 or 0; name is the only field that
///    may be quoted (data/csv.h).
///  - `rentals.csv`: id,bike_id,start_time,end_time,rental_location_id,
///    return_location_id. Times are written "YYYY-MM-DD HH:MM:SS"; an
///    empty location id is a missing one (kInvalidId).
/// ReadCsv finds the columns by header name, in any order, and ignores
/// any others.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<LocationRecord> locations,
          std::vector<RentalRecord> rentals);

  const std::vector<LocationRecord>& locations() const { return locations_; }
  const std::vector<RentalRecord>& rentals() const { return rentals_; }

  /// Mutable access invalidates the id index; call RebuildIndex() after
  /// bulk edits.
  std::vector<LocationRecord>* mutable_locations() { return &locations_; }
  std::vector<RentalRecord>* mutable_rentals() { return &rentals_; }
  void RebuildIndex();

  /// Looks up a location row by id; nullptr when absent.
  const LocationRecord* FindLocation(int64_t id) const;

  /// True iff the Location table contains `id`.
  bool HasLocation(int64_t id) const { return FindLocation(id) != nullptr; }

  /// Table-I style counts: #stations, #rentals, #locations.
  DatasetSummary Summarize() const;

  /// Structural validation: unique location ids, rentals referencing
  /// existing locations, start <= end. Returns the first violation.
  Status Validate() const;

  /// CSV round trip in the export schema described above. ReadCsv parses
  /// each record's columns as the tokenizer hands it over, so in a file
  /// with several faults the first one met is reported: the tokenizer's
  /// (data/csv.h), "<table> CSV missing a required column", or a field's
  /// ParseInt / ParseDouble / CivilTime::Parse error.
  Status WriteCsv(const std::string& locations_path,
                  const std::string& rentals_path) const;
  static Result<Dataset> ReadCsv(const std::string& locations_path,
                                 const std::string& rentals_path);

 private:
  std::vector<LocationRecord> locations_;
  std::vector<RentalRecord> rentals_;
  std::unordered_map<int64_t, size_t> location_index_;
};

}  // namespace bikegraph::data
