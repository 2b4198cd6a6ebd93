#include "data/dataset.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <set>
#include <span>
#include <string_view>

#include "core/string_util.h"
#include "data/csv.h"

namespace bikegraph::data {

Dataset::Dataset(std::vector<LocationRecord> locations,
                 std::vector<RentalRecord> rentals)
    : locations_(std::move(locations)), rentals_(std::move(rentals)) {
  RebuildIndex();
}

void Dataset::RebuildIndex() {
  location_index_.clear();
  location_index_.reserve(locations_.size());
  for (size_t i = 0; i < locations_.size(); ++i) {
    location_index_.emplace(locations_[i].id, i);
  }
}

const LocationRecord* Dataset::FindLocation(int64_t id) const {
  auto it = location_index_.find(id);
  if (it == location_index_.end()) return nullptr;
  return &locations_[it->second];
}

DatasetSummary Dataset::Summarize() const {
  DatasetSummary s;
  s.rental_count = rentals_.size();
  s.location_count = locations_.size();
  for (const auto& loc : locations_) {
    if (loc.is_station) ++s.station_count;
  }
  return s;
}

Status Dataset::Validate() const {
  std::set<int64_t> seen;
  for (const auto& loc : locations_) {
    if (loc.id == kInvalidId) {
      return Status::DataLoss("location with invalid id");
    }
    if (!seen.insert(loc.id).second) {
      return Status::DataLoss("duplicate location id " +
                              std::to_string(loc.id));
    }
  }
  for (const auto& r : rentals_) {
    if (!r.has_location_ids()) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " missing a location id");
    }
    if (!HasLocation(r.rental_location_id)) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " references unknown rental location " +
                              std::to_string(r.rental_location_id));
    }
    if (!HasLocation(r.return_location_id)) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " references unknown return location " +
                              std::to_string(r.return_location_id));
    }
    if (r.end_time < r.start_time) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " ends before it starts");
    }
  }
  return Status::OK();
}

namespace {

constexpr std::array<std::string_view, 5> kLocationColumns = {
    "id", "lat", "lon", "is_station", "name"};
constexpr std::array<std::string_view, 6> kRentalColumns = {
    "id", "bike_id", "start_time", "end_time", "rental_location_id",
    "return_location_id"};

template <size_t N>
void AppendHeader(std::string* out,
                  const std::array<std::string_view, N>& columns) {
  for (size_t c = 0; c < N; ++c) {
    if (c > 0) out->push_back(',');
    out->append(columns[c]);
  }
  out->push_back('\n');
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << content;
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

/// Where each of `columns` sits in `header` (its first match).
template <size_t N>
Result<std::array<size_t, N>> FindColumns(
    std::span<const std::string_view> header,
    const std::array<std::string_view, N>& columns, const char* table) {
  std::array<size_t, N> at{};
  for (size_t c = 0; c < N; ++c) {
    const auto it = std::find(header.begin(), header.end(), columns[c]);
    if (it == header.end()) {
      return Status::DataLoss(std::string(table) +
                              " CSV missing a required column");
    }
    at[c] = static_cast<size_t>(it - header.begin());
  }
  return at;
}

}  // namespace

Status Dataset::WriteCsv(const std::string& locations_path,
                         const std::string& rentals_path) const {
  // Only `name` can hold a byte that needs quoting; every other field is
  // digits, signs, '.', '-', ':' and spaces.
  std::string out;
  AppendHeader(&out, kLocationColumns);
  for (const auto& loc : locations_) {
    out += std::to_string(loc.id);
    out.push_back(',');
    if (!std::isnan(loc.position.lat)) {
      out += FormatDouble(loc.position.lat, 6);
    }
    out.push_back(',');
    if (!std::isnan(loc.position.lon)) {
      out += FormatDouble(loc.position.lon, 6);
    }
    out += loc.is_station ? ",1," : ",0,";
    AppendCsvField(&out, loc.name);
    out.push_back('\n');
  }
  BIKEGRAPH_RETURN_NOT_OK(WriteFile(locations_path, out));
  out.clear();
  AppendHeader(&out, kRentalColumns);
  for (const auto& r : rentals_) {
    out += std::to_string(r.id);
    out.push_back(',');
    out += std::to_string(r.bike_id);
    out.push_back(',');
    out += r.start_time.ToString();
    out.push_back(',');
    out += r.end_time.ToString();
    for (const int64_t fk : {r.rental_location_id, r.return_location_id}) {
      out.push_back(',');
      if (fk != kInvalidId) out += std::to_string(fk);
    }
    out.push_back('\n');
  }
  return WriteFile(rentals_path, out);
}

Result<Dataset> Dataset::ReadCsv(const std::string& locations_path,
                                 const std::string& rentals_path) {
  std::vector<LocationRecord> locations;
  std::array<size_t, kLocationColumns.size()> lc{};
  BIKEGRAPH_RETURN_NOT_OK(ForEachCsvFileRecord(
      locations_path,
      [&](size_t record, std::span<const std::string_view> f) -> Status {
        if (record == 0) {
          BIKEGRAPH_ASSIGN_OR_RETURN(
              lc, FindColumns(f, kLocationColumns, "locations"));
          return Status::OK();
        }
        LocationRecord& loc = locations.emplace_back();
        BIKEGRAPH_ASSIGN_OR_RETURN(loc.id, ParseInt(f[lc[0]]));
        if (!f[lc[1]].empty() && !f[lc[2]].empty()) {
          BIKEGRAPH_ASSIGN_OR_RETURN(loc.position.lat, ParseDouble(f[lc[1]]));
          BIKEGRAPH_ASSIGN_OR_RETURN(loc.position.lon, ParseDouble(f[lc[2]]));
        }
        loc.is_station = f[lc[3]] == "1";
        loc.name = f[lc[4]];
        return Status::OK();
      }));
  std::vector<RentalRecord> rentals;
  std::array<size_t, kRentalColumns.size()> rc{};
  BIKEGRAPH_RETURN_NOT_OK(ForEachCsvFileRecord(
      rentals_path,
      [&](size_t record, std::span<const std::string_view> f) -> Status {
        if (record == 0) {
          BIKEGRAPH_ASSIGN_OR_RETURN(rc,
                                     FindColumns(f, kRentalColumns, "rentals"));
          return Status::OK();
        }
        RentalRecord& r = rentals.emplace_back();
        BIKEGRAPH_ASSIGN_OR_RETURN(r.id, ParseInt(f[rc[0]]));
        BIKEGRAPH_ASSIGN_OR_RETURN(r.bike_id, ParseInt(f[rc[1]]));
        BIKEGRAPH_ASSIGN_OR_RETURN(r.start_time, CivilTime::Parse(f[rc[2]]));
        BIKEGRAPH_ASSIGN_OR_RETURN(r.end_time, CivilTime::Parse(f[rc[3]]));
        if (!f[rc[4]].empty()) {
          BIKEGRAPH_ASSIGN_OR_RETURN(r.rental_location_id, ParseInt(f[rc[4]]));
        }
        if (!f[rc[5]].empty()) {
          BIKEGRAPH_ASSIGN_OR_RETURN(r.return_location_id, ParseInt(f[rc[5]]));
        }
        return Status::OK();
      }));
  return Dataset(std::move(locations), std::move(rentals));
}

}  // namespace bikegraph::data
