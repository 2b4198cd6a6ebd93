#include "data/dataset.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/civil_time.h"
#include "core/rng.h"

#include <gtest/gtest.h>

namespace bikegraph::data {
namespace {

CivilTime At(int h) {
  return CivilTime::FromCalendar(2020, 6, 1, h, 0, 0).ValueOrDie();
}

Dataset SmallDataset() {
  std::vector<LocationRecord> locs = {
      {1, {53.35, -6.26}, true, "Stn A"},
      {2, {53.36, -6.25}, true, "Stn B"},
      {3, {53.34, -6.27}, false, ""},
  };
  std::vector<RentalRecord> rentals;
  RentalRecord r;
  r.id = 1;
  r.bike_id = 5;
  r.start_time = At(8);
  r.end_time = At(9);
  r.rental_location_id = 1;
  r.return_location_id = 3;
  rentals.push_back(r);
  r.id = 2;
  r.rental_location_id = 3;
  r.return_location_id = 2;
  rentals.push_back(r);
  return Dataset(std::move(locs), std::move(rentals));
}

TEST(DatasetTest, SummarizeCounts) {
  Dataset ds = SmallDataset();
  auto s = ds.Summarize();
  EXPECT_EQ(s.station_count, 2u);
  EXPECT_EQ(s.location_count, 3u);
  EXPECT_EQ(s.rental_count, 2u);
}

TEST(DatasetTest, FindLocation) {
  Dataset ds = SmallDataset();
  ASSERT_NE(ds.FindLocation(1), nullptr);
  EXPECT_EQ(ds.FindLocation(1)->name, "Stn A");
  EXPECT_EQ(ds.FindLocation(99), nullptr);
  EXPECT_TRUE(ds.HasLocation(3));
  EXPECT_FALSE(ds.HasLocation(0));
}

TEST(DatasetTest, ValidatePassesOnCleanData) {
  EXPECT_TRUE(SmallDataset().Validate().ok());
}

TEST(DatasetTest, ValidateCatchesDanglingFk) {
  Dataset ds = SmallDataset();
  ds.mutable_rentals()->front().return_location_id = 999;
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesMissingFk) {
  Dataset ds = SmallDataset();
  ds.mutable_rentals()->front().rental_location_id = kInvalidId;
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesDuplicateLocationIds) {
  Dataset ds = SmallDataset();
  ds.mutable_locations()->push_back({1, {53.0, -6.0}, false, ""});
  ds.RebuildIndex();
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesTimeTravel) {
  Dataset ds = SmallDataset();
  ds.mutable_rentals()->front().end_time = At(7);
  EXPECT_FALSE(ds.Validate().ok());
}

/// The pair of CSV paths a test named `name` writes in the temp dir.
struct CsvPaths {
  std::string locations, rentals;
  explicit CsvPaths(const std::string& name)
      : locations(::testing::TempDir() + "/" + name + "_locations.csv"),
        rentals(::testing::TempDir() + "/" + name + "_rentals.csv") {}
  ~CsvPaths() {
    std::remove(locations.c_str());
    std::remove(rentals.c_str());
  }
};

/// Writes `ds` through WriteCsv and reads it back through ReadCsv.
Result<Dataset> RoundTrip(const Dataset& ds, const std::string& name) {
  const CsvPaths paths(name);
  BIKEGRAPH_RETURN_NOT_OK(ds.WriteCsv(paths.locations, paths.rentals));
  return Dataset::ReadCsv(paths.locations, paths.rentals);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

/// Field-for-field equality; NaN coordinates equal NaN.
void ExpectSameRecords(const Dataset& want, const Dataset& got) {
  auto same_coord = [](double a, double b) {
    return std::isnan(a) ? std::isnan(b) : a == b;
  };
  ASSERT_EQ(want.locations().size(), got.locations().size());
  for (size_t i = 0; i < want.locations().size(); ++i) {
    const LocationRecord& w = want.locations()[i];
    const LocationRecord& g = got.locations()[i];
    EXPECT_EQ(w.id, g.id) << "location " << i;
    EXPECT_TRUE(same_coord(w.position.lat, g.position.lat))
        << "location " << i << ": " << w.position.lat << " vs "
        << g.position.lat;
    EXPECT_TRUE(same_coord(w.position.lon, g.position.lon))
        << "location " << i << ": " << w.position.lon << " vs "
        << g.position.lon;
    EXPECT_EQ(w.is_station, g.is_station) << "location " << i;
    EXPECT_EQ(w.name, g.name) << "location " << i;
  }
  ASSERT_EQ(want.rentals().size(), got.rentals().size());
  for (size_t i = 0; i < want.rentals().size(); ++i) {
    const RentalRecord& w = want.rentals()[i];
    const RentalRecord& g = got.rentals()[i];
    EXPECT_EQ(w.id, g.id) << "rental " << i;
    EXPECT_EQ(w.bike_id, g.bike_id) << "rental " << i;
    EXPECT_EQ(w.start_time, g.start_time) << "rental " << i;
    EXPECT_EQ(w.end_time, g.end_time) << "rental " << i;
    EXPECT_EQ(w.rental_location_id, g.rental_location_id) << "rental " << i;
    EXPECT_EQ(w.return_location_id, g.return_location_id) << "rental " << i;
  }
}

TEST(DatasetTest, CsvRoundTripPreservesEverything) {
  Dataset ds = SmallDataset();
  auto parsed = RoundTrip(ds, "roundtrip_everything");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->locations().size(), 3u);
  EXPECT_EQ(parsed->rentals().size(), 2u);
  EXPECT_EQ(parsed->FindLocation(1)->name, "Stn A");
  EXPECT_TRUE(parsed->FindLocation(1)->is_station);
  EXPECT_FALSE(parsed->FindLocation(3)->is_station);
  EXPECT_NEAR(parsed->FindLocation(3)->position.lat, 53.34, 1e-6);
  EXPECT_EQ(parsed->rentals()[0].start_time, At(8));
  EXPECT_EQ(parsed->rentals()[1].return_location_id, 2);
}

TEST(DatasetTest, CsvRoundTripPreservesMissingValues) {
  std::vector<LocationRecord> locs;
  LocationRecord no_coords;
  no_coords.id = 7;
  locs.push_back(no_coords);
  std::vector<RentalRecord> rentals;
  RentalRecord r;
  r.id = 1;
  r.bike_id = 2;
  r.start_time = At(10);
  r.end_time = At(11);
  r.rental_location_id = kInvalidId;  // missing FK survives round trip
  r.return_location_id = 7;
  rentals.push_back(r);
  Dataset ds(std::move(locs), std::move(rentals));

  auto parsed = RoundTrip(ds, "roundtrip_missing");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_FALSE(parsed->locations()[0].has_coordinates());
  EXPECT_EQ(parsed->rentals()[0].rental_location_id, kInvalidId);
  EXPECT_EQ(parsed->rentals()[0].return_location_id, 7);
}

TEST(DatasetTest, CsvRoundTripIsFieldForFieldOnRandomDatasets) {
  // Names mix plain bytes with every byte that forces quoting; coordinates
  // sit on the 6-decimal grid WriteCsv keeps, so they come back exact.
  const std::string name_bytes = "ab -,\"\n\r";
  const int64_t t_lo =
      CivilTime::FromCalendar(2019, 1, 1).ValueOrDie().seconds_since_epoch();
  const int64_t t_hi =
      CivilTime::FromCalendar(2023, 1, 1).ValueOrDie().seconds_since_epoch();
  Rng rng(20201019);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<LocationRecord> locs(rng.NextBounded(24));
    for (LocationRecord& loc : locs) {
      loc.id = rng.NextInt(-1000, 1000);
      if (rng.NextBounded(4) != 0) {  // else both coordinates stay NaN
        loc.position = {
            static_cast<double>(rng.NextInt(-90000000, 90000000)) / 1e6,
            static_cast<double>(rng.NextInt(-180000000, 180000000)) / 1e6};
      }
      loc.is_station = rng.NextBounded(2) == 1;
      for (uint64_t c = rng.NextBounded(7); c > 0; --c) {  // 0: empty name
        loc.name.push_back(name_bytes[rng.NextBounded(name_bytes.size())]);
      }
    }
    std::vector<RentalRecord> rentals(rng.NextBounded(24));
    for (RentalRecord& r : rentals) {
      r.id = rng.NextInt(-1000, 1000000);
      r.bike_id = rng.NextInt(-50, 500);
      r.start_time = CivilTime(rng.NextInt(t_lo, t_hi));
      r.end_time = r.start_time.AddSeconds(rng.NextInt(-600, 7200));
      // Negative ids and missing (kInvalidId, written empty) foreign keys.
      r.rental_location_id =
          rng.NextBounded(5) == 0 ? kInvalidId : rng.NextInt(-20, 20);
      r.return_location_id =
          rng.NextBounded(5) == 0 ? kInvalidId : rng.NextInt(-20, 20);
    }
    const Dataset ds(std::move(locs), std::move(rentals));
    const CsvPaths first("random_first"), second("random_second");
    ASSERT_TRUE(ds.WriteCsv(first.locations, first.rentals).ok());
    auto parsed = Dataset::ReadCsv(first.locations, first.rentals);
    ASSERT_TRUE(parsed.ok()) << "trial " << trial << ": " << parsed.status();
    ExpectSameRecords(ds, *parsed);
    // Writing the parsed dataset again reproduces the same bytes.
    ASSERT_TRUE(parsed->WriteCsv(second.locations, second.rentals).ok());
    EXPECT_EQ(ReadBytes(first.locations), ReadBytes(second.locations));
    EXPECT_EQ(ReadBytes(first.rentals), ReadBytes(second.rentals));
    if (HasFailure()) FAIL() << "trial " << trial;
  }
}

TEST(DatasetTest, MutatedCsvFilesFailCleanly) {
  // A valid document, mutated by bit flips, truncations and inserted
  // quotes, commas, newlines and CRs, reads back OK or with one of the
  // parser's codes; nothing may crash (this suite also runs under ASan
  // and UBSan).
  std::vector<LocationRecord> locs = {
      {1, {53.35, -6.26}, true, "Stn, \"A\""},
      {2, {53.36, -6.25}, true, "Stn B"},
      {3, {53.34, -6.27}, false, ""},
  };
  std::vector<RentalRecord> rentals;
  for (int64_t i = 0; i < 6; ++i) {
    RentalRecord r;
    r.id = i;
    r.bike_id = 100 + i;
    r.start_time = At(static_cast<int>(8 + i));
    r.end_time = r.start_time.AddSeconds(900);
    r.rental_location_id = 1 + i % 3;
    r.return_location_id = i == 4 ? kInvalidId : 1 + (i + 1) % 3;
    rentals.push_back(r);
  }
  const CsvPaths paths("mutated");
  ASSERT_TRUE(Dataset(std::move(locs), std::move(rentals))
                  .WriteCsv(paths.locations, paths.rentals)
                  .ok());
  const std::string valid[2] = {ReadBytes(paths.locations),
                                ReadBytes(paths.rentals)};
  const char inserts[] = {'"', ',', '\n', '\r'};
  Rng rng(424242);
  size_t ok = 0, failed = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string text[2] = {valid[0], valid[1]};
    std::string& target = text[rng.NextBounded(2)];
    for (uint64_t edits = 1 + rng.NextBounded(3); edits > 0; --edits) {
      const size_t at = rng.NextBounded(target.size() + 1);
      switch (rng.NextBounded(3)) {
        case 0:
          if (at < target.size()) {
            target[at] = static_cast<char>(
                target[at] ^ static_cast<char>(1u << rng.NextBounded(8)));
          }
          break;
        case 1:
          target.resize(at);
          break;
        default:
          target.insert(at, 1, inserts[rng.NextBounded(4)]);
          break;
      }
    }
    WriteBytes(paths.locations, text[0]);
    WriteBytes(paths.rentals, text[1]);
    const auto read = Dataset::ReadCsv(paths.locations, paths.rentals);
    if (read.ok()) {
      ++ok;
      continue;
    }
    ++failed;
    const StatusCode code = read.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange)
        << "trial " << trial << ": " << read.status();
  }
  // Both outcomes occur, so the mutations reach past the tokenizer.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
}

TEST(DatasetTest, ReadCsvReportsMissingColumnsAndBadFields) {
  const CsvPaths paths("bad_fields");
  const std::string good_locations = "id,lat,lon,is_station,name\n1,,,0,\n";
  const std::string good_rentals =
      "id,bike_id,start_time,end_time,rental_location_id,"
      "return_location_id\n1,2,2020-06-01 08:00:00,2020-06-01 09:00:00,1,1\n";
  auto read_with = [&](const std::string& locations,
                       const std::string& rentals) {
    WriteBytes(paths.locations, locations);
    WriteBytes(paths.rentals, rentals);
    return Dataset::ReadCsv(paths.locations, paths.rentals).status();
  };
  EXPECT_TRUE(read_with(good_locations, good_rentals).ok());
  const Status no_name =
      read_with("id,lat,lon,is_station\n1,,,0\n", good_rentals);
  EXPECT_EQ(no_name.code(), StatusCode::kDataLoss);
  EXPECT_EQ(no_name.message(), "locations CSV missing a required column");
  const Status no_bike = read_with(
      good_locations,
      "id,start_time,end_time,rental_location_id,return_location_id\n");
  EXPECT_EQ(no_bike.code(), StatusCode::kDataLoss);
  EXPECT_EQ(no_bike.message(), "rentals CSV missing a required column");
  const Status bad_id =
      read_with("id,lat,lon,is_station,name\n1x,,,0,\n", good_rentals);
  EXPECT_EQ(bad_id.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bad_id.message(), "invalid integer: '1x'");
  const Status bad_lat =
      read_with("id,lat,lon,is_station,name\n1,5.3.1,-6,0,\n", good_rentals);
  EXPECT_EQ(bad_lat.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bad_lat.message(), "invalid number: '5.3.1'");
  const Status bad_time = read_with(
      good_locations,
      "id,bike_id,start_time,end_time,rental_location_id,return_location_id\n"
      "1,2,2020-13-01 08:00:00,2020-06-01 09:00:00,1,1\n");
  EXPECT_EQ(bad_time.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_time.message(), "month out of range: 13");
  // Columns are found by name, in any order.
  EXPECT_TRUE(read_with("name,is_station,lon,lat,id\n\"x,y\",1,-6,53,4\n",
                        good_rentals)
                  .ok());
  const std::string nowhere = ::testing::TempDir() + "/no_such_rentals.csv";
  const Status no_file =
      Dataset::ReadCsv(paths.locations, nowhere).status();
  EXPECT_EQ(no_file.code(), StatusCode::kIOError);
  EXPECT_EQ(no_file.message(), "cannot open: " + nowhere);
}

TEST(DatasetTest, WriteCsvToDiskAndBack) {
  Dataset ds = SmallDataset();
  std::string dir = ::testing::TempDir();
  std::string lpath = dir + "/locs.csv", rpath = dir + "/rentals.csv";
  ASSERT_TRUE(ds.WriteCsv(lpath, rpath).ok());
  auto back = Dataset::ReadCsv(lpath, rpath);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Summarize().rental_count, 2u);
  std::remove(lpath.c_str());
  std::remove(rpath.c_str());
}

TEST(RecordTest, HasCoordinatesChecksNan) {
  LocationRecord loc;
  EXPECT_FALSE(loc.has_coordinates());
  loc.position = {53.0, -6.0};
  EXPECT_TRUE(loc.has_coordinates());
  loc.position.lon = std::nan("");
  EXPECT_FALSE(loc.has_coordinates());
}

}  // namespace
}  // namespace bikegraph::data
