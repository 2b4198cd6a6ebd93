#include "data/dataset.h"

#include <cmath>

#include "core/civil_time.h"

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

TEST(DatasetTest, CsvRoundTripPreservesEverything) {
  Dataset ds = SmallDataset();
  auto parsed =
      Dataset::FromCsvStrings(ds.LocationsCsvString(), ds.RentalsCsvString());
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

  auto parsed =
      Dataset::FromCsvStrings(ds.LocationsCsvString(), ds.RentalsCsvString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_FALSE(parsed->locations()[0].has_coordinates());
  EXPECT_EQ(parsed->rentals()[0].rental_location_id, kInvalidId);
  EXPECT_EQ(parsed->rentals()[0].return_location_id, 7);
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
