#include "data/synthetic.h"

#include <bit>
#include <cstdint>
#include <set>
#include <string_view>

#include "data/cleaning.h"
#include "geo/dublin.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::data {
namespace {

/// Small config for fast unit tests (the full-size generator is exercised
/// by the integration test and the benches).
SyntheticConfig SmallConfig() {
  SyntheticConfig cfg;
  cfg.clean_rental_count = 4000;
  cfg.station_count = 40;
  cfg.micro_concentration = 120.0;
  return cfg;
}

TEST(SyntheticTest, DeterministicForSeed) {
  auto a = GenerateSyntheticMoby(SmallConfig());
  auto b = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->locations().size(), b->locations().size());
  ASSERT_EQ(a->rentals().size(), b->rentals().size());
  for (size_t i = 0; i < a->rentals().size(); ++i) {
    EXPECT_EQ(a->rentals()[i].rental_location_id,
              b->rentals()[i].rental_location_id);
    EXPECT_EQ(a->rentals()[i].start_time, b->rentals()[i].start_time);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig c1 = SmallConfig(), c2 = SmallConfig();
  c2.seed = 777;
  auto a = GenerateSyntheticMoby(c1);
  auto b = GenerateSyntheticMoby(c2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Some rentals must differ.
  bool any_diff = a->rentals().size() != b->rentals().size();
  for (size_t i = 0; !any_diff && i < a->rentals().size(); ++i) {
    any_diff = a->rentals()[i].rental_location_id !=
               b->rentals()[i].rental_location_id;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, StationCountsMatchConfig) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  auto summary = ds->Summarize();
  EXPECT_EQ(summary.station_count, 40u + 3u);  // good + bad stations
}

TEST(SyntheticTest, RentalTimesInsideStudyWindow) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  const CivilTime start = CivilTime::FromCalendar(2020, 1, 3).ValueOrDie();
  const CivilTime end = CivilTime::FromCalendar(2021, 9, 21).ValueOrDie();
  for (const auto& r : ds->rentals()) {
    EXPECT_GE(r.start_time, start);
    EXPECT_LT(r.start_time, end);
    EXPECT_GE(r.end_time, r.start_time);
  }
}

TEST(SyntheticTest, CleaningRestoresConfiguredCounts) {
  SyntheticConfig cfg = SmallConfig();
  auto ds = GenerateSyntheticMoby(cfg);
  ASSERT_TRUE(ds.ok());
  auto cleaned = CleanDataset(*ds, geo::DublinLand());
  ASSERT_TRUE(cleaned.ok()) << cleaned.status();
  EXPECT_EQ(cleaned->report.after.rental_count, cfg.clean_rental_count);
  EXPECT_EQ(cleaned->report.after.station_count,
            static_cast<size_t>(cfg.station_count));
  EXPECT_EQ(cleaned->report.stations_removed,
            static_cast<size_t>(cfg.bad_station_count));
}

TEST(SyntheticTest, CleanLocationsAreOnLand) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  auto cleaned = CleanDataset(*ds, geo::DublinLand());
  ASSERT_TRUE(cleaned.ok());
  geo::Region land = geo::DublinLand();
  for (const auto& loc : cleaned->dataset.locations()) {
    ASSERT_TRUE(loc.has_coordinates());
    EXPECT_TRUE(land.Contains(loc.position))
        << loc.id << " at " << loc.position.ToString();
  }
}

TEST(SyntheticTest, GpsJitterCreatesNearDuplicateLocations) {
  // The paper observed many distinct locations < 3 m apart; the generator
  // must reproduce that property.
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  size_t near_duplicates = 0;
  const auto& locs = ds->locations();
  for (size_t i = 0; i + 1 < locs.size() && near_duplicates < 5; ++i) {
    if (!locs[i].has_coordinates()) continue;
    for (size_t j = i + 1; j < std::min(locs.size(), i + 200); ++j) {
      if (!locs[j].has_coordinates()) continue;
      if (geo::HaversineMeters(locs[i].position, locs[j].position) < 3.0) {
        ++near_duplicates;
        break;
      }
    }
  }
  EXPECT_GE(near_duplicates, 5u);
}

TEST(SyntheticTest, StationSitesRespectMinSeparation) {
  SyntheticConfig cfg = SmallConfig();
  auto sites = GenerateStationSites(cfg);
  ASSERT_EQ(sites.size(), static_cast<size_t>(cfg.station_count));
  for (size_t i = 0; i < sites.size(); ++i) {
    for (size_t j = i + 1; j < sites.size(); ++j) {
      EXPECT_GE(geo::HaversineMeters(sites[i], sites[j]),
                cfg.station_min_separation_m - 1.0);
    }
  }
}

TEST(SyntheticTest, BikeIdsWithinFleet) {
  auto ds = GenerateSyntheticMoby(SmallConfig());
  ASSERT_TRUE(ds.ok());
  for (const auto& r : ds->rentals()) {
    EXPECT_GE(r.bike_id, 1);
    EXPECT_LE(r.bike_id, 95);
  }
}

TEST(SyntheticTest, RejectsNonsenseConfig) {
  SyntheticConfig cfg;
  cfg.station_count = 0;
  EXPECT_FALSE(GenerateSyntheticMoby(cfg).ok());
  cfg = SyntheticConfig();
  cfg.clean_rental_count = 0;
  EXPECT_FALSE(GenerateSyntheticMoby(cfg).ok());
  cfg = SyntheticConfig();
  cfg.end_year = 2019;  // window before start
  EXPECT_FALSE(GenerateSyntheticMoby(cfg).ok());
}

/// FNV-1a (64-bit) over fixed-width little-endian fields, so the digest
/// does not depend on struct layout or padding.
class Fnv1a {
 public:
  void Byte(uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bytes(std::string_view bytes) {
    for (char c : bytes) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Locks the generator's output bit for bit: any speed-up of the sampler
// must leave every location and rental field unchanged. The golden values
// were recorded from the generator before its hour-affinity table was
// cached, with glibc's libm: the sampler's exp/log/trig results feed every
// coordinate and time, so another libm may round them differently.
TEST(SyntheticTest, DefaultConfigFingerprintIsStable) {
  SyntheticConfig cfg;
  cfg.seed = 424242;
  auto ds = GenerateSyntheticMoby(cfg);
  ASSERT_TRUE(ds.ok());
  Fnv1a locations;
  for (const LocationRecord& l : ds->locations()) {
    locations.I64(l.id);
    locations.F64(l.position.lat);
    locations.F64(l.position.lon);
    locations.U64(l.is_station ? 1 : 0);
    locations.U64(l.name.size());
    locations.Bytes(l.name);
  }
  Fnv1a rentals;
  for (const RentalRecord& r : ds->rentals()) {
    rentals.I64(r.id);
    rentals.I64(r.bike_id);
    rentals.I64(r.start_time.seconds_since_epoch());
    rentals.I64(r.end_time.seconds_since_epoch());
    rentals.I64(r.rental_location_id);
    rentals.I64(r.return_location_id);
  }
  EXPECT_EQ(ds->locations().size(), 14660u);
  EXPECT_EQ(ds->rentals().size(), 62361u);
  EXPECT_EQ(locations.value(), 0x0af6348a691605d8ULL);
  EXPECT_EQ(rentals.value(), 0xb1221127a378446aULL);
}

TEST(ProfileTest, CommuteWeekdayHasDoubleRush) {
  auto p = HourProfile(geo::Hotspot::Kind::kCommute, /*weekend=*/false);
  // 8am and 5pm dominate midday and night.
  EXPECT_GT(p[8], p[13]);
  EXPECT_GT(p[17], p[13]);
  EXPECT_GT(p[8], p[3] * 10);
}

TEST(ProfileTest, LeisurePeaksMidday) {
  auto p = HourProfile(geo::Hotspot::Kind::kLeisure, /*weekend=*/true);
  int argmax = 0;
  for (int h = 1; h < 24; ++h) {
    if (p[AsIndex(h)] > p[AsIndex(argmax)]) argmax = h;
  }
  EXPECT_GE(argmax, 11);
  EXPECT_LE(argmax, 16);
}

TEST(ProfileTest, DayProfilesContrastWeekend) {
  auto commute = DayProfile(geo::Hotspot::Kind::kCommute);
  auto leisure = DayProfile(geo::Hotspot::Kind::kLeisure);
  // Commute: weekdays above weekend; leisure: the reverse.
  EXPECT_GT(commute[0], commute[5]);
  EXPECT_LT(leisure[0], leisure[5]);
}

TEST(ProfileTest, SeasonalCovidDip) {
  // April 2020 (full lockdown) far below June 2021 (recovery).
  EXPECT_LT(SeasonalFactor(2020, 4), SeasonalFactor(2021, 6) * 0.5);
  // Summer beats winter within a year.
  EXPECT_GT(SeasonalFactor(2021, 7), SeasonalFactor(2021, 1));
}

}  // namespace
}  // namespace bikegraph::data
