#include <cmath>

#include "analysis/community_stats.h"
#include "analysis/temporal_graph.h"
#include "core/civil_time.h"
#include "expansion/pipeline.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

namespace bikegraph::analysis {
namespace {

using geo::LatLon;
using geo::Offset;

const LatLon kCenter(53.35, -6.26);

/// Builds a tiny trip multigraph directly: 3 stations; trips carry day/hour.
graphdb::TripGraph TinyTrips() {
  graphdb::TripGraph g(3);
  auto add = [&](int32_t from, int32_t to, int day, int hour) {
    EXPECT_TRUE(g.AddTrip(from, to, day, hour).ok());
  };
  // Stations 0,1: weekday-morning trade. Station 2: weekend-midday loops.
  for (int i = 0; i < 10; ++i) add(0, 1, /*day=*/1, /*hour=*/8);
  for (int i = 0; i < 10; ++i) add(1, 0, 2, 9);
  for (int i = 0; i < 8; ++i) add(2, 2, 5, 13);
  add(0, 2, 1, 8);
  return g;
}

TEST(ProfilesTest, ExtractCountsEndpoints) {
  const StationProfiles profiles = ExtractStationProfiles(TinyTrips());
  // Station 0: 10 out (day1 h8) + 10 in (day2 h9) + 1 out (day1 h8).
  EXPECT_DOUBLE_EQ(profiles.day[0][1], 11.0);
  EXPECT_DOUBLE_EQ(profiles.day[0][2], 10.0);
  EXPECT_DOUBLE_EQ(profiles.hour[0][8], 11.0);
  // Station 2: self-loops count twice per trip (both endpoints).
  EXPECT_DOUBLE_EQ(profiles.day[2][5], 16.0);
  EXPECT_DOUBLE_EQ(profiles.hour[2][13], 16.0);
}

TEST(ProfilesTest, SimilarityBounds) {
  const StationProfiles profiles = ExtractStationProfiles(TinyTrips());
  // Identical profile => 1.
  EXPECT_DOUBLE_EQ(profiles.Similarity(0, 0, TemporalGranularity::kDay), 1.0);
  // Null granularity => always 1.
  EXPECT_DOUBLE_EQ(profiles.Similarity(0, 2, TemporalGranularity::kNull),
                   1.0);
  // Weekday pair vs weekend station: dissimilar.
  double d01 = profiles.Similarity(0, 1, TemporalGranularity::kDay);
  double d02 = profiles.Similarity(0, 2, TemporalGranularity::kDay);
  EXPECT_GT(d01, d02);
  EXPECT_GE(d02, 0.0);
  EXPECT_LE(d01, 1.0);
}

TEST(TemporalGraphTest, NullGranularityCountsTrips) {
  auto g = BuildTemporalGraph(TinyTrips());
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->WeightBetween(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(g->self_weight(2), 8.0);
  EXPECT_DOUBLE_EQ(g->WeightBetween(0, 2), 1.0);
}

TEST(TemporalGraphTest, TemporalModulationWeakensDissimilarPairs) {
  TemporalGraphOptions day_opts{TemporalGranularity::kDay, 0.05, 1.0};
  auto basic = BuildTemporalGraph(TinyTrips());
  auto day = BuildTemporalGraph(TinyTrips(), day_opts);
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(day.ok());
  // The 0-2 edge joins temporally dissimilar stations: its relative weight
  // must shrink under the day projection.
  double basic_ratio = basic->WeightBetween(0, 2) / basic->WeightBetween(0, 1);
  double day_ratio = day->WeightBetween(0, 2) / day->WeightBetween(0, 1);
  EXPECT_LT(day_ratio, basic_ratio);
}

TEST(TemporalGraphTest, ContrastSharpens) {
  TemporalGraphOptions soft{TemporalGranularity::kHour, 0.0, 1.0};
  TemporalGraphOptions sharp{TemporalGranularity::kHour, 0.0, 8.0};
  auto g_soft = BuildTemporalGraph(TinyTrips(), soft);
  auto g_sharp = BuildTemporalGraph(TinyTrips(), sharp);
  ASSERT_TRUE(g_soft.ok());
  ASSERT_TRUE(g_sharp.ok());
  EXPECT_LT(g_sharp->WeightBetween(0, 2), g_soft->WeightBetween(0, 2));
  // Similar pairs keep weight ~unchanged: trips between 0 and 1 are at
  // nearby hours, so sharpening must hit 0-2 harder than 0-1.
  EXPECT_LT(g_sharp->WeightBetween(0, 2) / g_soft->WeightBetween(0, 2),
            g_sharp->WeightBetween(0, 1) / g_soft->WeightBetween(0, 1) + 1e-9);
}

TEST(TemporalGraphTest, FloorBoundsWeights) {
  TemporalGraphOptions opts{TemporalGranularity::kDay, 0.2, 4.0};
  auto g = BuildTemporalGraph(TinyTrips(), opts);
  ASSERT_TRUE(g.ok());
  // Every projected edge weight is >= floor * trip count.
  EXPECT_GE(g->WeightBetween(0, 2), 0.2 * 1.0 - 1e-12);
  EXPECT_LE(g->WeightBetween(0, 1), 20.0 + 1e-12);
}

TEST(TemporalGraphTest, RejectsBadOptions) {
  TemporalGraphOptions opts;
  opts.similarity_floor = 1.5;
  EXPECT_FALSE(BuildTemporalGraph(TinyTrips(), opts).ok());
}

// ---------------------------------------------------------------------------
// Edge cases the sliding-window path hits: zero-activity stations,
// single-trip graphs, and profiles that have drained back to empty.
// ---------------------------------------------------------------------------

TEST(TemporalGraphTest, ZeroActivityStationsStayIsolatedButValid) {
  graphdb::TripGraph g(4);
  ASSERT_TRUE(g.AddTrip(0, 1, /*day=*/2, /*hour=*/8).ok());
  // Stations 2 and 3 never trade: the projections must keep them as
  // isolated nodes at every granularity, not drop or crash on them.
  for (TemporalGranularity granularity :
       {TemporalGranularity::kNull, TemporalGranularity::kDay,
        TemporalGranularity::kHour}) {
    TemporalGraphOptions opts;
    opts.granularity = granularity;
    auto projected = BuildTemporalGraph(g, opts);
    ASSERT_TRUE(projected.ok());
    EXPECT_EQ(projected->node_count(), 4u);
    EXPECT_EQ(projected->degree(2), 0u);
    EXPECT_DOUBLE_EQ(projected->strength(3), 0.0);
  }
  // Zero-activity profiles compare as "no evidence of dissimilarity".
  const StationProfiles profiles = ExtractStationProfiles(g);
  EXPECT_DOUBLE_EQ(profiles.Similarity(2, 3, TemporalGranularity::kDay), 1.0);
  EXPECT_DOUBLE_EQ(profiles.Similarity(2, 0, TemporalGranularity::kHour),
                   1.0);
}

TEST(TemporalGraphTest, SingleTripGraphKeepsFullWeight) {
  graphdb::TripGraph g(2);
  ASSERT_TRUE(g.AddTrip(0, 1, /*day=*/4, /*hour=*/18).ok());
  // A single trip gives both endpoints identical one-spike profiles, so
  // similarity is exactly 1 and the projected weight stays 1 at every
  // granularity and any contrast.
  for (double contrast : {1.0, 8.0, 28.0}) {
    TemporalGraphOptions opts{TemporalGranularity::kHour, 0.05, contrast};
    auto projected = BuildTemporalGraph(g, opts);
    ASSERT_TRUE(projected.ok());
    EXPECT_DOUBLE_EQ(projected->WeightBetween(0, 1), 1.0);
  }
}

TEST(TemporalGraphTest, SingleLoopTripCountsBothEndpoints) {
  graphdb::TripGraph g(1);
  ASSERT_TRUE(g.AddTrip(0, 0, /*day=*/0, /*hour=*/7).ok());
  const StationProfiles profiles = ExtractStationProfiles(g);
  // Loop trips contribute both endpoints to the same station.
  EXPECT_DOUBLE_EQ(profiles.day[0][0], 2.0);
  EXPECT_DOUBLE_EQ(profiles.hour[0][7], 2.0);
  TemporalGraphOptions opts{TemporalGranularity::kDay, 0.1, 2.0};
  auto projected = BuildTemporalGraph(g, opts);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->self_loop_count(), 1u);
  EXPECT_DOUBLE_EQ(projected->self_weight(0), 1.0);
}

TEST(TemporalGraphTest, EmptyTripGraphProjectsToEmptyGraph) {
  // The state a drained window reaches: stations exist, nothing trades.
  graphdb::TripGraph g(3);
  for (TemporalGranularity granularity :
       {TemporalGranularity::kNull, TemporalGranularity::kDay,
        TemporalGranularity::kHour}) {
    TemporalGraphOptions opts;
    opts.granularity = granularity;
    auto projected = BuildTemporalGraph(g, opts);
    ASSERT_TRUE(projected.ok());
    EXPECT_EQ(projected->node_count(), 3u);
    EXPECT_EQ(projected->edge_count(), 0u);
    EXPECT_DOUBLE_EQ(projected->total_weight(), 0.0);
  }
  const StationProfiles profiles = ExtractStationProfiles(g);
  // All-empty profiles: similarity defaults to 1 everywhere.
  EXPECT_DOUBLE_EQ(profiles.Similarity(0, 1, TemporalGranularity::kDay), 1.0);
  EXPECT_DOUBLE_EQ(profiles.Similarity(1, 2, TemporalGranularity::kHour),
                   1.0);
}

/// End-to-end mini network for the community-stats contract.
expansion::FinalNetwork MiniNetwork() {
  std::vector<data::LocationRecord> locs = {
      {1, kCenter, true, "A"},
      {2, Offset(kCenter, 600.0, 90.0), true, "B"},
      {3, Offset(kCenter, 5000.0, 0.0), true, "C"},
  };
  std::vector<data::RentalRecord> rentals;
  int64_t id = 1;
  auto add = [&](int64_t from, int64_t to, int day, int hour) {
    data::RentalRecord r;
    r.id = id++;
    r.bike_id = 1;
    r.start_time =
        CivilTime::FromCalendar(2020, 6, 1 + day, hour, 0, 0).ValueOrDie();
    r.end_time = r.start_time.AddSeconds(600);
    r.rental_location_id = from;
    r.return_location_id = to;
    rentals.push_back(r);
  };
  for (int i = 0; i < 6; ++i) add(1, 2, 0, 8);   // within AB block
  for (int i = 0; i < 4; ++i) add(2, 1, 1, 9);
  for (int i = 0; i < 5; ++i) add(3, 3, 5, 13);  // C loops
  add(1, 3, 2, 10);                              // cross
  add(3, 2, 3, 17);                              // cross
  data::Dataset ds(std::move(locs), std::move(rentals));
  auto pipeline = expansion::RunExpansionPipeline(ds);
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline->final_network);
}

TEST(CommunityStatsTest, WithinOutInAccounting) {
  expansion::FinalNetwork net = MiniNetwork();
  community::Partition p;
  p.assignment = {0, 0, 1};  // A,B together; C alone
  auto stats = ComputeCommunityTripStats(net, p);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->rows.size(), 2u);
  EXPECT_EQ(stats->rows[0].within, 10);
  EXPECT_EQ(stats->rows[0].out, 1);
  EXPECT_EQ(stats->rows[0].in, 1);
  EXPECT_EQ(stats->rows[1].within, 5);
  EXPECT_EQ(stats->rows[0].old_stations, 2u);
  EXPECT_EQ(stats->rows[0].new_stations, 0u);
  // Paper "Total" column: within + out + in.
  EXPECT_EQ(stats->rows[0].total_trips(), 12);
  EXPECT_EQ(stats->TotalTrips(), 17);
  EXPECT_NEAR(stats->SelfContainedFraction(), 15.0 / 17.0, 1e-12);
}

TEST(CommunityStatsTest, SizeMismatchRejected) {
  expansion::FinalNetwork net = MiniNetwork();
  community::Partition p;
  p.assignment = {0, 0};  // too short
  EXPECT_FALSE(ComputeCommunityTripStats(net, p).ok());
  EXPECT_FALSE(CommunityDayShares(net, p).ok());
}

TEST(CommunityStatsTest, DaySharesSumToOne) {
  expansion::FinalNetwork net = MiniNetwork();
  community::Partition p;
  p.assignment = {0, 0, 1};
  auto shares = CommunityDayShares(net, p);
  ASSERT_TRUE(shares.ok());
  for (const auto& row : *shares) {
    double total = 0.0;
    for (double v : row) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  // Community 1 (station C) is weekend-heavy: day 5 dominates.
  EXPECT_GT((*shares)[1][5], 0.5);
}

TEST(CommunityStatsTest, HourSharesAttributeToOriginCommunity) {
  expansion::FinalNetwork net = MiniNetwork();
  community::Partition p;
  p.assignment = {0, 0, 1};
  auto shares = CommunityHourShares(net, p);
  ASSERT_TRUE(shares.ok());
  // Community 0 trips start at hours 8,9,10 only.
  EXPECT_GT((*shares)[0][8], 0.4);
  EXPECT_DOUBLE_EQ((*shares)[0][13], 0.0);
  // Community 1 starts at 13 and 17.
  EXPECT_GT((*shares)[1][13], 0.5);
}

TEST(PatternTest, DayPatternClassification) {
  std::array<double, 7> commute = {0.18, 0.18, 0.18, 0.18, 0.18, 0.05, 0.05};
  std::array<double, 7> leisure = {0.08, 0.08, 0.08, 0.08, 0.12, 0.30, 0.26};
  std::array<double, 7> flat = {0.14, 0.14, 0.14, 0.15, 0.15, 0.14, 0.14};
  EXPECT_EQ(ClassifyDayPattern(commute), DayPattern::kWeekdayCommute);
  EXPECT_EQ(ClassifyDayPattern(leisure), DayPattern::kWeekendLeisure);
  EXPECT_EQ(ClassifyDayPattern(flat), DayPattern::kFlat);
}

TEST(PatternTest, HourPatternClassification) {
  std::array<double, 24> commute{};
  commute[8] = 0.3;
  commute[17] = 0.3;
  commute[13] = 0.05;
  std::array<double, 24> midday{};
  midday[12] = 0.2;
  midday[13] = 0.3;
  midday[14] = 0.2;
  EXPECT_EQ(ClassifyHourPattern(commute), HourPattern::kCommute);
  EXPECT_EQ(ClassifyHourPattern(midday), HourPattern::kMiddayLeisure);
}

}  // namespace
}  // namespace bikegraph::analysis
