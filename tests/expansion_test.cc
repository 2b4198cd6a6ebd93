#include <set>
#include <vector>

#include "core/civil_time.h"
#include "expansion/candidate.h"
#include "expansion/final_network.h"
#include "expansion/pipeline.h"
#include "expansion/selection.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::expansion {
namespace {

using geo::LatLon;
using geo::Offset;

const LatLon kCenter(53.35, -6.26);

CivilTime At(int day, int hour) {
  return CivilTime::FromCalendar(2020, 6, day, hour, 0, 0).ValueOrDie();
}

data::RentalRecord Rental(int64_t id, int64_t from, int64_t to, int day = 1,
                          int hour = 8) {
  data::RentalRecord r;
  r.id = id;
  r.bike_id = 1;
  r.start_time = At(day, hour);
  r.end_time = At(day, hour + 1);
  r.rental_location_id = from;
  r.return_location_id = to;
  return r;
}

/// Fixture: 2 stations 1 km apart; a tight dockless cluster 400 m from
/// station A with heavy traffic; a lone low-traffic location; and a
/// dockless location within absorption range of station B.
data::Dataset Fixture() {
  std::vector<data::LocationRecord> locs = {
      {1, kCenter, true, "Stn A"},
      {2, Offset(kCenter, 1000.0, 90.0), true, "Stn B"},
      // Tight free cluster ~400 m north of A (3 locations within 40 m).
      {10, Offset(kCenter, 400.0, 0.0), false, ""},
      {11, Offset(Offset(kCenter, 400.0, 0.0), 30.0, 90.0), false, ""},
      {12, Offset(Offset(kCenter, 400.0, 0.0), 30.0, 200.0), false, ""},
      // Lone low-traffic location far away.
      {20, Offset(kCenter, 2000.0, 180.0), false, ""},
      // Absorbed by station B (within 50 m).
      {30, Offset(Offset(kCenter, 1000.0, 90.0), 25.0, 0.0), false, ""},
  };
  std::vector<data::RentalRecord> rentals;
  int64_t id = 1;
  // Stations are busy (station degree floor: A and B both high).
  for (int i = 0; i < 6; ++i) rentals.push_back(Rental(id++, 1, 2));
  for (int i = 0; i < 5; ++i) rentals.push_back(Rental(id++, 2, 1));
  // The tight cluster is heavily used: its degree (17) must clear the
  // weakest station's degree (B group: 6 from + 7 to = 13).
  for (int i = 0; i < 10; ++i) rentals.push_back(Rental(id++, 10, 1));
  for (int i = 0; i < 6; ++i) rentals.push_back(Rental(id++, 1, 11));
  rentals.push_back(Rental(id++, 12, 2));
  // The lone location sees a single trip (below threshold).
  rentals.push_back(Rental(id++, 20, 1));
  // The absorbed location trades with A.
  rentals.push_back(Rental(id++, 30, 1));
  return data::Dataset(std::move(locs), std::move(rentals));
}

TEST(CandidateTest, BuildsGroupsAndGraph) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok()) << net.status();
  // Groups: 2 stations + free clusters {10,11,12} and {20}.
  EXPECT_EQ(net->fixed_count, 2u);
  EXPECT_EQ(net->free_count(), 2u);
  EXPECT_EQ(net->graph.NodeCount(), 4u);
  EXPECT_EQ(net->graph.EdgeCount(), 30u);  // one edge per rental

  // Location 30 absorbed into station B's group.
  EXPECT_EQ(net->location_to_candidate.at(30),
            net->location_to_candidate.at(2));
  // The tight cluster groups all three locations.
  EXPECT_EQ(net->location_to_candidate.at(10),
            net->location_to_candidate.at(11));
  EXPECT_EQ(net->location_to_candidate.at(11),
            net->location_to_candidate.at(12));
}

TEST(CandidateTest, DegreesCountTripEndpoints) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  const int32_t cluster = net->location_to_candidate.at(10);
  EXPECT_EQ(net->candidates[AsIndex(cluster)].trips_from, 11);  // 10 from 10 + 1 from 12
  EXPECT_EQ(net->candidates[AsIndex(cluster)].trips_to, 6);
  EXPECT_EQ(net->candidates[AsIndex(cluster)].degree(), 17);
}

TEST(TripRowsTest, RowIOfBothNetworksIsRentalI) {
  // Fixture() with every rental moved to its own weekday and hour.
  const data::Dataset base = Fixture();
  std::vector<data::RentalRecord> rentals = base.rentals();
  for (size_t i = 0; i < rentals.size(); ++i) {
    const int day = 1 + static_cast<int>(i % 7);  // 2020-06-01 is a Monday
    const int hour = static_cast<int>((5 * i) % 23);
    rentals[i].start_time = At(day, hour);
    rentals[i].end_time = At(day, hour + 1);
  }
  const data::Dataset ds(base.locations(), std::move(rentals));
  auto net = BuildCandidateNetwork(ds);
  ASSERT_TRUE(net.ok()) << net.status();
  auto sel = SelectStations(*net);
  ASSERT_TRUE(sel.ok()) << sel.status();
  auto fin = BuildFinalNetwork(ds, *net, *sel);
  ASSERT_TRUE(fin.ok()) << fin.status();
  ASSERT_EQ(net->graph.EdgeCount(), ds.rentals().size());
  ASSERT_EQ(fin->graph.EdgeCount(), ds.rentals().size());
  for (size_t i = 0; i < ds.rentals().size(); ++i) {
    const data::RentalRecord& rental = ds.rentals()[i];
    const graphdb::Trip& cand = net->graph.trips()[i];
    EXPECT_EQ(cand.from,
              net->location_to_candidate.at(rental.rental_location_id))
        << "row " << i;
    EXPECT_EQ(cand.to,
              net->location_to_candidate.at(rental.return_location_id))
        << "row " << i;
    const graphdb::Trip& final_trip = fin->graph.trips()[i];
    EXPECT_EQ(final_trip.from,
              fin->location_to_station.at(rental.rental_location_id))
        << "row " << i;
    EXPECT_EQ(final_trip.to,
              fin->location_to_station.at(rental.return_location_id))
        << "row " << i;
    for (const graphdb::Trip* trip : {&cand, &final_trip}) {
      EXPECT_EQ(trip->day, static_cast<int>(i % 7)) << "row " << i;
      EXPECT_EQ(trip->hour, static_cast<int>((5 * i) % 23)) << "row " << i;
    }
  }
}

TEST(CandidateTest, RejectsUncleanedDataset) {
  // A location without coordinates must be rejected (cleaning contract).
  std::vector<data::LocationRecord> locs = {{1, kCenter, true, "Stn"}};
  data::LocationRecord broken;
  broken.id = 2;
  locs.push_back(broken);
  data::Dataset ds(std::move(locs), {});
  EXPECT_FALSE(BuildCandidateNetwork(ds).ok());
}

TEST(SelectionTest, ThresholdFromWeakestStation) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  auto sel = SelectStations(*net);
  ASSERT_TRUE(sel.ok());
  // Station A degree: trips touching A; Station B smaller. Threshold is
  // min of the two; the tight cluster (degree 17) passes, the lone one (2)
  // fails.
  const int32_t cluster = net->location_to_candidate.at(10);
  const int32_t lone = net->location_to_candidate.at(20);
  EXPECT_EQ(sel->selected.size(), 1u);
  EXPECT_EQ(sel->selected[0], cluster);
  EXPECT_EQ(sel->reasons[AsIndex(lone)], RejectionReason::kBelowDegree);
  EXPECT_GT(sel->degree_threshold, 0);
}

TEST(SelectionTest, SecondaryDistanceRejectsNearStation) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  SelectionParams params;
  params.secondary_distance_m = 500.0;  // cluster is ~400 m from Stn A
  auto sel = SelectStations(*net, params);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->selected.empty());
  const int32_t cluster = net->location_to_candidate.at(10);
  EXPECT_EQ(sel->reasons[AsIndex(cluster)], RejectionReason::kNearFixedStation);
}

TEST(SelectionTest, ThresholdOverride) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  SelectionParams params;
  params.degree_threshold_override = 1;
  auto sel = SelectStations(*net, params);
  ASSERT_TRUE(sel.ok());
  // Both free candidates now pass the degree rule (lone has degree 2).
  EXPECT_EQ(sel->selected.size(), 2u);
  EXPECT_EQ(sel->degree_threshold, 1);
  // Ranked by degree descending.
  EXPECT_GE(sel->scores[AsIndex(sel->selected[0])], sel->scores[AsIndex(sel->selected[1])]);
}

TEST(SelectionTest, PairwiseSuppressionKeepsHigherDegree) {
  // Two strong candidate clusters 150 m apart: only the stronger survives.
  std::vector<data::LocationRecord> locs = {
      {1, kCenter, true, "Stn"},
      {10, Offset(kCenter, 600.0, 0.0), false, ""},
      {11, Offset(kCenter, 750.0, 0.0), false, ""},
  };
  std::vector<data::RentalRecord> rentals;
  int64_t id = 1;
  for (int i = 0; i < 2; ++i) rentals.push_back(Rental(id++, 1, 1));
  for (int i = 0; i < 6; ++i) rentals.push_back(Rental(id++, 10, 1));
  for (int i = 0; i < 4; ++i) rentals.push_back(Rental(id++, 11, 1));
  data::Dataset ds(std::move(locs), std::move(rentals));

  auto net = BuildCandidateNetwork(ds);
  ASSERT_TRUE(net.ok());
  SelectionParams params;
  params.degree_threshold_override = 1;
  auto sel = SelectStations(*net, params);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->selected.size(), 1u);
  EXPECT_EQ(sel->selected[0], net->location_to_candidate.at(10));
  EXPECT_EQ(sel->reasons[AsIndex(net->location_to_candidate.at(11))],
            RejectionReason::kSuppressedByPeer);
  EXPECT_GE(sel->suppression_rounds, 1);
}

TEST(SelectionTest, SelectedCandidatesAreMutuallyDistant) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  SelectionParams params;
  params.degree_threshold_override = 1;
  auto sel = SelectStations(*net, params);
  ASSERT_TRUE(sel.ok());
  for (size_t i = 0; i < sel->selected.size(); ++i) {
    for (size_t j = i + 1; j < sel->selected.size(); ++j) {
      EXPECT_GT(geo::HaversineMeters(
                    net->candidates[AsIndex(sel->selected[i])].centroid,
                    net->candidates[AsIndex(sel->selected[j])].centroid),
                params.secondary_distance_m);
    }
  }
}

TEST(SelectionTest, NoFixedStationsIsError) {
  std::vector<data::LocationRecord> locs = {{10, kCenter, false, ""}};
  std::vector<data::RentalRecord> rentals = {Rental(1, 10, 10)};
  data::Dataset ds(std::move(locs), std::move(rentals));
  auto net = BuildCandidateNetwork(ds);
  ASSERT_TRUE(net.ok());
  EXPECT_FALSE(SelectStations(*net).ok());
  SelectionParams params;
  params.degree_threshold_override = 1;
  EXPECT_TRUE(SelectStations(*net, params).ok());
}

TEST(FinalNetworkTest, TripsConservedAfterReassignment) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  auto sel = SelectStations(*net);
  ASSERT_TRUE(sel.ok());
  auto fixture = Fixture();
  auto fin = BuildFinalNetwork(fixture, *net, *sel);
  ASSERT_TRUE(fin.ok()) << fin.status();
  // All 30 trips survive (the paper's invariant: reassignment keeps totals).
  EXPECT_EQ(fin->graph.EdgeCount(), 30u);
  EXPECT_EQ(fin->stations.size(), 2u + sel->selected.size());
  EXPECT_EQ(fin->pre_existing_count, 2u);
  // Lone location 20 was not selected -> reassigned to nearest station.
  EXPECT_GE(fin->reassigned_locations, 1u);
  // Every location maps to a station.
  for (const auto& loc : fixture.locations()) {
    EXPECT_TRUE(fin->location_to_station.count(loc.id)) << loc.id;
  }
}

TEST(FinalNetworkTest, StatsShapeMatchesTableThree) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  auto sel = SelectStations(*net);
  ASSERT_TRUE(sel.ok());
  auto fixture = Fixture();
  auto fin = BuildFinalNetwork(fixture, *net, *sel);
  ASSERT_TRUE(fin.ok());
  auto stats = fin->ComputeStats();
  EXPECT_EQ(stats.pre_existing.stations, 2u);
  EXPECT_EQ(stats.selected.stations, 1u);
  EXPECT_EQ(stats.total_trips, 30);
  EXPECT_EQ(stats.pre_existing.trips_from + stats.selected.trips_from,
            stats.total_trips);
  EXPECT_EQ(stats.pre_existing.trips_to + stats.selected.trips_to,
            stats.total_trips);
  EXPECT_EQ(stats.pre_existing.edges_from + stats.selected.edges_from,
            stats.total_edges);
  EXPECT_EQ(stats.pre_existing.edges_to + stats.selected.edges_to,
            stats.total_edges);
}

TEST(FinalNetworkTest, NewStationsNamedByRank) {
  auto net = BuildCandidateNetwork(Fixture());
  ASSERT_TRUE(net.ok());
  SelectionParams params;
  params.degree_threshold_override = 1;
  auto sel = SelectStations(*net, params);
  ASSERT_TRUE(sel.ok());
  auto fixture = Fixture();
  auto fin = BuildFinalNetwork(fixture, *net, *sel);
  ASSERT_TRUE(fin.ok());
  ASSERT_EQ(fin->selected_count(), 2u);
  EXPECT_EQ(fin->stations[2].name, "New Stn #1");
  EXPECT_EQ(fin->stations[3].name, "New Stn #2");
  EXPECT_FALSE(fin->stations[2].pre_existing);
  EXPECT_TRUE(fin->stations[0].pre_existing);
}

TEST(PipelineTest, EndToEndOnFixture) {
  auto result = RunExpansionPipeline(Fixture());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cleaning_report.after.rental_count, 30u);
  EXPECT_EQ(result->final_network.pre_existing_count, 2u);
  EXPECT_EQ(result->final_network.graph.EdgeCount(), 30u);
}

}  // namespace
}  // namespace bikegraph::expansion
