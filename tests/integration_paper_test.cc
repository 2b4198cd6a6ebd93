// End-to-end integration test: runs the full paper reproduction at the
// calibrated scale and asserts the *shape* constraints of every table and
// figure, since a synthetic substrate cannot match the paper's absolute
// values. This is the executable contract that the bench harnesses print.

#include <set>

#include "analysis/experiment.h"
#include "geo/haversine.h"
#include "metrics/graph_stats.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph {
namespace {

/// Shared across tests: the experiment takes ~1 s, run it once.
const analysis::ExperimentResult& Experiment() {
  static const analysis::ExperimentResult* result = [] {
    auto r = analysis::RunPaperExperiment(analysis::ExperimentConfig{});
    EXPECT_TRUE(r.ok()) << r.status();
    return new analysis::ExperimentResult(std::move(r).ValueOrDie());
  }();
  return *result;
}

TEST(PaperIntegrationTest, TableOneDatasetShape) {
  const auto& rep = Experiment().pipeline.cleaning_report;
  // Paper: 95 -> 92 stations, 62,324 -> 61,872 rentals, 14,239 -> 14,156
  // locations. Station counts match exactly; volumes within 10%.
  EXPECT_EQ(rep.before.station_count, 95u);
  EXPECT_EQ(rep.after.station_count, 92u);
  EXPECT_EQ(rep.after.rental_count, 61872u);
  EXPECT_NEAR(static_cast<double>(rep.before.rental_count), 62324.0, 800.0);
  EXPECT_NEAR(static_cast<double>(rep.before.location_count), 14239.0,
              1500.0);
  EXPECT_NEAR(static_cast<double>(rep.after.location_count), 14156.0, 1500.0);
  // Cleaning removes a small fraction, as in the paper (<2%).
  EXPECT_LT(rep.TotalRentalsDropped(), rep.before.rental_count / 50);
}

TEST(PaperIntegrationTest, TableTwoCandidateGraphShape) {
  const auto& net = Experiment().pipeline.candidate_network;
  auto counts = metrics::CountGraph(net.graph);
  // Paper: 1,172 nodes / 61,872 trips / 16,042 directed edges.
  EXPECT_NEAR(static_cast<double>(counts.nodes), 1172.0, 200.0);
  EXPECT_EQ(counts.trips, 61872u);
  EXPECT_GT(counts.directed_edges, counts.undirected_edges);
  EXPECT_GT(counts.undirected_edges, counts.undirected_edges_no_loops);
  EXPECT_GT(counts.directed_edges, counts.directed_edges_no_loops);
  // Far fewer distinct pairs than trips (heavy reuse of popular routes).
  EXPECT_LT(counts.directed_edges, counts.trips);
}

TEST(PaperIntegrationTest, TableThreeSelectedGraphShape) {
  const auto& net = Experiment().pipeline.final_network;
  const auto stats = net.ComputeStats();
  // Paper: 92 pre-existing + 146 new = 238.
  EXPECT_EQ(net.pre_existing_count, 92u);
  EXPECT_NEAR(static_cast<double>(net.selected_count()), 146.0, 40.0);
  // Trip conservation.
  EXPECT_EQ(stats.total_trips, 61872);
  EXPECT_EQ(stats.pre_existing.trips_from + stats.selected.trips_from,
            stats.total_trips);
  // Pre-existing stations dominate traffic (paper: 88% of starts).
  EXPECT_GT(stats.pre_existing.trips_from, stats.total_trips * 7 / 10);
  // New stations carry real traffic (paper: ~12%).
  EXPECT_GT(stats.selected.trips_from, stats.total_trips / 20);
}

// Exact Table II / III values for the default ExperimentConfig. The trip
// multigraph's storage and readers must not move any of them; only a
// change to the generator, cleaning, clustering or selection may.
TEST(PaperIntegrationTest, TableTwoCountersArePinned) {
  const auto counts =
      metrics::CountGraph(Experiment().pipeline.candidate_network.graph);
  EXPECT_EQ(counts.nodes, 1055u);
  EXPECT_EQ(counts.undirected_edges, 19096u);
  EXPECT_EQ(counts.undirected_edges_no_loops, 18892u);
  EXPECT_EQ(counts.directed_edges, 23612u);
  EXPECT_EQ(counts.directed_edges_no_loops, 23408u);
  EXPECT_EQ(counts.trips, 61872u);
}

TEST(PaperIntegrationTest, TableThreeStatsArePinned) {
  const auto stats = Experiment().pipeline.final_network.ComputeStats();
  EXPECT_EQ(stats.pre_existing.stations, 92u);
  EXPECT_EQ(stats.pre_existing.trips_from, 49475);
  EXPECT_EQ(stats.pre_existing.trips_to, 49799);
  EXPECT_EQ(stats.pre_existing.edges_from, 8364u);
  EXPECT_EQ(stats.pre_existing.edges_to, 8511u);
  EXPECT_EQ(stats.selected.stations, 141u);
  EXPECT_EQ(stats.selected.trips_from, 12397);
  EXPECT_EQ(stats.selected.trips_to, 12073);
  EXPECT_EQ(stats.selected.edges_from, 5440u);
  EXPECT_EQ(stats.selected.edges_to, 5293u);
  EXPECT_EQ(stats.total_trips, 61872);
  EXPECT_EQ(stats.total_edges, 13804u);
}

TEST(PaperIntegrationTest, SelectionObeysAllRules) {
  const auto& pipeline = Experiment().pipeline;
  const auto& net = pipeline.candidate_network;
  const auto& sel = pipeline.selection;
  // Rule 3: every selected candidate clears the threshold.
  for (int32_t c : sel.selected) {
    EXPECT_GE(net.candidates[AsIndex(c)].degree(), sel.degree_threshold);
  }
  // Rule 4: >=250 m from every fixed station and from each other.
  std::vector<geo::LatLon> fixed;
  for (const auto& cand : net.candidates) {
    if (cand.is_fixed()) fixed.push_back(cand.centroid);
  }
  for (size_t i = 0; i < sel.selected.size(); ++i) {
    const auto& pos = net.candidates[AsIndex(sel.selected[i])].centroid;
    for (const auto& st : fixed) {
      EXPECT_GT(geo::HaversineMeters(pos, st), 250.0);
    }
    for (size_t j = i + 1; j < sel.selected.size(); ++j) {
      EXPECT_GT(geo::HaversineMeters(
                    pos, net.candidates[AsIndex(sel.selected[j])].centroid),
                250.0);
    }
  }
}

TEST(PaperIntegrationTest, CommunityCountsGrowWithGranularity) {
  const auto& r = Experiment();
  const size_t k_basic = r.gbasic.detection.partition.CommunityCount();
  const size_t k_day = r.gday.detection.partition.CommunityCount();
  const size_t k_hour = r.ghour.detection.partition.CommunityCount();
  // Paper: 3 -> 7 -> 10.
  EXPECT_GE(k_basic, 3u);
  EXPECT_LE(k_basic, 8u);
  EXPECT_GT(k_day, k_basic - 1);
  EXPECT_GT(k_hour, k_day);
  EXPECT_LE(k_hour, 16u);
}

TEST(PaperIntegrationTest, ModularityGrowsWithGranularity) {
  const auto& r = Experiment();
  // Paper: 0.25 -> 0.32 -> 0.54; ours must be positive and monotone.
  EXPECT_GT(r.gbasic.detection.modularity, 0.15);
  EXPECT_LT(r.gbasic.detection.modularity, 0.45);
  EXPECT_GT(r.gday.detection.modularity, r.gbasic.detection.modularity);
  EXPECT_GT(r.ghour.detection.modularity, r.gday.detection.modularity);
  EXPECT_LT(r.ghour.detection.modularity, 0.75);
}

TEST(PaperIntegrationTest, CommunitiesAreLargelySelfContained) {
  const auto& r = Experiment();
  // Paper: ~74% of GBasic trips start and end in the same community
  // (London 75%, Beijing 77%). Ours must clear 50% with few communities.
  EXPECT_GT(r.gbasic.stats.SelfContainedFraction(), 0.50);
  EXPECT_EQ(r.gbasic.stats.TotalTrips(), 61872);
}

TEST(PaperIntegrationTest, CommunitiesMixOldAndNewStations) {
  const auto& stats = Experiment().gbasic.stats;
  size_t total_old = 0, total_new = 0, with_both = 0;
  for (const auto& row : stats.rows) {
    total_old += row.old_stations;
    total_new += row.new_stations;
    if (row.old_stations > 0 && row.new_stations > 0) ++with_both;
  }
  EXPECT_EQ(total_old, 92u);
  EXPECT_EQ(total_new, Experiment().pipeline.final_network.selected_count());
  // New stations are not outliers: most communities contain both kinds
  // (the paper's validation question in §V-C).
  EXPECT_GE(with_both * 2, stats.rows.size());
}

TEST(PaperIntegrationTest, FigFiveDayPatternsSplit) {
  const auto& r = Experiment();
  auto shares = analysis::CommunityDayShares(r.pipeline.final_network,
                                             r.gday.detection.partition);
  ASSERT_TRUE(shares.ok());
  size_t commute = 0, leisure = 0;
  for (const auto& row : *shares) {
    switch (analysis::ClassifyDayPattern(row)) {
      case analysis::DayPattern::kWeekdayCommute:
        ++commute;
        break;
      case analysis::DayPattern::kWeekendLeisure:
        ++leisure;
        break;
      case analysis::DayPattern::kFlat:
        break;
    }
  }
  // Paper Fig. 5: some GDay communities trough at the weekend (commute),
  // others peak on Saturday (leisure).
  EXPECT_GE(commute, 1u);
  EXPECT_GE(leisure, 1u);
}

TEST(PaperIntegrationTest, FigSevenHourPatternsSplit) {
  const auto& r = Experiment();
  auto shares = analysis::CommunityHourShares(r.pipeline.final_network,
                                              r.ghour.detection.partition);
  ASSERT_TRUE(shares.ok());
  size_t commute = 0, midday = 0;
  for (const auto& row : *shares) {
    switch (analysis::ClassifyHourPattern(row)) {
      case analysis::HourPattern::kCommute:
        ++commute;
        break;
      case analysis::HourPattern::kMiddayLeisure:
        ++midday;
        break;
      case analysis::HourPattern::kOther:
        break;
    }
  }
  // Paper Fig. 7: rush-hour communities (7-9 am & ~5 pm) coexist with
  // midday-peaking leisure communities.
  EXPECT_GE(commute, 1u);
  EXPECT_GE(midday, 1u);
}

TEST(PaperIntegrationTest, DeterministicAcrossRuns) {
  // Rerunning the full experiment with the same config reproduces the
  // community structure exactly.
  auto again = analysis::RunPaperExperiment(analysis::ExperimentConfig{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->gbasic.detection.partition.assignment,
            Experiment().gbasic.detection.partition.assignment);
  EXPECT_DOUBLE_EQ(again->ghour.detection.modularity,
                   Experiment().ghour.detection.modularity);
}

}  // namespace
}  // namespace bikegraph
