// Cross-cutting property tests: invariants that must hold on randomly
// generated inputs, swept over seeds with TEST_P.

#include <cmath>
#include <set>

#include "community/aggregate.h"
#include "community/detector.h"
#include "community/modularity.h"
#include "core/rng.h"
#include "data/cleaning.h"
#include "data/synthetic.h"
#include "geo/dublin.h"
#include "graphdb/weighted_graph.h"

#include <gtest/gtest.h>

namespace bikegraph {
namespace {

/// Random weighted graph with planted noise (no structure guaranteed).
graphdb::WeightedGraph RandomGraph(uint64_t seed, size_t n, size_t edges) {
  Rng rng(seed);
  graphdb::WeightedGraphBuilder b(n);
  for (size_t e = 0; e < edges; ++e) {
    int32_t u = static_cast<int32_t>(rng.NextBounded(n));
    int32_t v = static_cast<int32_t>(rng.NextBounded(n));
    (void)b.AddEdge(u, v, 0.25 + rng.NextDouble());
  }
  return b.Build();
}

class GraphSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphSeedTest, StrengthSumsToTwiceTotalWeight) {
  auto g = RandomGraph(GetParam(), 60, 300);
  double sum = 0.0;
  for (size_t u = 0; u < g.node_count(); ++u) {
    sum += g.strength(static_cast<int32_t>(u));
  }
  EXPECT_NEAR(sum, 2.0 * g.total_weight(), 1e-9);
}

TEST_P(GraphSeedTest, ModularityWithinTheoreticalBounds) {
  auto g = RandomGraph(GetParam(), 60, 300);
  Rng rng(GetParam() ^ 0xABCD);
  community::Partition p;
  p.assignment.resize(g.node_count());
  for (auto& a : p.assignment) a = static_cast<int32_t>(rng.NextBounded(7));
  p.Renumber();
  const double q = community::Modularity(g, p);
  EXPECT_GE(q, -1.0);
  EXPECT_LE(q, 1.0);
}

TEST_P(GraphSeedTest, LouvainNeverWorseThanSingletonsOrTrivial) {
  auto g = RandomGraph(GetParam(), 60, 300);
  auto result = community::Detect(g, {community::AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->modularity,
            community::Modularity(g, community::Partition::Trivial(
                                         g.node_count())) -
                1e-9);
  EXPECT_GE(result->modularity,
            community::Modularity(
                g, community::Partition::Singletons(g.node_count())) -
                1e-9);
}

TEST_P(GraphSeedTest, AllAlgorithmsReturnValidPartitions) {
  auto g = RandomGraph(GetParam(), 50, 200);
  auto check = [&](const community::Partition& p) {
    ASSERT_EQ(p.assignment.size(), g.node_count());
    const size_t k = p.CommunityCount();
    std::set<int32_t> labels(p.assignment.begin(), p.assignment.end());
    EXPECT_EQ(labels.size(), k);  // dense labels
    for (int32_t c : p.assignment) {
      EXPECT_GE(c, 0);
      EXPECT_LT(static_cast<size_t>(c), k);
    }
  };
  for (community::AlgorithmId id : community::ListAlgorithms()) {
    check(community::Detect(g, {id, {}})->partition);
  }
}

TEST_P(GraphSeedTest, AggregationPreservesModularity) {
  auto g = RandomGraph(GetParam(), 40, 160);
  auto louvain = community::Detect(g, {community::AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(louvain.ok());
  const auto& p = louvain->partition;
  auto coarse = community::AggregateByPartition(g, p);
  EXPECT_NEAR(community::Modularity(g, p),
              community::Modularity(
                  coarse, community::Partition::Singletons(coarse.node_count())),
              1e-9);
  EXPECT_NEAR(coarse.total_weight(), g.total_weight(), 1e-9);
}

TEST_P(GraphSeedTest, MapEquationNonNegativeAndConsistent) {
  auto g = RandomGraph(GetParam(), 40, 160);
  auto infomap = community::Detect(g, {community::AlgorithmId::kInfomap, {}});
  ASSERT_TRUE(infomap.ok());
  EXPECT_GE(infomap->quality, 0.0);
  // The optimiser never returns something worse than all-singletons.
  EXPECT_LE(infomap->quality, infomap->singleton_quality + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

/// Generator-level properties swept over seeds: cleaning is idempotent and
/// the cleaned dataset always validates.
class GeneratorSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorSeedTest, CleaningIsIdempotent) {
  data::SyntheticConfig cfg;
  cfg.seed = GetParam();
  cfg.clean_rental_count = 2500;
  cfg.station_count = 30;
  cfg.micro_concentration = 80.0;
  auto raw = data::GenerateSyntheticMoby(cfg);
  ASSERT_TRUE(raw.ok());
  auto once = data::CleanDataset(*raw, geo::DublinLand());
  ASSERT_TRUE(once.ok());
  auto twice = data::CleanDataset(once->dataset, geo::DublinLand());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->report.TotalRentalsDropped(), 0u);
  EXPECT_EQ(twice->report.TotalLocationsDropped(), 0u);
  EXPECT_EQ(twice->dataset.Summarize().rental_count,
            once->dataset.Summarize().rental_count);
}

TEST_P(GeneratorSeedTest, RentalVolumeMatchesConfigAfterCleaning) {
  data::SyntheticConfig cfg;
  cfg.seed = GetParam();
  cfg.clean_rental_count = 2500;
  cfg.station_count = 30;
  cfg.micro_concentration = 80.0;
  auto raw = data::GenerateSyntheticMoby(cfg);
  ASSERT_TRUE(raw.ok());
  auto cleaned = data::CleanDataset(*raw, geo::DublinLand());
  ASSERT_TRUE(cleaned.ok());
  EXPECT_EQ(cleaned->dataset.Summarize().rental_count, 2500u);
  EXPECT_TRUE(cleaned->dataset.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace bikegraph
