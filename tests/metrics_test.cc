#include <cmath>
#include <numeric>

#include "graphdb/trip_graph.h"
#include "metrics/centrality.h"
#include "metrics/graph_stats.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::metrics {
namespace {

using graphdb::Digraph;
using graphdb::DigraphBuilder;
using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;

/// Path graph 0-1-2-...-(n-1).
WeightedGraph Path(int n) {
  WeightedGraphBuilder b(AsIndex(n));
  for (int i = 0; i + 1 < n; ++i) (void)b.AddEdge(i, i + 1, 1.0);
  return b.Build();
}

/// Star with `leaves` leaves around node 0.
WeightedGraph Star(int leaves) {
  WeightedGraphBuilder b(AsIndex(leaves + 1));
  for (int i = 1; i <= leaves; ++i) (void)b.AddEdge(0, i, 1.0);
  return b.Build();
}

TEST(PageRankTest, UniformOnSymmetricCycle) {
  DigraphBuilder b(4);
  for (int i = 0; i < 4; ++i) (void)b.AddEdge(i, (i + 1) % 4, 1.0);
  auto pr = PageRank(b.Build());
  ASSERT_TRUE(pr.ok());
  for (double v : *pr) EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST(PageRankTest, SumsToOneWithDanglingNodes) {
  DigraphBuilder b(3);
  (void)b.AddEdge(0, 1, 1.0);
  (void)b.AddEdge(0, 2, 1.0);  // nodes 1, 2 dangle
  auto pr = PageRank(b.Build());
  ASSERT_TRUE(pr.ok());
  EXPECT_NEAR(std::accumulate(pr->begin(), pr->end(), 0.0), 1.0, 1e-9);
  EXPECT_GT((*pr)[1], (*pr)[0]);
}

TEST(PageRankTest, HubAccumulatesRank) {
  DigraphBuilder b(4);
  (void)b.AddEdge(1, 0, 1.0);
  (void)b.AddEdge(2, 0, 1.0);
  (void)b.AddEdge(3, 0, 1.0);
  (void)b.AddEdge(0, 1, 1.0);
  auto pr = PageRank(b.Build());
  ASSERT_TRUE(pr.ok());
  EXPECT_GT((*pr)[0], (*pr)[2] * 2);
}

TEST(PageRankTest, WeightsBiasDistribution) {
  DigraphBuilder b(3);
  (void)b.AddEdge(0, 1, 9.0);
  (void)b.AddEdge(0, 2, 1.0);
  (void)b.AddEdge(1, 0, 1.0);
  (void)b.AddEdge(2, 0, 1.0);
  auto pr = PageRank(b.Build());
  ASSERT_TRUE(pr.ok());
  EXPECT_GT((*pr)[1], (*pr)[2] * 2);
}

TEST(PageRankTest, RejectsBadDamping) {
  DigraphBuilder b(1);
  PageRankOptions opts;
  opts.damping = 1.0;
  EXPECT_FALSE(PageRank(b.Build(), opts).ok());
}

TEST(BetweennessTest, PathCenterDominates) {
  auto bc = Betweenness(Path(5));
  ASSERT_TRUE(bc.ok());
  // Middle node lies on all 2x3 pairs crossing it: score 4 for n=5 path
  // endpoints excluded... exact Brandes values: [0, 3, 4, 3, 0].
  EXPECT_DOUBLE_EQ((*bc)[0], 0.0);
  EXPECT_DOUBLE_EQ((*bc)[1], 3.0);
  EXPECT_DOUBLE_EQ((*bc)[2], 4.0);
  EXPECT_DOUBLE_EQ((*bc)[3], 3.0);
  EXPECT_DOUBLE_EQ((*bc)[4], 0.0);
}

TEST(BetweennessTest, StarCenterTakesAll) {
  const int leaves = 6;
  auto bc = Betweenness(Star(leaves));
  ASSERT_TRUE(bc.ok());
  // Center on all C(6,2) = 15 leaf pairs.
  EXPECT_DOUBLE_EQ((*bc)[0], 15.0);
  for (int i = 1; i <= leaves; ++i) EXPECT_DOUBLE_EQ((*bc)[AsIndex(i)], 0.0);
}

TEST(BetweennessTest, SplitsAcrossEqualPaths) {
  // A 4-cycle: two shortest paths between opposite corners; each middle
  // node carries half a dependency. Brandes: every node gets 0.5.
  WeightedGraphBuilder b(4);
  for (int i = 0; i < 4; ++i) (void)b.AddEdge(i, (i + 1) % 4, 1.0);
  auto bc = Betweenness(b.Build());
  ASSERT_TRUE(bc.ok());
  for (int i = 0; i < 4; ++i) EXPECT_NEAR((*bc)[AsIndex(i)], 0.5, 1e-9);
}

TEST(BetweennessTest, WeightedShortestPathsDiffer) {
  // Triangle where the direct edge 0-2 is "slow" (low weight = long).
  // Unweighted: 0-2 direct, node 1 unused. Weighted: route via 1.
  WeightedGraphBuilder b(3);
  (void)b.AddEdge(0, 1, 10.0);
  (void)b.AddEdge(1, 2, 10.0);
  (void)b.AddEdge(0, 2, 1.0);
  auto unweighted = Betweenness(b.Build(), /*weighted=*/false);
  auto weighted = Betweenness(b.Build(), /*weighted=*/true);
  ASSERT_TRUE(unweighted.ok());
  ASSERT_TRUE(weighted.ok());
  EXPECT_DOUBLE_EQ((*unweighted)[1], 0.0);
  EXPECT_GT((*weighted)[1], 0.5);
}

TEST(ClosenessTest, HarmonicOnPath) {
  auto hc = HarmonicCloseness(Path(3));
  ASSERT_TRUE(hc.ok());
  EXPECT_NEAR((*hc)[1], 2.0, 1e-9);        // 1/1 + 1/1
  EXPECT_NEAR((*hc)[0], 1.0 + 0.5, 1e-9);  // 1/1 + 1/2
}

TEST(ClosenessTest, DisconnectedComponentsAreFinite) {
  WeightedGraphBuilder b(4);
  (void)b.AddEdge(0, 1, 1.0);
  (void)b.AddEdge(2, 3, 1.0);
  auto hc = HarmonicCloseness(b.Build());
  ASSERT_TRUE(hc.ok());
  for (double v : *hc) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 1.0, 1e-9);
  }
}

TEST(ClusteringTest, TriangleIsFullyClustered) {
  WeightedGraphBuilder b(3);
  (void)b.AddEdge(0, 1, 1.0);
  (void)b.AddEdge(1, 2, 1.0);
  (void)b.AddEdge(0, 2, 1.0);
  auto cc = LocalClusteringCoefficients(b.Build());
  for (double v : cc) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(b.Build()), 1.0);
}

TEST(ClusteringTest, StarHasZeroClustering) {
  auto g = Star(5);
  auto cc = LocalClusteringCoefficients(g);
  for (double v : cc) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

TEST(ClusteringTest, PartialTriangle) {
  // Square with one diagonal: diagonal endpoints see 2 closed wedges of 3
  // (cc = 2/3); the other two corners sit in one triangle each (cc = 1).
  WeightedGraphBuilder b(4);
  (void)b.AddEdge(0, 1, 1.0);
  (void)b.AddEdge(1, 2, 1.0);
  (void)b.AddEdge(2, 3, 1.0);
  (void)b.AddEdge(3, 0, 1.0);
  (void)b.AddEdge(0, 2, 1.0);
  auto cc = LocalClusteringCoefficients(b.Build());
  EXPECT_NEAR(cc[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cc[2], 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(cc[1], 1.0);
  EXPECT_DOUBLE_EQ(cc[3], 1.0);
}

TEST(GiniTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({5.0, 5.0, 5.0}), 0.0);
}

TEST(GiniTest, KnownValues) {
  // One person owns everything among n: G = (n-1)/n.
  EXPECT_NEAR(GiniCoefficient({0.0, 0.0, 0.0, 10.0}), 0.75, 1e-9);
  // Linear distribution 1..n: G = (n-1)/(3n)... for {1,2,3}: 2/9.
  EXPECT_NEAR(GiniCoefficient({1.0, 2.0, 3.0}), 2.0 / 9.0, 1e-9);
}

TEST(GiniTest, InvariantToScaleAndOrder) {
  EXPECT_NEAR(GiniCoefficient({3.0, 1.0, 2.0}),
              GiniCoefficient({30.0, 10.0, 20.0}), 1e-12);
}

TEST(GraphCountsTest, TableTwoStyleCounters) {
  graphdb::TripGraph g(3);
  const int32_t a = 0, b = 1, c = 2;
  ASSERT_TRUE(g.AddTrip(a, b, 0, 8).ok());
  ASSERT_TRUE(g.AddTrip(a, b, 0, 8).ok());  // parallel
  ASSERT_TRUE(g.AddTrip(b, a, 0, 8).ok());  // reverse direction
  ASSERT_TRUE(g.AddTrip(a, a, 0, 8).ok());  // loop
  ASSERT_TRUE(g.AddTrip(b, c, 0, 8).ok());
  auto counts = CountGraph(g);
  EXPECT_EQ(counts.nodes, 3u);
  EXPECT_EQ(counts.trips, 5u);
  EXPECT_EQ(counts.directed_edges, 4u);           // ab, ba, aa, bc
  EXPECT_EQ(counts.directed_edges_no_loops, 3u);
  EXPECT_EQ(counts.undirected_edges, 3u);         // {ab}, {aa}, {bc}
  EXPECT_EQ(counts.undirected_edges_no_loops, 2u);
  EXPECT_NE(counts.ToString().find("#trips 5"), std::string::npos);
}

TEST(SummaryTest, WeightedGraphSummary) {
  WeightedGraphBuilder b(3);
  (void)b.AddEdge(0, 1, 2.0);
  (void)b.AddEdge(1, 2, 4.0);
  auto s = Summarize(b.Build());
  EXPECT_EQ(s.nodes, 3u);
  EXPECT_EQ(s.edges, 2u);
  EXPECT_DOUBLE_EQ(s.total_weight, 6.0);
  EXPECT_DOUBLE_EQ(s.max_strength, 6.0);
  EXPECT_NEAR(s.density, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.mean_degree, 4.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace bikegraph::metrics
