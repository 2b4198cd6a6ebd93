#include <cmath>

#include "community/aggregate.h"
#include "community/detector.h"
#include "community/modularity.h"
#include "community/partition.h"
#include "core/rng.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::community {
namespace {

using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;

/// Two dense cliques of size `k` connected by a single weak bridge.
WeightedGraph TwoCliques(int k, double bridge_weight = 0.5) {
  WeightedGraphBuilder b(AsIndex(2 * k));
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      (void)b.AddEdge(i, j, 1.0);
      (void)b.AddEdge(k + i, k + j, 1.0);
    }
  }
  (void)b.AddEdge(0, k, bridge_weight);
  return b.Build();
}

/// Ring of `c` cliques, each of size `k`, adjacent cliques bridged.
WeightedGraph CliqueRing(int c, int k) {
  WeightedGraphBuilder b(AsIndex(c * k));
  for (int q = 0; q < c; ++q) {
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        (void)b.AddEdge(q * k + i, q * k + j, 1.0);
      }
    }
    (void)b.AddEdge(q * k, ((q + 1) % c) * k + 1, 0.5);
  }
  return b.Build();
}

TEST(PartitionTest, RenumberAndCounts) {
  Partition p;
  p.assignment = {5, 3, 5, 9, 3};
  p.Renumber();
  EXPECT_EQ(p.assignment, (std::vector<int32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(p.CommunityCount(), 3u);
  EXPECT_EQ(p.CommunitySizes(), (std::vector<size_t>{2, 2, 1}));
}

TEST(PartitionTest, TrivialAndSingletons) {
  EXPECT_EQ(Partition::Trivial(4).CommunityCount(), 1u);
  EXPECT_EQ(Partition::Singletons(4).CommunityCount(), 4u);
}

TEST(NmiTest, IdenticalPartitionsScoreOne) {
  Partition a;
  a.assignment = {0, 0, 1, 1, 2};
  Partition relabeled;
  relabeled.assignment = {2, 2, 0, 0, 1};
  EXPECT_NEAR(NormalizedMutualInformation(a, a), 1.0, 1e-12);
  EXPECT_NEAR(NormalizedMutualInformation(a, relabeled), 1.0, 1e-12);
}

TEST(NmiTest, IndependentPartitionsScoreLow) {
  Partition a, b;
  for (int i = 0; i < 400; ++i) {
    a.assignment.push_back(i % 2);
    b.assignment.push_back((i / 2) % 2);  // unrelated split
  }
  EXPECT_LT(NormalizedMutualInformation(a, b), 0.05);
}

TEST(ModularityTest, TrivialPartitionScoresZero) {
  WeightedGraph g = TwoCliques(5);
  EXPECT_NEAR(Modularity(g, Partition::Trivial(g.node_count())), 0.0, 1e-12);
}

TEST(ModularityTest, PlantedPartitionBeatsTrivialAndRandom) {
  WeightedGraph g = TwoCliques(6);
  Partition planted;
  planted.assignment.assign(12, 0);
  for (int i = 6; i < 12; ++i) planted.assignment[AsIndex(i)] = 1;
  const double planted_q = Modularity(g, planted);
  EXPECT_GT(planted_q, 0.4);

  Partition scrambled;
  scrambled.assignment = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_LT(Modularity(g, scrambled), planted_q);
}

TEST(ModularityTest, KnownValueOnTinyGraph) {
  // Two nodes, one edge, separate communities: Q = 0 - (0.5^2)*2 = -0.5.
  WeightedGraphBuilder b(2);
  (void)b.AddEdge(0, 1, 1.0);
  WeightedGraph g = b.Build();
  EXPECT_NEAR(Modularity(g, Partition::Singletons(2)), -0.5, 1e-12);
  // Same community: Q = 1 - 1 = 0.
  EXPECT_NEAR(Modularity(g, Partition::Trivial(2)), 0.0, 1e-12);
}

TEST(ModularityTest, SelfLoopsCount) {
  WeightedGraphBuilder b(2);
  (void)b.AddEdge(0, 0, 1.0);
  (void)b.AddEdge(1, 1, 1.0);
  WeightedGraph g = b.Build();
  // Each node its own community, all weight internal: Q = 1 - 2*(1/2)^2.
  EXPECT_NEAR(Modularity(g, Partition::Singletons(2)), 0.5, 1e-12);
}

TEST(ModularityTest, ResolutionShiftsBalance) {
  WeightedGraph g = TwoCliques(5);
  Partition planted;
  planted.assignment.assign(10, 0);
  for (int i = 5; i < 10; ++i) planted.assignment[AsIndex(i)] = 1;
  EXPECT_GT(Modularity(g, planted, 0.5), Modularity(g, planted, 2.0));
}

TEST(AggregateTest, PreservesTotalWeight) {
  WeightedGraph g = TwoCliques(5);
  Partition p;
  p.assignment.assign(10, 0);
  for (int i = 5; i < 10; ++i) p.assignment[AsIndex(i)] = 1;
  WeightedGraph coarse = AggregateByPartition(g, p);
  EXPECT_EQ(coarse.node_count(), 2u);
  EXPECT_DOUBLE_EQ(coarse.total_weight(), g.total_weight());
  // Each clique's internal weight becomes a self-loop: C(5,2) = 10.
  EXPECT_DOUBLE_EQ(coarse.self_weight(0), 10.0);
  EXPECT_DOUBLE_EQ(coarse.WeightBetween(0, 1), 0.5);
}

TEST(AggregateTest, ModularityInvariantUnderAggregation) {
  // Q(partition on G) == Q(matching singleton partition on aggregate).
  WeightedGraph g = CliqueRing(4, 5);
  Partition p;
  p.assignment.resize(g.node_count());
  for (size_t i = 0; i < g.node_count(); ++i) {
    p.assignment[i] = static_cast<int32_t>(i / 5);
  }
  WeightedGraph coarse = AggregateByPartition(g, p);
  EXPECT_NEAR(Modularity(g, p),
              Modularity(coarse, Partition::Singletons(coarse.node_count())),
              1e-12);
}

TEST(ComposeTest, TwoLevelComposition) {
  Partition fine;
  fine.assignment = {0, 0, 1, 1, 2};
  Partition coarse;
  coarse.assignment = {0, 0, 1};  // communities 0,1 -> 0; 2 -> 1
  Partition composed = ComposePartitions(fine, coarse);
  EXPECT_EQ(composed.assignment, (std::vector<int32_t>{0, 0, 0, 0, 1}));
}

TEST(LouvainTest, RecoversTwoCliques) {
  WeightedGraph g = TwoCliques(8);
  auto result = Detect(g, {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.CommunityCount(), 2u);
  EXPECT_GT(result->modularity, 0.45);
  // All of clique 1 in one community.
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(result->partition.assignment[AsIndex(i)], result->partition.assignment[0]);
    EXPECT_EQ(result->partition.assignment[AsIndex(8 + i)],
              result->partition.assignment[8]);
  }
}

TEST(LouvainTest, RecoversCliqueRing) {
  WeightedGraph g = CliqueRing(6, 6);
  auto result = Detect(g, {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.CommunityCount(), 6u);
  EXPECT_GT(result->modularity, 0.6);
}

TEST(LouvainTest, DeterministicForSeed) {
  WeightedGraph g = CliqueRing(5, 5);
  CommunityOptions opts;
  opts.seed = 33;
  auto a = Detect(g, {AlgorithmId::kLouvain, opts});
  auto b = Detect(g, {AlgorithmId::kLouvain, opts});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->partition.assignment, b->partition.assignment);
  EXPECT_DOUBLE_EQ(a->modularity, b->modularity);
}

TEST(LouvainTest, EmptyAndSingletonGraphs) {
  WeightedGraphBuilder b0(0);
  auto empty = Detect(b0.Build(), {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->partition.node_count(), 0u);

  WeightedGraphBuilder b1(3);  // no edges
  auto isolated = Detect(b1.Build(), {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(isolated.ok());
  EXPECT_EQ(isolated->partition.CommunityCount(), 3u);
}

TEST(LouvainTest, ModularityMatchesReportedPartition) {
  WeightedGraph g = CliqueRing(4, 6);
  auto result = Detect(g, {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->modularity, Modularity(g, result->partition), 1e-12);
}

TEST(LouvainTest, HighResolutionFragmentsMore) {
  WeightedGraph g = CliqueRing(6, 6);
  CommunityOptions coarse_opts;
  coarse_opts.resolution = 0.1;
  CommunityOptions fine_opts;
  fine_opts.resolution = 3.0;
  auto coarse = Detect(g, {AlgorithmId::kLouvain, coarse_opts});
  auto fine = Detect(g, {AlgorithmId::kLouvain, fine_opts});
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  EXPECT_LE(coarse->partition.CommunityCount(),
            fine->partition.CommunityCount());
}

TEST(LouvainTest, RejectsBadResolution) {
  WeightedGraph g = TwoCliques(3);
  CommunityOptions opts;
  opts.resolution = 0.0;
  EXPECT_FALSE(Detect(g, {AlgorithmId::kLouvain, opts}).ok());
}

TEST(LouvainTest, WeightedEdgesShiftCommunities) {
  // Two heavy pairs joined by a weak link: each pair must co-cluster and
  // the pairs must separate (Q ≈ 0.495 for the planted split).
  WeightedGraphBuilder b(4);
  (void)b.AddEdge(0, 1, 10.0);
  (void)b.AddEdge(2, 3, 10.0);
  (void)b.AddEdge(1, 2, 0.1);
  auto result = Detect(b.Build(), {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.assignment[0], result->partition.assignment[1]);
  EXPECT_EQ(result->partition.assignment[2], result->partition.assignment[3]);
  EXPECT_NE(result->partition.assignment[0], result->partition.assignment[2]);
  EXPECT_NEAR(result->modularity, 0.495, 0.01);
}

TEST(LabelPropagationTest, RecoversTwoCliques) {
  WeightedGraph g = TwoCliques(8);
  auto result = Detect(g, {AlgorithmId::kLabelPropagation, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->partition.CommunityCount(), 2u);
}

TEST(LabelPropagationTest, DeterministicForSeed) {
  WeightedGraph g = CliqueRing(4, 5);
  CommunityOptions opts;
  opts.seed = 7;
  auto a = Detect(g, {AlgorithmId::kLabelPropagation, opts});
  auto b = Detect(g, {AlgorithmId::kLabelPropagation, opts});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->partition.assignment, b->partition.assignment);
}

TEST(LabelPropagationTest, RejectsBadOptions) {
  CommunityOptions opts;
  opts.max_iterations = 0;
  EXPECT_FALSE(
      Detect(TwoCliques(3), {AlgorithmId::kLabelPropagation, opts}).ok());
}

TEST(FastGreedyTest, RecoversTwoCliques) {
  WeightedGraph g = TwoCliques(8);
  auto result = Detect(g, {AlgorithmId::kFastGreedy, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.CommunityCount(), 2u);
  EXPECT_GT(result->modularity, 0.45);
  EXPECT_GT(result->merges, 0u);
}

TEST(FastGreedyTest, StopsAtNonPositiveGain) {
  // Two disconnected edges: merging across components never helps.
  WeightedGraphBuilder b(4);
  (void)b.AddEdge(0, 1, 1.0);
  (void)b.AddEdge(2, 3, 1.0);
  auto result = Detect(b.Build(), {AlgorithmId::kFastGreedy, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.CommunityCount(), 2u);
  EXPECT_EQ(result->partition.assignment[0], result->partition.assignment[1]);
  EXPECT_NE(result->partition.assignment[0], result->partition.assignment[2]);
}

TEST(FastGreedyTest, ComparableModularityToLouvain) {
  WeightedGraph g = CliqueRing(5, 6);
  auto greedy = Detect(g, {AlgorithmId::kFastGreedy, {}});
  auto louvain = Detect(g, {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(louvain.ok());
  EXPECT_GT(greedy->modularity, louvain->modularity * 0.8);
}

TEST(InfomapTest, CodelengthOfTrivialPartitionIsNodeEntropy) {
  WeightedGraph g = TwoCliques(4);
  // One module: no exit terms; L = H(node visit rates).
  double L = MapEquationCodelength(g, Partition::Trivial(g.node_count()));
  double H = 0.0;
  const double two_m = 2.0 * g.total_weight();
  for (size_t u = 0; u < g.node_count(); ++u) {
    double p = g.strength(static_cast<int32_t>(u)) / two_m;
    H -= p * std::log2(p);
  }
  EXPECT_NEAR(L, H, 1e-9);
}

TEST(InfomapTest, PlantedPartitionShortensCodelength) {
  WeightedGraph g = TwoCliques(8);
  Partition planted;
  planted.assignment.assign(16, 0);
  for (int i = 8; i < 16; ++i) planted.assignment[AsIndex(i)] = 1;
  EXPECT_LT(MapEquationCodelength(g, planted),
            MapEquationCodelength(g, Partition::Singletons(16)));
}

TEST(InfomapTest, RecoversTwoCliques) {
  WeightedGraph g = TwoCliques(8);
  auto result = Detect(g, {AlgorithmId::kInfomap, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.CommunityCount(), 2u);
  EXPECT_LT(result->quality, result->singleton_quality);
}

TEST(InfomapTest, RecoversCliqueRing) {
  WeightedGraph g = CliqueRing(6, 6);
  auto result = Detect(g, {AlgorithmId::kInfomap, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.CommunityCount(), 6u);
}

TEST(InfomapTest, CodelengthMatchesReportedPartition) {
  WeightedGraph g = CliqueRing(4, 5);
  auto result = Detect(g, {AlgorithmId::kInfomap, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->quality,
              MapEquationCodelength(g, result->partition), 1e-9);
}

// Cross-algorithm property sweep: on planted clique rings every algorithm
// must find a partition at least as good as the planted one is non-trivial.
class AlgorithmComparisonTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AlgorithmComparisonTest, AllAlgorithmsFindStructure) {
  auto [cliques, size] = GetParam();
  WeightedGraph g = CliqueRing(cliques, size);
  Partition planted;
  planted.assignment.resize(g.node_count());
  for (size_t i = 0; i < g.node_count(); ++i) {
    planted.assignment[i] = static_cast<int32_t>(i / AsIndex(size));
  }
  const double planted_q = Modularity(g, planted);

  auto louvain = Detect(g, {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(louvain.ok());
  EXPECT_GE(louvain->modularity, planted_q - 1e-9);

  auto greedy = Detect(g, {AlgorithmId::kFastGreedy, {}});
  ASSERT_TRUE(greedy.ok());
  EXPECT_GT(greedy->modularity, 0.5 * planted_q);

  auto lpa = Detect(g, {AlgorithmId::kLabelPropagation, {}});
  ASSERT_TRUE(lpa.ok());
  EXPECT_GT(Modularity(g, lpa->partition), 0.5 * planted_q);

  auto infomap = Detect(g, {AlgorithmId::kInfomap, {}});
  ASSERT_TRUE(infomap.ok());
  EXPECT_GT(Modularity(g, infomap->partition), 0.5 * planted_q);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlgorithmComparisonTest,
                         ::testing::Values(std::pair{3, 5}, std::pair{5, 4},
                                           std::pair{8, 6}, std::pair{10, 8}));

}  // namespace
}  // namespace bikegraph::community
