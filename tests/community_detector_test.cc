// Locks the unified detection API: unset options must equal every
// algorithm's defaults written out, the name round-trip must hold for
// every registry entry, and bad names/options must surface proper Status
// errors.

#include "community/detector.h"

#include "core/checked_cast.h"

#include "community/modularity.h"
#include "core/rng.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace bikegraph::community {

using bikegraph::AsIndex;
namespace {

using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;

/// Random weighted graph: n nodes, each pair present with probability p,
/// weights in (0, 4]; occasionally a self-loop. Deterministic in `seed`.
WeightedGraph RandomGraph(uint64_t seed, int n, double p) {
  Rng rng(seed);
  WeightedGraphBuilder b(AsIndex(n));
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < p) {
        (void)b.AddEdge(u, v, 0.25 + 3.75 * rng.NextDouble());
      }
    }
    if (rng.NextDouble() < 0.05) (void)b.AddEdge(u, u, rng.NextDouble());
  }
  return b.Build();
}

/// Two cliques of size k with a weak bridge — planted structure for the
/// behavioral checks.
WeightedGraph TwoCliques(int k) {
  WeightedGraphBuilder b(AsIndex(2 * k));
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      (void)b.AddEdge(i, j, 1.0);
      (void)b.AddEdge(k + i, k + j, 1.0);
    }
  }
  (void)b.AddEdge(0, k, 0.5);
  return b.Build();
}

// ---------------------------------------------------------------------------
// (a) Unset options take each algorithm's documented defaults.
// ---------------------------------------------------------------------------

/// `CommunityOptions` with every default of `id` written out (the mapping
/// table in detector.h).
CommunityOptions ExplicitDefaults(AlgorithmId id) {
  CommunityOptions options;
  switch (id) {
    case AlgorithmId::kLouvain:
      options.max_levels = 64;
      options.max_sweeps_per_level = 128;
      options.min_gain = 1e-9;
      break;
    case AlgorithmId::kLabelPropagation:
      options.max_iterations = 100;
      break;
    case AlgorithmId::kFastGreedy:
      options.max_merges = 0;
      options.min_gain = 0.0;
      break;
    case AlgorithmId::kInfomap:
      options.max_levels = 32;
      options.max_sweeps_per_level = 64;
      options.min_improvement = 1e-10;
      break;
  }
  return options;
}

class DetectorDefaultsTest : public ::testing::TestWithParam<AlgorithmId> {};

TEST_P(DetectorDefaultsTest, UnsetOptionsEqualExplicitDefaults) {
  const AlgorithmId id = GetParam();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    WeightedGraph g = RandomGraph(seed, 8 + static_cast<int>(seed) * 5,
                                  seed % 2 ? 0.15 : 0.4);
    DetectSpec unset{id, {}};
    unset.options.seed = seed * 7;
    DetectSpec written_out{id, ExplicitDefaults(id)};
    written_out.options.seed = seed * 7;

    auto a = Detect(g, unset);
    auto b = Detect(g, written_out);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    // Every backend fills its own result: modularity always, and the
    // algorithm's objective as quality.
    EXPECT_EQ(a->algorithm, id);
    EXPECT_EQ(a->modularity, Modularity(g, a->partition));
    EXPECT_EQ(a->quality, id == AlgorithmId::kInfomap
                              ? MapEquationCodelength(g, a->partition)
                              : a->modularity);
    EXPECT_EQ(a->partition.assignment, b->partition.assignment)
        << AlgorithmName(id) << " seed " << seed;
    EXPECT_EQ(a->modularity, b->modularity);
    EXPECT_EQ(a->quality, b->quality);
    EXPECT_EQ(a->singleton_quality, b->singleton_quality);
    EXPECT_EQ(a->levels, b->levels);
    EXPECT_EQ(a->iterations, b->iterations);
    EXPECT_EQ(a->merges, b->merges);
    EXPECT_EQ(a->converged, b->converged);
    ASSERT_EQ(a->level_partitions.size(), b->level_partitions.size());
    for (size_t l = 0; l < a->level_partitions.size(); ++l) {
      EXPECT_EQ(a->level_partitions[l].assignment,
                b->level_partitions[l].assignment);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryAlgorithm, DetectorDefaultsTest, ::testing::ValuesIn(ListAlgorithms()),
    [](const ::testing::TestParamInfo<AlgorithmId>& param) {
      return std::string(AlgorithmName(param.param));
    });

// ---------------------------------------------------------------------------
// (b) Registry and name round-trip.
// ---------------------------------------------------------------------------

TEST(DetectorRegistryTest, ListsAllFourAlgorithms) {
  const auto ids = ListAlgorithms();
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], AlgorithmId::kLouvain);
  EXPECT_EQ(ids[1], AlgorithmId::kLabelPropagation);
  EXPECT_EQ(ids[2], AlgorithmId::kFastGreedy);
  EXPECT_EQ(ids[3], AlgorithmId::kInfomap);
  EXPECT_EQ(AlgorithmRegistry().size(), ids.size());
}

TEST(DetectorRegistryTest, NameParseRoundTripForEveryEntry) {
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    EXPECT_EQ(AlgorithmName(info.id), info.name);
    auto parsed = ParseAlgorithm(info.name);
    ASSERT_TRUE(parsed.ok()) << info.name;
    EXPECT_EQ(*parsed, info.id);
    EXPECT_FALSE(info.description.empty());
    EXPECT_NE(info.run, nullptr);
  }
}

TEST(DetectorRegistryTest, ParseIsLenientAboutCaseAndSeparators) {
  EXPECT_EQ(*ParseAlgorithm("LOUVAIN"), AlgorithmId::kLouvain);
  EXPECT_EQ(*ParseAlgorithm("Label-Propagation"), AlgorithmId::kLabelPropagation);
  EXPECT_EQ(*ParseAlgorithm("lpa"), AlgorithmId::kLabelPropagation);
  EXPECT_EQ(*ParseAlgorithm("Fast Greedy"), AlgorithmId::kFastGreedy);
  EXPECT_EQ(*ParseAlgorithm("CNM"), AlgorithmId::kFastGreedy);
  EXPECT_EQ(*ParseAlgorithm("infomap-lite"), AlgorithmId::kInfomap);
  EXPECT_EQ(*ParseAlgorithm("map.equation"), AlgorithmId::kInfomap);
}

TEST(DetectorRegistryTest, RegistryEntriesRunThroughFunctionPointers) {
  WeightedGraph g = TwoCliques(6);
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    auto result = info.run(g, CommunityOptions{});
    ASSERT_TRUE(result.ok()) << info.name;
    EXPECT_EQ(result->algorithm, info.id);
    EXPECT_EQ(result->partition.CommunityCount(), 2u) << info.name;
  }
}

// ---------------------------------------------------------------------------
// (c) Error paths.
// ---------------------------------------------------------------------------

TEST(DetectorErrorTest, UnknownNameReturnsNotFound) {
  auto r = ParseAlgorithm("leiden");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // The error names the valid choices.
  EXPECT_NE(r.status().message().find("louvain"), std::string::npos);
  EXPECT_FALSE(ParseAlgorithm("").ok());
}

TEST(DetectorErrorTest, OutOfRangeAlgorithmIdIsRejected) {
  DetectSpec spec;
  spec.algorithm = static_cast<AlgorithmId>(99);
  auto r = Detect(TwoCliques(3), spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlgorithmName(static_cast<AlgorithmId>(99)), "unknown");
}

TEST(DetectorErrorTest, InvalidOptionsReturnInvalidArgument) {
  WeightedGraph g = TwoCliques(3);
  {
    DetectSpec spec;  // Louvain
    spec.options.resolution = 0.0;
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kLabelPropagation;
    spec.options.max_iterations = 0;
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kInfomap;
    spec.options.max_levels = -1;
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kFastGreedy;
    spec.options.min_gain = std::numeric_limits<double>::quiet_NaN();
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;  // Louvain: non-finite gains and resolutions rejected
    spec.options.min_gain = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(Detect(g, spec).ok());
    spec.options.min_gain.reset();
    spec.options.resolution = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(Detect(g, spec).ok());
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kInfomap;
    spec.options.min_improvement = std::numeric_limits<double>::quiet_NaN();
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// (d) Fast-greedy's merge cap and gain floor, and the result fields.
// ---------------------------------------------------------------------------

TEST(FastGreedyOptionsTest, MergeCapStopsEarlyAndClearsConverged) {
  WeightedGraph g = TwoCliques(8);  // full run needs 14 merges
  DetectSpec spec;
  spec.algorithm = AlgorithmId::kFastGreedy;
  auto full = Detect(g, spec);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->converged);
  ASSERT_GT(full->merges, 3u);

  spec.options.max_merges = 3;
  auto partial = Detect(g, spec);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->merges, 3u);
  EXPECT_FALSE(partial->converged);
  EXPECT_EQ(partial->partition.CommunityCount(), g.node_count() - 3);

  // A cap equal to the natural merge count forgoes nothing: still converged.
  spec.options.max_merges = full->merges;
  auto at_cap = Detect(g, spec);
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->merges, full->merges);
  EXPECT_TRUE(at_cap->converged);
  EXPECT_EQ(at_cap->partition.assignment, full->partition.assignment);
}

TEST(FastGreedyOptionsTest, HighMinGainStopsMergingEntirely) {
  WeightedGraph g = TwoCliques(6);
  DetectSpec spec;
  spec.algorithm = AlgorithmId::kFastGreedy;
  spec.options.min_gain = 1.0;  // no pair can beat ΔQ > 1
  auto r = Detect(g, spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->merges, 0u);
  EXPECT_TRUE(r->converged);
  EXPECT_EQ(r->partition.CommunityCount(), g.node_count());
}

TEST(DetectorResultTest, ConvergedAndWallTimeArePopulated) {
  WeightedGraph g = TwoCliques(6);
  for (AlgorithmId id : ListAlgorithms()) {
    DetectSpec spec;
    spec.algorithm = id;
    auto r = Detect(g, spec);
    ASSERT_TRUE(r.ok()) << AlgorithmName(id);
    EXPECT_TRUE(r->converged) << AlgorithmName(id);
    EXPECT_GE(r->wall_time_ms, 0.0);
    EXPECT_GT(r->modularity, 0.3) << AlgorithmName(id);
  }
}

TEST(DetectorResultTest, EmptyGraphIsHandledByAllAlgorithms) {
  WeightedGraphBuilder b(0);
  WeightedGraph g = b.Build();
  for (AlgorithmId id : ListAlgorithms()) {
    DetectSpec spec;
    spec.algorithm = id;
    auto r = Detect(g, spec);
    ASSERT_TRUE(r.ok()) << AlgorithmName(id);
    EXPECT_EQ(r->partition.node_count(), 0u);
    EXPECT_TRUE(r->converged);
  }
}

TEST(DetectorResultTest, InfomapQualityIsCodelengthNotModularity) {
  WeightedGraph g = TwoCliques(8);
  DetectSpec spec;
  spec.algorithm = AlgorithmId::kInfomap;
  auto r = Detect(g, spec);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->quality, MapEquationCodelength(g, r->partition));
  EXPECT_LT(r->quality, r->singleton_quality);
  EXPECT_NEAR(r->modularity, Modularity(g, r->partition), 1e-12);
}

}  // namespace
}  // namespace bikegraph::community
