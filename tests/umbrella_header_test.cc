// Verifies that the umbrella header is self-contained and that the main
// entry points of each module are reachable through it alone.

#include "bikegraph.h"

#include <gtest/gtest.h>

namespace {

TEST(UmbrellaHeaderTest, CoreTypesReachable) {
  bikegraph::Status s = bikegraph::Status::OK();
  EXPECT_TRUE(s.ok());
  bikegraph::Rng rng(1);
  EXPECT_LT(rng.NextDouble(), 1.0);
  auto t = bikegraph::CivilTime::FromCalendar(2020, 1, 3);
  EXPECT_TRUE(t.ok());
}

TEST(UmbrellaHeaderTest, GeoAndDataReachable) {
  EXPECT_GT(bikegraph::geo::HaversineMeters({53.35, -6.26}, {53.30, -6.13}),
            0.0);
  EXPECT_TRUE(bikegraph::geo::DublinLand().Contains({53.3498, -6.2603}));
  bikegraph::data::SyntheticConfig cfg;
  EXPECT_EQ(cfg.station_count, 92);
}

TEST(UmbrellaHeaderTest, GraphAndCommunityReachable) {
  bikegraph::graphdb::WeightedGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0).ok());
  auto g = b.Build();
  auto louvain = bikegraph::community::Detect(
      g, {bikegraph::community::AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(louvain.ok());
  EXPECT_EQ(louvain->partition.node_count(), 3u);
}

TEST(UmbrellaHeaderTest, UnifiedDetectorApiReachable) {
  namespace community = bikegraph::community;
  // The whole registry surface compiles and runs through the umbrella
  // header alone: enumeration, name round-trip, and unified dispatch.
  bikegraph::graphdb::WeightedGraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(b.AddEdge(2, 3, 2.0).ok());
  auto g = b.Build();
  const auto ids = community::ListAlgorithms();
  EXPECT_EQ(ids.size(), community::AlgorithmRegistry().size());
  for (community::AlgorithmId id : ids) {
    auto parsed = community::ParseAlgorithm(community::AlgorithmName(id));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, id);
    community::DetectSpec spec;
    spec.algorithm = id;
    auto result = community::Detect(g, spec);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->partition.node_count(), 4u);
  }
}

TEST(UmbrellaHeaderTest, StreamingEngineReachable) {
  namespace stream = bikegraph::stream;
  stream::StreamEngineConfig config;
  config.station_count = 2;
  config.window_seconds = 3600;
  stream::StreamEngine engine(config);
  stream::TripEvent e;
  e.from_station = 0;
  e.to_station = 1;
  e.start_time = bikegraph::CivilTime::FromCalendar(2020, 6, 1, 8)
                     .ValueOrDie();
  e.end_time = e.start_time.AddSeconds(300);
  ASSERT_TRUE(engine.Ingest(e).ok());
  auto snapshot = engine.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->epoch, 1u);
  EXPECT_EQ((*snapshot)->graph.node_count(), 2u);
  auto refresh = engine.DetectCurrent();
  ASSERT_TRUE(refresh.ok());
  EXPECT_EQ(refresh->result.partition.node_count(), 2u);
}

TEST(UmbrellaHeaderTest, PipelineEntryPointsReachable) {
  // Type-level smoke: the experiment config composes all module configs.
  bikegraph::analysis::ExperimentConfig config;
  // lint: float-eq-ok: config defaults are assigned literals,
  // never computed.
  EXPECT_EQ(config.pipeline.clustering.cluster_boundary_m, 100.0);
  // lint: float-eq-ok: assigned-literal default, as above.
  EXPECT_EQ(config.pipeline.selection.secondary_distance_m, 250.0);
  EXPECT_EQ(config.detection.algorithm,
            bikegraph::community::AlgorithmId::kLouvain);
  // lint: float-eq-ok: assigned-literal default, as above.
  EXPECT_EQ(config.detection.options.resolution, 1.0);
  bikegraph::analysis::PaperExpectations paper;
  EXPECT_EQ(paper.selected_total_stations, 238u);
}

}  // namespace
