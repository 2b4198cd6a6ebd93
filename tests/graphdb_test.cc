#include <cmath>

#include "graphdb/trip_graph.h"
#include "graphdb/weighted_graph.h"

#include <gtest/gtest.h>

namespace bikegraph::graphdb {
namespace {

TEST(TripGraphTest, RowsKeepInsertionOrder) {
  TripGraph g(3);
  EXPECT_EQ(g.NodeCount(), 3u);
  ASSERT_TRUE(g.AddTrip(0, 1, 0, 0).ok());
  ASSERT_TRUE(g.AddTrip(2, 2, 6, 23).ok());  // loop; top of both ranges
  ASSERT_TRUE(g.AddTrip(0, 1, 3, 8).ok());   // parallel to row 0
  ASSERT_TRUE(g.AddTrip(1, 0, 5, 17).ok());
  ASSERT_EQ(g.EdgeCount(), 4u);
  const int expected[4][4] = {{0, 1, 0, 0}, {2, 2, 6, 23}, {0, 1, 3, 8},
                              {1, 0, 5, 17}};
  for (size_t i = 0; i < 4; ++i) {
    const Trip& trip = g.trips()[i];
    EXPECT_EQ(trip.from, expected[i][0]) << "row " << i;
    EXPECT_EQ(trip.to, expected[i][1]) << "row " << i;
    EXPECT_EQ(trip.day, expected[i][2]) << "row " << i;
    EXPECT_EQ(trip.hour, expected[i][3]) << "row " << i;
  }
}

TEST(TripGraphTest, RejectsOutOfRangeRows) {
  TripGraph g(2);
  EXPECT_EQ(g.AddTrip(2, 0, 0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddTrip(0, 2, 0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddTrip(-1, 0, 0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddTrip(0, -1, 0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddTrip(0, 1, 7, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddTrip(0, 1, -1, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddTrip(0, 1, 0, 24).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddTrip(0, 1, 0, -1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.EdgeCount(), 0u);  // a rejected row is not stored
  TripGraph empty;  // no nodes: every endpoint is out of range
  EXPECT_FALSE(empty.AddTrip(0, 0, 0, 0).ok());
}

TEST(WeightedGraphTest, EmptyGraphDefaults) {
  WeightedGraph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 0.0);
}

TEST(WeightedGraphTest, BuilderAccumulatesParallelEdges) {
  WeightedGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 0, 3.0).ok());  // same unordered pair
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0).ok());
  WeightedGraph g = b.Build();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(g.WeightBetween(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.WeightBetween(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.WeightBetween(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 6.0);
}

TEST(WeightedGraphTest, SelfLoopConventions) {
  WeightedGraphBuilder b(2);
  ASSERT_TRUE(b.AddEdge(0, 0, 2.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  WeightedGraph g = b.Build();
  EXPECT_EQ(g.self_loop_count(), 1u);
  EXPECT_DOUBLE_EQ(g.self_weight(0), 2.0);
  // strength counts the self-loop twice.
  EXPECT_DOUBLE_EQ(g.strength(0), 1.0 + 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(g.strength(1), 1.0);
  // m = inter-edge + self weight.
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.0);
  // Σ strength == 2m.
  EXPECT_DOUBLE_EQ(g.strength(0) + g.strength(1), 2.0 * g.total_weight());
}

TEST(WeightedGraphTest, BuilderRejectsBadInput) {
  WeightedGraphBuilder b(2);
  EXPECT_FALSE(b.AddEdge(-1, 0).ok());
  EXPECT_FALSE(b.AddEdge(0, 2).ok());
  EXPECT_FALSE(b.AddEdge(0, 1, -1.0).ok());
  EXPECT_FALSE(b.AddEdge(0, 1, std::nan("")).ok());
}

TEST(WeightedGraphTest, NeighborsAreSymmetric) {
  WeightedGraphBuilder b(4);
  (void)b.AddEdge(0, 1, 1.0);
  (void)b.AddEdge(0, 2, 2.0);
  (void)b.AddEdge(2, 3, 3.0);
  WeightedGraph g = b.Build();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 1u);
  bool found = false;
  for (const auto& nb : g.neighbors(2)) {
    if (nb.node == 0) {
      EXPECT_DOUBLE_EQ(nb.weight, 2.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace bikegraph::graphdb
