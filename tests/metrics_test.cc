#include "graphdb/trip_graph.h"
#include "metrics/graph_stats.h"

#include <gtest/gtest.h>

namespace bikegraph::metrics {
namespace {

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

}  // namespace
}  // namespace bikegraph::metrics
