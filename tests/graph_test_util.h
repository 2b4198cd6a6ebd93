// Shared graph-equality assertion for the streaming test suites: the
// strictest possible identity — every field and every adjacency entry
// bitwise-equal (EXPECT_EQ on doubles, never NEAR). Used by the
// jittered-replay, shard, recovery and delta-freeze locks, which all
// promise bit-for-bit reproduction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graphdb/weighted_graph.h"

#include <gtest/gtest.h>

namespace bikegraph {

inline void ExpectGraphsIdentical(const graphdb::WeightedGraph& a,
                                  const graphdb::WeightedGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  ASSERT_EQ(a.self_loop_count(), b.self_loop_count());
  EXPECT_EQ(a.total_weight(), b.total_weight());  // bitwise, not NEAR
  for (size_t u = 0; u < a.node_count(); ++u) {
    const auto ui = static_cast<int32_t>(u);
    ASSERT_EQ(a.self_weight(ui), b.self_weight(ui)) << "node " << u;
    ASSERT_EQ(a.strength(ui), b.strength(ui)) << "node " << u;
    auto na = a.neighbors(ui);
    auto nb = b.neighbors(ui);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].node, nb[i].node) << "node " << u << " nb " << i;
      ASSERT_EQ(na[i].weight, nb[i].weight) << "node " << u << " nb " << i;
    }
  }
}

}  // namespace bikegraph
