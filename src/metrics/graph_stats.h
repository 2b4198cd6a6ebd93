#pragma once

#include <string>

#include "graphdb/trip_graph.h"

namespace bikegraph::metrics {

/// \brief Structural counters of a trip multigraph, in the shape of the
/// paper's Table II (candidate graph details).
struct GraphCounts {
  size_t nodes = 0;
  size_t undirected_edges = 0;           ///< distinct unordered pairs, loops in
  size_t undirected_edges_no_loops = 0;  ///< distinct unordered pairs, no loops
  size_t directed_edges = 0;             ///< distinct ordered pairs, loops in
  size_t directed_edges_no_loops = 0;    ///< distinct ordered pairs, no loops
  size_t trips = 0;                      ///< multigraph relationship count

  std::string ToString() const;
};

/// \brief Computes Table-II style counters from a trip multigraph.
GraphCounts CountGraph(const graphdb::TripGraph& graph);

}  // namespace bikegraph::metrics
