#pragma once

#include <string>

#include "graphdb/trip_graph.h"
#include "graphdb/weighted_graph.h"

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

/// \brief Simple scalar summaries of a weighted graph.
struct WeightedGraphSummary {
  size_t nodes = 0;
  size_t edges = 0;
  double total_weight = 0.0;
  double mean_degree = 0.0;
  double mean_strength = 0.0;
  double max_strength = 0.0;
  double density = 0.0;  ///< edges / (n choose 2)
};

WeightedGraphSummary Summarize(const graphdb::WeightedGraph& graph);

}  // namespace bikegraph::metrics
