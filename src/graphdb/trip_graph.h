#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"

namespace bikegraph::graphdb {

/// \brief One trip of a TripGraph: a directed relationship between two
/// nodes, stamped with the weekday and hour the trip started.
struct Trip {
  int32_t from;
  int32_t to;
  uint8_t day;   ///< 0 = Monday
  uint8_t hour;  ///< 0-23
};

/// \brief The trip multigraph the paper keeps in Neo4j: a fixed number of
/// station nodes and one typed row per trip.
///
/// Parallel trips and loop trips are ordinary rows, so this is the
/// multigraph the paper projects GBasic/GDay/GHour from. Rows keep their
/// AddTrip order, which readers rely on: the projections add one weighted
/// edge per row in that order, so their float sums are reproducible.
class TripGraph {
 public:
  TripGraph() = default;
  /// An empty graph over `node_count` nodes, ids [0, node_count).
  explicit TripGraph(size_t node_count) : node_count_(node_count) {}

  /// Appends one trip. InvalidArgument when an endpoint is outside
  /// [0, NodeCount()), `day` outside 0-6 or `hour` outside 0-23.
  Status AddTrip(int32_t from, int32_t to, int day, int hour);

  /// Pre-sizes the row buffer for `trip_count` AddTrip calls.
  void Reserve(size_t trip_count) { trips_.reserve(trip_count); }

  size_t NodeCount() const { return node_count_; }
  size_t EdgeCount() const { return trips_.size(); }  ///< one per trip

  /// Every trip, in AddTrip order.
  std::span<const Trip> trips() const { return trips_; }

 private:
  size_t node_count_ = 0;
  std::vector<Trip> trips_;
};

}  // namespace bikegraph::graphdb
