#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "geo/grid_index.h"

namespace bikegraph::query {

/// \file query.h
/// \brief The serving layer's typed query vocabulary (see docs/SERVING.md).
///
/// Every query is answered from one epoch-pinned, immutable
/// `stream::WindowSnapshot` — a plain value a reader thread holds while
/// the ingestion thread keeps publishing newer epochs. The vocabulary is
/// deliberately small and closed (a std::variant, not an interface
/// hierarchy): batch execution dispatches without allocation, and every
/// query has a hand-derivable reference answer the bit-identity suite
/// (tests/query_service_test.cc) checks against the same snapshot.

/// \brief Which community a station belongs to, in the snapshot's
/// memoized partition (computed once per epoch with the service's
/// configured DetectSpec).
struct CommunityOfStationQuery {
  int32_t station = 0;
};

/// \brief The answer: the station's community label, that community's
/// size, and the partition-level context a dashboard wants alongside.
struct CommunityOfStationResult {
  int32_t community = 0;
  /// Stations in that community.
  size_t community_size = 0;
  /// Communities in the whole partition.
  size_t community_count = 0;
  /// Modularity of the memoized partition.
  double modularity = 0.0;
};

/// \brief The k stations nearest to `station` (itself excluded), through
/// the snapshot's shared GridIndex. Requires the snapshot to carry a
/// station index (engines configured with station_positions).
struct KNearestStationsQuery {
  int32_t station = 0;
  size_t k = 5;
};

/// \brief Ascending by distance, ties by station id — exactly
/// `geo::GridIndex::KNearest` order.
struct KNearestStationsResult {
  std::vector<geo::GridIndex::Neighbor> neighbors;
};

/// \brief Total edge weight the snapshot's graph carries between two
/// communities of the memoized partition (a == b sums the intra-community
/// weight, self-loops included).
struct InterCommunityFlowQuery {
  int32_t community_a = 0;
  int32_t community_b = 0;
};

struct InterCommunityFlowResult {
  /// Σ w(u, v) over unordered station pairs with u in a, v in b (each
  /// pair counted once; for a == b this includes self-loops).
  double flow = 0.0;
};

/// \brief The k busiest station pairs of the snapshot, ranked by graph
/// edge weight (for the GBasic projection that is exactly the trip
/// count), descending; ties by (u, v) ascending so the ranking is
/// deterministic. Self pairs (loop trips) are ranked too.
struct TopPairsQuery {
  size_t k = 10;
};

struct TopPair {
  int32_t u = 0;
  int32_t v = 0;  ///< u <= v (u == v is a loop-trip pair)
  double weight = 0.0;
};

struct TopPairsResult {
  std::vector<TopPair> pairs;
};

/// \brief One station's day-of-week / hour-of-day usage profile in the
/// snapshot's window (the paper's GDay/GHour features).
struct StationProfileQuery {
  int32_t station = 0;
};

struct StationProfileResult {
  std::array<double, 7> day{};    ///< Monday first
  std::array<double, 24> hour{};
  /// Trip endpoints touching the station in the window (2x loop trips).
  double endpoint_total = 0.0;
};

/// \brief Any query in the serving vocabulary — the unit QueryBatch
/// executes over one snapshot acquire.
using Query = std::variant<CommunityOfStationQuery, KNearestStationsQuery,
                           InterCommunityFlowQuery, TopPairsQuery,
                           StationProfileQuery>;

/// \brief Any answer, index-aligned with the Query alternatives.
using QueryAnswer =
    std::variant<CommunityOfStationResult, KNearestStationsResult,
                 InterCommunityFlowResult, TopPairsResult,
                 StationProfileResult>;

}  // namespace bikegraph::query
