#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "cluster/geo_cluster.h"
#include "data/dataset.h"
#include "graphdb/trip_graph.h"

namespace bikegraph::expansion {

/// \brief One node of the candidate graph: either a pre-existing fixed
/// station (with its absorbed locations) or a candidate station produced by
/// the constrained HAC stage.
struct CandidateStation {
  geo::LatLon centroid;
  /// Location-table ids grouped into this candidate.
  std::vector<int64_t> location_ids;
  /// Trips starting / ending here (self-trips count in both).
  int64_t trips_from = 0;
  int64_t trips_to = 0;
  /// Index into the original station list for fixed stations, else -1.
  int32_t station_index = -1;
  /// Station name for fixed stations.
  std::string name;

  bool is_fixed() const { return station_index >= 0; }
  /// Degree as used by Algorithm 1's ranking: total trip endpoints here.
  int64_t degree() const { return trips_from + trips_to; }
};

/// \brief The candidate graph (paper Fig. 1 / Table II): every group from
/// the constrained clustering becomes a node; every trip becomes a directed
/// relationship between the groups of its endpoints.
struct CandidateNetwork {
  /// Fixed-station groups first (in dataset station order), then free
  /// candidate clusters. Indices equal node ids in `graph`.
  std::vector<CandidateStation> candidates;
  /// Location-table id -> candidate index.
  std::unordered_map<int64_t, int32_t> location_to_candidate;
  /// Trip multigraph over candidates: row i is `cleaned.rentals()[i]`
  /// between the candidates of its two locations.
  graphdb::TripGraph graph;

  size_t fixed_count = 0;  ///< number of fixed-station nodes
  size_t free_count() const { return candidates.size() - fixed_count; }
};

/// \brief Builds the candidate network from a *cleaned* dataset: splits
/// locations into stations/dockless, runs the constrained clustering
/// (paper §IV-A) and materialises the candidate trip graph.
Result<CandidateNetwork> BuildCandidateNetwork(
    const data::Dataset& cleaned,
    const cluster::GeoClusterParams& params = {});

}  // namespace bikegraph::expansion
