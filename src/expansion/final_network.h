#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "data/dataset.h"
#include "expansion/candidate.h"
#include "expansion/selection.h"
#include "graphdb/trip_graph.h"

namespace bikegraph::expansion {

/// \brief One station of the expanded network (paper Fig. 2 / Table III):
/// either a pre-existing fixed station or a newly selected one.
struct FinalStation {
  geo::LatLon position;
  bool pre_existing = false;
  std::string name;
  /// Index into CandidateNetwork::candidates this station came from.
  int32_t candidate_index = -1;
};

/// \brief Per-class counters in the shape of the paper's Table III.
struct SelectedGraphStats {
  struct Row {
    size_t stations = 0;
    int64_t trips_from = 0;
    int64_t trips_to = 0;
    size_t edges_from = 0;  ///< distinct directed pairs by source class
    size_t edges_to = 0;    ///< distinct directed pairs by target class
  };
  Row pre_existing;
  Row selected;
  int64_t total_trips = 0;
  size_t total_edges = 0;  ///< distinct directed pairs
};

/// \brief The expanded station network after Algorithm 1 + reassignment.
struct FinalNetwork {
  /// Pre-existing stations first (dataset order), then selected new
  /// stations in ranking order. Indices equal node ids in `graph`.
  std::vector<FinalStation> stations;
  /// Location-table id -> final station index (every cleaned location maps
  /// somewhere; unselected candidates were reassigned to their nearest
  /// station, so no trips are lost — Table III's invariant).
  std::unordered_map<int64_t, int32_t> location_to_station;
  /// Trip multigraph over the final stations: row i is
  /// `cleaned.rentals()[i]` between the stations of its two locations.
  graphdb::TripGraph graph;
  /// Number of locations whose candidate was not selected and that were
  /// reassigned to the nearest station.
  size_t reassigned_locations = 0;

  size_t pre_existing_count = 0;
  size_t selected_count() const { return stations.size() - pre_existing_count; }

  /// Computes the Table III counters.
  SelectedGraphStats ComputeStats() const;
};

/// \brief Builds the final expanded network: converts the selected
/// candidates into stations and reassigns every location of an unselected
/// candidate to the nearest station (pre-existing or new), then rebuilds the
/// trip multigraph (Algorithm 1 line "unconverted candidate locations are
/// reassigned to the nearest station").
Result<FinalNetwork> BuildFinalNetwork(const data::Dataset& cleaned,
                                       const CandidateNetwork& network,
                                       const SelectionResult& selection);

}  // namespace bikegraph::expansion
