#include "expansion/final_network.h"

#include <unordered_set>

#include "geo/grid_index.h"

#include "core/checked_cast.h"

namespace bikegraph::expansion {

SelectedGraphStats FinalNetwork::ComputeStats() const {
  SelectedGraphStats stats;
  stats.pre_existing.stations = pre_existing_count;
  stats.selected.stations = selected_count();

  auto row_of = [&](int32_t station) -> SelectedGraphStats::Row& {
    return stations[AsIndex(station)].pre_existing ? stats.pre_existing
                                          : stats.selected;
  };

  std::unordered_set<uint64_t> directed_pairs;
  for (const graphdb::Trip& trip : graph.trips()) {
    ++row_of(trip.from).trips_from;
    ++row_of(trip.to).trips_to;
    ++stats.total_trips;
    directed_pairs.insert((static_cast<uint64_t>(trip.from) << 32) |
                          static_cast<uint64_t>(trip.to));
  }
  // lint: unordered-iter-ok: order-independent integer counting;
  // per-endpoint edge-count increments commute.
  for (uint64_t key : directed_pairs) {
    const int32_t from = static_cast<int32_t>(key >> 32);
    const int32_t to = static_cast<int32_t>(key & 0xFFFFFFFFULL);
    ++row_of(from).edges_from;
    ++row_of(to).edges_to;
  }
  stats.total_edges = directed_pairs.size();
  return stats;
}

Result<FinalNetwork> BuildFinalNetwork(const data::Dataset& cleaned,
                                       const CandidateNetwork& network,
                                       const SelectionResult& selection) {
  FinalNetwork net;

  // Station list: pre-existing first, then the selected candidates in rank
  // order. Remember candidate -> final-station mapping where one exists.
  std::vector<int32_t> candidate_to_station(network.candidates.size(), -1);
  for (size_t c = 0; c < network.candidates.size(); ++c) {
    const CandidateStation& cand = network.candidates[c];
    if (!cand.is_fixed()) continue;
    FinalStation st;
    st.position = cand.centroid;
    st.pre_existing = true;
    st.name = cand.name;
    st.candidate_index = static_cast<int32_t>(c);
    candidate_to_station[c] = static_cast<int32_t>(net.stations.size());
    net.stations.push_back(std::move(st));
  }
  net.pre_existing_count = net.stations.size();
  for (size_t rank = 0; rank < selection.selected.size(); ++rank) {
    const int32_t c = selection.selected[rank];
    const CandidateStation& cand = network.candidates[AsIndex(c)];
    FinalStation st;
    st.position = cand.centroid;
    st.pre_existing = false;
    st.name = "New Stn #" + std::to_string(rank + 1);
    st.candidate_index = c;
    candidate_to_station[AsIndex(c)] = static_cast<int32_t>(net.stations.size());
    net.stations.push_back(std::move(st));
  }

  // Spatial index over the final stations for nearest-station
  // reassignment (one build, one Nearest query per unassigned location).
  geo::GridIndex station_index(300.0);
  for (size_t s = 0; s < net.stations.size(); ++s) {
    station_index.Add(static_cast<int64_t>(s), net.stations[s].position);
  }

  // Map every cleaned location to a final station.
  for (const auto& loc : cleaned.locations()) {
    auto it = network.location_to_candidate.find(loc.id);
    if (it == network.location_to_candidate.end()) {
      return Status::FailedPrecondition(
          "location " + std::to_string(loc.id) +
          " is not part of the candidate network");
    }
    const int32_t candidate = it->second;
    int32_t station = candidate_to_station[AsIndex(candidate)];
    if (station < 0) {
      auto nearest = station_index.Nearest(loc.position);
      if (nearest.id < 0) {
        return Status::FailedPrecondition("final network has no stations");
      }
      station = static_cast<int32_t>(nearest.id);
      ++net.reassigned_locations;
    }
    net.location_to_station[loc.id] = station;
  }

  // Rebuild the trip multigraph over final stations.
  net.graph = graphdb::TripGraph(net.stations.size());
  net.graph.Reserve(cleaned.rentals().size());
  for (const auto& rental : cleaned.rentals()) {
    BIKEGRAPH_RETURN_NOT_OK(net.graph.AddTrip(
        net.location_to_station.at(rental.rental_location_id),
        net.location_to_station.at(rental.return_location_id),
        static_cast<int>(rental.start_time.weekday()),
        rental.start_time.hour()));
  }
  return net;
}

}  // namespace bikegraph::expansion
