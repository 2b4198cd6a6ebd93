#include "expansion/candidate.h"

#include "core/checked_cast.h"

namespace bikegraph::expansion {

Result<CandidateNetwork> BuildCandidateNetwork(
    const data::Dataset& cleaned, const cluster::GeoClusterParams& params) {
  CandidateNetwork net;

  // Split the location table into fixed stations and dockless locations.
  std::vector<geo::LatLon> station_points, dockless_points;
  std::vector<const data::LocationRecord*> stations, dockless;
  for (const auto& loc : cleaned.locations()) {
    if (!loc.has_coordinates()) {
      return Status::FailedPrecondition(
          "dataset not cleaned: location " + std::to_string(loc.id) +
          " has no coordinates");
    }
    if (loc.is_station) {
      stations.push_back(&loc);
      station_points.push_back(loc.position);
    } else {
      dockless.push_back(&loc);
      dockless_points.push_back(loc.position);
    }
  }

  BIKEGRAPH_ASSIGN_OR_RETURN(
      cluster::GeoClusteringResult clustering,
      cluster::ClusterLocations(dockless_points, station_points, params));

  // Materialise candidates: station groups first, then free clusters
  // (ClusterLocations already orders them this way).
  net.candidates.resize(clustering.clusters.size());
  net.fixed_count = stations.size();
  for (size_t g = 0; g < clustering.clusters.size(); ++g) {
    const auto& group = clustering.clusters[g];
    CandidateStation& cand = net.candidates[g];
    cand.centroid = group.centroid;
    cand.station_index = group.station_index;
    if (group.is_station_group()) {
      const auto* st = stations[AsIndex(group.station_index)];
      cand.name = st->name;
      cand.location_ids.push_back(st->id);
      net.location_to_candidate[st->id] = static_cast<int32_t>(g);
    }
    for (int32_t member : group.member_indices) {
      cand.location_ids.push_back(dockless[AsIndex(member)]->id);
      net.location_to_candidate[dockless[AsIndex(member)]->id] =
          static_cast<int32_t>(g);
    }
  }

  // Candidate trip graph: one node per candidate, one row per trip.
  net.graph = graphdb::TripGraph(net.candidates.size());
  net.graph.Reserve(cleaned.rentals().size());
  for (const auto& rental : cleaned.rentals()) {
    auto from_it = net.location_to_candidate.find(rental.rental_location_id);
    auto to_it = net.location_to_candidate.find(rental.return_location_id);
    if (from_it == net.location_to_candidate.end() ||
        to_it == net.location_to_candidate.end()) {
      return Status::FailedPrecondition(
          "dataset not cleaned: rental " + std::to_string(rental.id) +
          " references an unmapped location");
    }
    const int32_t from = from_it->second;
    const int32_t to = to_it->second;
    BIKEGRAPH_RETURN_NOT_OK(net.graph.AddTrip(
        from, to, static_cast<int>(rental.start_time.weekday()),
        rental.start_time.hour()));
    ++net.candidates[AsIndex(from)].trips_from;
    ++net.candidates[AsIndex(to)].trips_to;
  }
  return net;
}

}  // namespace bikegraph::expansion
