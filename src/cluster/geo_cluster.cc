#include "cluster/geo_cluster.h"

#include <algorithm>

#include "cluster/hac.h"
#include "geo/grid_index.h"
#include "geo/haversine.h"

#include "core/checked_cast.h"

namespace bikegraph::cluster {

size_t GeoClusteringResult::station_group_count() const {
  size_t c = 0;
  for (const auto& g : clusters) {
    if (g.is_station_group()) ++c;
  }
  return c;
}

size_t GeoClusteringResult::free_cluster_count() const {
  return clusters.size() - station_group_count();
}

geo::LatLon Centroid(const std::vector<geo::LatLon>& points) {
  if (points.empty()) return geo::LatLon();
  double lat = 0.0, lon = 0.0;
  for (const auto& p : points) {
    lat += p.lat;
    lon += p.lon;
  }
  return geo::LatLon(lat / static_cast<double>(points.size()),
                     lon / static_cast<double>(points.size()));
}

Result<GeoClusteringResult> ClusterLocations(
    const std::vector<geo::LatLon>& locations,
    const std::vector<geo::LatLon>& stations,
    const GeoClusterParams& params) {
  if (params.cluster_boundary_m <= 0.0 || params.station_absorption_m < 0.0) {
    return Status::InvalidArgument("non-positive clustering thresholds");
  }
  GeoClusteringResult result;
  result.assignment.assign(locations.size(), -1);

  // Station groups first, preserving station order (groups are immovable
  // centroids per the paper's preprocessing).
  geo::GridIndex station_grid(
      std::max(params.station_absorption_m * 2.0, 50.0));
  for (size_t s = 0; s < stations.size(); ++s) {
    if (!stations[s].IsValid()) {
      return Status::InvalidArgument("invalid station coordinate at index " +
                                     std::to_string(s));
    }
    GeoCluster group;
    group.centroid = stations[s];
    group.station_index = static_cast<int32_t>(s);
    result.clusters.push_back(std::move(group));
    station_grid.Add(static_cast<int64_t>(s), stations[s]);
  }

  // Absorption pass: a location within the absorption radius of any station
  // joins the *nearest* such station's group (ties to the smaller station
  // index) and is excluded from clustering. Only stations within the
  // radius are scanned: a location far from every station costs the few
  // cells the radius covers, not a ring search out to the nearest one.
  std::vector<int32_t> free_indices;
  free_indices.reserve(locations.size());
  std::vector<geo::LatLon> free_points;
  for (size_t i = 0; i < locations.size(); ++i) {
    if (!locations[i].IsValid()) {
      return Status::InvalidArgument("invalid location coordinate at index " +
                                     std::to_string(i));
    }
    int64_t nearest = -1;
    double nearest_m = 0.0;
    station_grid.ForEachWithinRadius(
        locations[i], params.station_absorption_m,
        [&](int64_t id, double d) {
          if (nearest < 0 || d < nearest_m ||
              (d == nearest_m && id < nearest)) {
            nearest = id;
            nearest_m = d;
          }
        });
    if (nearest >= 0) {
      const int32_t group = static_cast<int32_t>(nearest);
      result.clusters[AsIndex(group)].member_indices.push_back(
          static_cast<int32_t>(i));
      result.assignment[i] = group;
      ++result.absorbed_count;
    } else {
      free_indices.push_back(static_cast<int32_t>(i));
      free_points.push_back(locations[i]);
    }
  }

  // Complete-linkage HAC over the free locations, cut at the boundary.
  if (!free_points.empty()) {
    BIKEGRAPH_ASSIGN_OR_RETURN(
        std::vector<int32_t> labels,
        ThresholdCompleteLinkage(free_points, params.cluster_boundary_m));
    int32_t max_label = -1;
    for (int32_t l : labels) max_label = std::max(max_label, l);
    const size_t base = result.clusters.size();
    result.clusters.resize(base + static_cast<size_t>(max_label + 1));
    for (size_t k = 0; k < labels.size(); ++k) {
      const size_t group = base + static_cast<size_t>(labels[k]);
      result.clusters[group].member_indices.push_back(free_indices[k]);
      result.assignment[AsIndex(free_indices[k])] = static_cast<int32_t>(group);
    }
    for (size_t g = base; g < result.clusters.size(); ++g) {
      std::vector<geo::LatLon> members;
      members.reserve(result.clusters[g].member_indices.size());
      for (int32_t idx : result.clusters[g].member_indices) {
        members.push_back(locations[AsIndex(idx)]);
      }
      result.clusters[g].centroid = Centroid(members);
    }
  }
  return result;
}

}  // namespace bikegraph::cluster
