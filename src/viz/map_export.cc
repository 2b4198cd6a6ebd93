#include "viz/map_export.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

#include "core/string_util.h"
#include "geo/geojson.h"

#include "core/checked_cast.h"

namespace bikegraph::viz {

namespace {

/// The paper's community colour cycle (Figs. 3/4/6 legend order).
const char* kColors[] = {"blue", "orange", "green",  "red",  "purple",
                         "brown", "pink",  "gray",  "olive", "cyan"};

/// Aggregates a trip multigraph into directed (from, to) -> count.
std::map<std::pair<int32_t, int32_t>, int64_t> AggregateTrips(
    const graphdb::TripGraph& graph) {
  std::map<std::pair<int32_t, int32_t>, int64_t> counts;
  for (const graphdb::Trip& trip : graph.trips()) {
    counts[{trip.from, trip.to}]++;
  }
  return counts;
}

}  // namespace

Status WriteCandidateMap(const expansion::CandidateNetwork& network,
                         const std::string& path) {
  geo::GeoJsonWriter w;
  for (size_t i = 0; i < network.candidates.size(); ++i) {
    const auto& cand = network.candidates[i];
    w.AddPoint(cand.centroid,
               {{"kind", cand.is_fixed() ? "station" : "candidate"},
                {"degree", std::to_string(cand.degree())},
                {"locations", std::to_string(cand.location_ids.size())},
                {"name", cand.name}});
  }
  for (const auto& [pair, count] : AggregateTrips(network.graph)) {
    if (pair.first == pair.second) continue;
    w.AddLine(network.candidates[AsIndex(pair.first)].centroid,
              network.candidates[AsIndex(pair.second)].centroid,
              {{"trips", std::to_string(count)}});
  }
  return w.WriteToFile(path);
}

Status WriteSelectedMap(const expansion::FinalNetwork& network,
                        const std::string& path,
                        double edge_weight_percentile) {
  if (edge_weight_percentile < 0.0 || edge_weight_percentile > 1.0) {
    return Status::InvalidArgument("percentile must be in [0, 1]");
  }
  auto counts = AggregateTrips(network.graph);

  // Self-trip counts size the nodes (the paper's Fig. 2 styling).
  std::unordered_map<int32_t, int64_t> self_trips;
  std::vector<int64_t> weights;
  for (const auto& [pair, count] : counts) {
    if (pair.first == pair.second) {
      self_trips[pair.first] = count;
    } else {
      weights.push_back(count);
    }
  }
  int64_t cutoff = 0;
  if (!weights.empty()) {
    std::sort(weights.begin(), weights.end());
    const size_t idx = std::min(
        weights.size() - 1,
        static_cast<size_t>(edge_weight_percentile *
                            static_cast<double>(weights.size())));
    cutoff = weights[idx];
  }

  geo::GeoJsonWriter w;
  for (size_t s = 0; s < network.stations.size(); ++s) {
    const auto& st = network.stations[s];
    w.AddPoint(st.position,
               {{"name", st.name},
                {"pre_existing", st.pre_existing ? "1" : "0"},
                {"self_trips",
                 std::to_string(self_trips.count(static_cast<int32_t>(s))
                                    ? self_trips[static_cast<int32_t>(s)]
                                    : 0)}});
  }
  for (const auto& [pair, count] : counts) {
    if (pair.first == pair.second || count < cutoff) continue;
    w.AddLine(network.stations[AsIndex(pair.first)].position,
              network.stations[AsIndex(pair.second)].position,
              {{"trips", std::to_string(count)}});
  }
  return w.WriteToFile(path);
}

Status WriteCommunityMap(const expansion::FinalNetwork& network,
                         const community::Partition& partition,
                         const std::string& path) {
  if (partition.assignment.size() != network.stations.size()) {
    return Status::InvalidArgument(
        "partition size does not match station count");
  }
  geo::GeoJsonWriter w;
  constexpr size_t kColorCount = sizeof(kColors) / sizeof(kColors[0]);
  for (size_t s = 0; s < network.stations.size(); ++s) {
    const auto& st = network.stations[s];
    const int32_t c = partition.assignment[s];
    w.AddPoint(st.position,
               {{"name", st.name},
                {"pre_existing", st.pre_existing ? "1" : "0"},
                {"community", std::to_string(c + 1)},
                {"color", kColors[static_cast<size_t>(c) % kColorCount]}});
  }
  return w.WriteToFile(path);
}

Status WriteDot(const expansion::FinalNetwork& network,
                const std::string& path, double min_weight) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << "digraph bss {\n  node [shape=point];\n";
  auto counts = AggregateTrips(network.graph);
  for (size_t s = 0; s < network.stations.size(); ++s) {
    out << "  n" << s << " [xlabel=\""
        << geo::JsonEscape(network.stations[s].name) << "\"];\n";
  }
  for (const auto& [pair, count] : counts) {
    if (static_cast<double>(count) < min_weight) continue;
    out << "  n" << pair.first << " -> n" << pair.second << " [weight="
        << count << ", penwidth="
        << FormatDouble(
               std::min(6.0, 0.5 + static_cast<double>(count) / 200.0), 2)
        << "];\n";
  }
  out << "}\n";
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace bikegraph::viz
