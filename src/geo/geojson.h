#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "geo/latlon.h"

namespace bikegraph::geo {

/// \brief Incremental writer for a GeoJSON FeatureCollection.
///
/// Produces the map artefacts corresponding to the paper's Figures 1–4
/// and 6 (candidate graph, selected graph, community maps). Feature
/// properties are flat string→(string|number) maps; values that parse as
/// numbers are emitted unquoted so styling tools can scale by them.
///
/// \code
///   GeoJsonWriter w;
///   w.AddPoint(station.pos, {{"name", station.name}, {"degree", "42"}});
///   w.AddLine(a, b, {{"weight", "17"}});
///   BIKEGRAPH_RETURN_NOT_OK(w.WriteToFile("selected_graph.geojson"));
/// \endcode
class GeoJsonWriter {
 public:
  using Properties = std::map<std::string, std::string>;

  /// Adds a Point feature.
  void AddPoint(const LatLon& p, const Properties& props = {});

  /// Adds a two-vertex LineString feature (an edge on the map).
  void AddLine(const LatLon& from, const LatLon& to,
               const Properties& props = {});

  /// Adds a multi-vertex LineString.
  void AddLineString(const std::vector<LatLon>& points,
                     const Properties& props = {});

  /// Number of features added so far.
  size_t feature_count() const { return features_.size(); }

  /// Serialises the FeatureCollection to a JSON string.
  std::string ToString() const;

  /// Writes the FeatureCollection to `path`.
  Status WriteToFile(const std::string& path) const;

 private:
  std::vector<std::string> features_;
};

/// \brief Escapes a string for embedding in JSON (quotes not included).
std::string JsonEscape(const std::string& text);

}  // namespace bikegraph::geo
