#pragma once

#include <vector>

#include "geo/bbox.h"
#include "geo/latlon.h"

namespace bikegraph::geo {

/// \brief A simple (non-self-intersecting) polygon on the lat/lon plane.
///
/// Used to model the Dublin study-area boundary and water bodies (Dublin
/// Bay, the Liffey estuary) for the cleaning rules "locations outside
/// Dublin" and "locations that are not on land". At city scale the planar
/// even-odd test on raw degrees is accurate to centimetres, which is far
/// below the 50 m decision granularity of the pipeline.
class Polygon {
 public:
  Polygon() = default;

  /// The ring is implicitly closed; passing a first==last vertex is allowed.
  explicit Polygon(std::vector<LatLon> ring);

  /// Number of distinct vertices.
  size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.size() < 3; }
  const std::vector<LatLon>& ring() const { return ring_; }

  /// Even-odd (ray casting) point-in-polygon test. Points exactly on an edge
  /// may land on either side; callers at metre precision don't care.
  bool Contains(const LatLon& p) const;

  /// Tight bounding box of the ring.
  const BBox& bounds() const { return bounds_; }

 private:
  std::vector<LatLon> ring_;
  BBox bounds_;
};

/// \brief A region made of an outer boundary minus a set of holes
/// (e.g. "Dublin land" = boundary polygon minus water polygons).
class Region {
 public:
  Region() = default;
  Region(Polygon boundary, std::vector<Polygon> holes)
      : boundary_(std::move(boundary)), holes_(std::move(holes)) {}

  /// True iff `p` is inside the boundary and outside every hole.
  bool Contains(const LatLon& p) const;

  const Polygon& boundary() const { return boundary_; }
  const std::vector<Polygon>& holes() const { return holes_; }

 private:
  Polygon boundary_;
  std::vector<Polygon> holes_;
};

}  // namespace bikegraph::geo
