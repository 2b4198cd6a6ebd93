#pragma once

#include "geo/latlon.h"

namespace bikegraph::geo {

/// \brief An axis-aligned latitude/longitude bounding box.
///
/// Used for coarse spatial filtering (the Dublin study-area gate in the
/// cleaning pipeline) and as the extent of the GridIndex. Boxes never wrap
/// the antimeridian — Dublin is comfortably far from it.
class BBox {
 public:
  /// Constructs an empty (inverted) box; extend with Extend().
  BBox();
  BBox(const LatLon& min_corner, const LatLon& max_corner);

  bool IsEmpty() const;

  /// Grows the box to include `p`.
  void Extend(const LatLon& p);

  /// True iff `p` lies inside or on the boundary.
  bool Contains(const LatLon& p) const;

  const LatLon& min_corner() const { return min_; }
  const LatLon& max_corner() const { return max_; }

 private:
  LatLon min_;
  LatLon max_;
};

}  // namespace bikegraph::geo
