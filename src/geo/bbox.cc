#include "geo/bbox.h"

#include <algorithm>

namespace bikegraph::geo {

BBox::BBox() : min_(90.0, 180.0), max_(-90.0, -180.0) {}

BBox::BBox(const LatLon& min_corner, const LatLon& max_corner)
    : min_(min_corner), max_(max_corner) {}

bool BBox::IsEmpty() const { return min_.lat > max_.lat || min_.lon > max_.lon; }

void BBox::Extend(const LatLon& p) {
  min_.lat = std::min(min_.lat, p.lat);
  min_.lon = std::min(min_.lon, p.lon);
  max_.lat = std::max(max_.lat, p.lat);
  max_.lon = std::max(max_.lon, p.lon);
}

bool BBox::Contains(const LatLon& p) const {
  return !IsEmpty() && p.lat >= min_.lat && p.lat <= max_.lat &&
         p.lon >= min_.lon && p.lon <= max_.lon;
}

}  // namespace bikegraph::geo
