#include "geo/polygon.h"

namespace bikegraph::geo {

Polygon::Polygon(std::vector<LatLon> ring) : ring_(std::move(ring)) {
  if (ring_.size() >= 2 && ring_.front() == ring_.back()) {
    ring_.pop_back();
  }
  for (const auto& p : ring_) bounds_.Extend(p);
}

bool Polygon::Contains(const LatLon& p) const {
  if (empty() || !bounds_.Contains(p)) return false;
  bool inside = false;
  const size_t n = ring_.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const LatLon& a = ring_[i];
    const LatLon& b = ring_[j];
    const bool crosses = (a.lat > p.lat) != (b.lat > p.lat);
    if (!crosses) continue;
    const double x_at =
        (b.lon - a.lon) * (p.lat - a.lat) / (b.lat - a.lat) + a.lon;
    if (p.lon < x_at) inside = !inside;
  }
  return inside;
}

bool Region::Contains(const LatLon& p) const {
  if (!boundary_.Contains(p)) return false;
  for (const auto& hole : holes_) {
    if (hole.Contains(p)) return false;
  }
  return true;
}

}  // namespace bikegraph::geo
