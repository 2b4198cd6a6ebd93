#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/haversine.h"

#include "core/checked_cast.h"

namespace bikegraph::geo {

GridIndex::GridIndex(double cell_size_m, double reference_lat) {
  if (cell_size_m <= 0.0) cell_size_m = 100.0;
  cell_lat_deg_ = MetersToLatDegrees(cell_size_m);
  cell_lon_deg_ = MetersToLonDegrees(cell_size_m, reference_lat);
}

GridIndex::RadiusKernel::RadiusKernel(double radius)
    : radius_m(radius),
      dlat(MetersToLatDegrees(radius)),
      dlat_pad(dlat * (1.0 + 1e-9)) {
  const double sin_r = std::sin(radius / (2.0 * kEarthRadiusMeters));
  h_max = radius >= 3.14 * kEarthRadiusMeters ? 1.1
                                              : sin_r * sin_r * (1.0 + 1e-9);
}

GridIndex::CellKey GridIndex::KeyFor(const LatLon& p) const {
  return CellKey{static_cast<int32_t>(std::floor(p.lat / cell_lat_deg_)),
                 static_cast<int32_t>(std::floor(p.lon / cell_lon_deg_))};
}

double GridIndex::RingCellExtentMeters(double query_lat, int32_t ring) const {
  // Most poleward latitude ring+1 can reach: longitude cells are narrowest
  // there, so this is the conservative per-ring distance bound.
  const double reach =
      std::min(90.0, std::abs(query_lat) +
                         (static_cast<double>(ring) + 1.0) * cell_lat_deg_);
  return std::max(1e-9, MinCellExtentMeters(std::cos(DegToRad(reach))));
}

double GridIndex::MinCellExtentMeters(double cos_query_lat) const {
  const double cell_lat_m = kEarthRadiusMeters * DegToRad(cell_lat_deg_);
  // A longitude cell spans cell_lon_deg_ degrees, whose metric width shrinks
  // with cos(latitude): away from the reference latitude it can be narrower
  // than the latitude edge, so the ring-termination bound must use the
  // smaller of the two extents or the search could stop while a closer
  // point sits in an unvisited lateral cell.
  const double cell_lon_m = kEarthRadiusMeters * DegToRad(cell_lon_deg_) *
                            std::max(0.0, cos_query_lat);
  return std::min(cell_lat_m, cell_lon_m);
}

bool GridIndex::Add(int64_t id, const LatLon& point) {
  if (!point.IsValid()) return false;
  const int32_t slot = static_cast<int32_t>(points_.size());
  const CellKey key = KeyFor(point);
  cells_[key].push_back(slot);
  min_row_ = std::min(min_row_, key.row);
  max_row_ = std::max(max_row_, key.row);
  min_col_ = std::min(min_col_, key.col);
  max_col_ = std::max(max_col_, key.col);
  points_.push_back(point);
  ids_.push_back(id);
  cos_lat_.push_back(std::cos(DegToRad(point.lat)));
  id_to_slot_[id] = slot;
  return true;
}

std::vector<int64_t> GridIndex::WithinRadius(const LatLon& center,
                                             double radius_m) const {
  std::vector<int64_t> out;
  ForEachWithinRadius(center, radius_m,
                      [&](int64_t id, double) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

template <typename Consider, typename Reach>
void GridIndex::WalkRings(const LatLon& query, int64_t exclude_id,
                          Consider&& consider, Reach&& reach_m) const {
  const CellKey o = KeyFor(query);
  const double cos_query = std::cos(DegToRad(query.lat));
  auto visit_cell = [&](int32_t row, int32_t col) {
    for (int32_t slot : CellSlots(CellKey{row, col})) {
      if (ids_[AsIndex(slot)] == exclude_id) continue;
      consider(Neighbor{ids_[AsIndex(slot)],
                        HaversineMetersWithCos(points_[AsIndex(slot)], query,
                                               cos_lat_[AsIndex(slot)],
                                               cos_query)});
    }
  };
  // Ring r holds the cells at Chebyshev distance r from o: the first ring
  // to reach the key range is o's distance to it, and the ring at o's
  // distance to the range's farthest edge covers all of it.
  const int32_t first = std::max({0, min_row_ - o.row, o.row - max_row_,
                                  min_col_ - o.col, o.col - max_col_});
  const int32_t last = std::max({o.row - min_row_, max_row_ - o.row,
                                 o.col - min_col_, max_col_ - o.col});
  for (int32_t ring = first;; ++ring) {
    // The ring's top and bottom rows, then its side columns between
    // them, each clipped to the range (ring >= first keeps every edge
    // from passing the range on its far side).
    const bool top = o.row - ring >= min_row_;
    const bool bottom = ring > 0 && o.row + ring <= max_row_;
    const bool left = o.col - ring >= min_col_;
    const bool right = ring > 0 && o.col + ring <= max_col_;
    for (int32_t col = std::max(o.col - ring, min_col_);
         col <= std::min(o.col + ring, max_col_); ++col) {
      if (top) visit_cell(o.row - ring, col);
      if (bottom) visit_cell(o.row + ring, col);
    }
    for (int32_t row = std::max(o.row - ring + 1, min_row_);
         row <= std::min(o.row + ring - 1, max_row_); ++row) {
      if (left) visit_cell(row, o.col - ring);
      if (right) visit_cell(row, o.col + ring);
    }
    // A point in ring r+1 is at least r cell extents away, with the extent
    // taken at the most poleward latitude that ring can reach (longitude
    // cells only get narrower toward the poles).
    if (ring >= last ||
        reach_m() <= ring * RingCellExtentMeters(query.lat, ring)) {
      return;
    }
  }
}

GridIndex::Neighbor GridIndex::Nearest(const LatLon& query,
                                       int64_t exclude_id) const {
  Neighbor best;
  best.distance_m = std::numeric_limits<double>::infinity();
  if (points_.empty() || !query.IsValid()) return best;
  WalkRings(
      query, exclude_id,
      [&](const Neighbor& cand) {
        if (cand.distance_m < best.distance_m ||
            (cand.distance_m == best.distance_m && cand.id < best.id)) {
          best = cand;
        }
      },
      [&] { return best.distance_m; });
  return best;
}

std::vector<GridIndex::Neighbor> GridIndex::KNearest(const LatLon& query,
                                                     size_t k,
                                                     int64_t exclude_id) const {
  std::vector<Neighbor> heap;  // max-heap: farthest of the k best at front
  if (k == 0 || points_.empty() || !query.IsValid()) return heap;
  heap.reserve(std::min(k, points_.size()) + 1);
  auto closer = [](const Neighbor& x, const Neighbor& y) {
    if (x.distance_m != y.distance_m) return x.distance_m < y.distance_m;
    return x.id < y.id;
  };
  WalkRings(
      query, exclude_id,
      [&](const Neighbor& cand) {
        if (heap.size() < k) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end(), closer);
        } else if (closer(cand, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), closer);
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end(), closer);
        }
      },
      [&] {
        return heap.size() == k ? heap.front().distance_m
                                : std::numeric_limits<double>::infinity();
      });
  std::sort(heap.begin(), heap.end(), closer);
  return heap;
}

LatLon GridIndex::PointOf(int64_t id) const {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return LatLon(std::nan(""), std::nan(""));
  return points_[AsIndex(it->second)];
}

}  // namespace bikegraph::geo
