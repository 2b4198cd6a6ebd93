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
  if (frozen_) {
    // Thaw: drop the frozen arrays and let the lazy hash build re-bucket
    // everything (slot_keys_ still holds every slot's cell) on the next
    // query.
    frozen_ = false;
    frozen_keys_.clear();
    frozen_offsets_.clear();
    frozen_slots_.clear();
    cells_.clear();
    hashed_upto_ = 0;
  }
  const int32_t slot = static_cast<int32_t>(points_.size());
  points_.push_back(point);
  ids_.push_back(id);
  cos_lat_.push_back(std::cos(DegToRad(point.lat)));
  slot_keys_.push_back(KeyFor(point));
  id_to_slot_[id] = slot;
  return true;
}

void GridIndex::EnsureHashed() const {
  for (; hashed_upto_ < slot_keys_.size(); ++hashed_upto_) {
    cells_[slot_keys_[hashed_upto_]].push_back(
        static_cast<int32_t>(hashed_upto_));
  }
}

void GridIndex::Freeze() {
  if (frozen_) return;
  const size_t n = slot_keys_.size();
  // Sort slots by cell key (stable, so each cell keeps insertion order —
  // the same order the hash buckets would hold).
  std::vector<int32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](int32_t a, int32_t b) {
                     return slot_keys_[AsIndex(a)] < slot_keys_[AsIndex(b)];
                   });
  frozen_keys_.clear();
  frozen_offsets_.clear();
  frozen_slots_.clear();
  frozen_slots_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const CellKey key = slot_keys_[AsIndex(order[i])];
    if (frozen_keys_.empty() || !(frozen_keys_.back() == key)) {
      frozen_keys_.push_back(key);
      frozen_offsets_.push_back(i);
    }
    frozen_slots_.push_back(order[i]);
  }
  frozen_offsets_.push_back(n);
  cells_.clear();
  hashed_upto_ = n;
  frozen_ = true;
}

std::vector<int64_t> GridIndex::WithinRadius(const LatLon& center,
                                             double radius_m) const {
  std::vector<int64_t> out;
  ForEachWithinRadius(center, radius_m,
                      [&](int64_t id, double) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

GridIndex::Neighbor GridIndex::Nearest(const LatLon& query,
                                       int64_t exclude_id) const {
  Neighbor best;
  best.distance_m = std::numeric_limits<double>::infinity();
  if (points_.empty()) return best;
  // Expanding ring search: examine cells at increasing Chebyshev radius until
  // the best candidate is provably closer than any unexplored cell.
  const CellKey origin = KeyFor(query);
  const double cos_query = std::cos(DegToRad(query.lat));
  size_t visited = 0;
  for (int32_t ring = 0;; ++ring) {
    for (int32_t row = origin.row - ring; row <= origin.row + ring; ++row) {
      for (int32_t col = origin.col - ring; col <= origin.col + ring; ++col) {
        // Only the boundary of the ring (interior was covered earlier).
        if (ring > 0 && std::abs(row - origin.row) != ring &&
            std::abs(col - origin.col) != ring) {
          continue;
        }
        for (int32_t slot : CellSlots(CellKey{row, col})) {
          ++visited;
          if (ids_[AsIndex(slot)] == exclude_id) continue;
          double d = HaversineMetersWithCos(points_[AsIndex(slot)], query,
                                            cos_lat_[AsIndex(slot)], cos_query);
          if (d < best.distance_m ||
              (d == best.distance_m && ids_[AsIndex(slot)] < best.id)) {
            best.id = ids_[AsIndex(slot)];
            best.distance_m = d;
          }
        }
      }
    }
    // Stop when we have a hit and the next ring cannot contain anything
    // closer: the nearest point in ring r+1 is at least r*cell_m away, with
    // the cell extent evaluated at the most poleward latitude the next ring
    // can reach (longitude cells only get narrower toward the poles).
    if (best.id >= 0 &&
        best.distance_m <= ring * RingCellExtentMeters(query.lat, ring)) {
      break;
    }
    // Every stored point has been examined — no further ring can help.
    if (visited >= points_.size()) break;
    // Far past any sane grid extent (e.g. a degenerate near-pole cell
    // metric): fall back to an exhaustive scan rather than miss points.
    if (ring > 1 << 16) {
      for (size_t slot = 0; slot < points_.size(); ++slot) {
        if (ids_[slot] == exclude_id) continue;
        double d = HaversineMetersWithCos(points_[slot], query,
                                          cos_lat_[slot], cos_query);
        if (d < best.distance_m ||
            (d == best.distance_m && ids_[slot] < best.id)) {
          best.id = ids_[slot];
          best.distance_m = d;
        }
      }
      break;
    }
  }
  return best;
}

std::vector<GridIndex::Neighbor> GridIndex::KNearest(const LatLon& query,
                                                     size_t k,
                                                     int64_t exclude_id) const {
  std::vector<Neighbor> heap;  // max-heap: farthest of the k best at front
  if (k == 0 || points_.empty()) return heap;
  heap.reserve(std::min(k, points_.size()) + 1);
  auto closer = [](const Neighbor& x, const Neighbor& y) {
    if (x.distance_m != y.distance_m) return x.distance_m < y.distance_m;
    return x.id < y.id;
  };

  const CellKey origin = KeyFor(query);
  const double cos_query = std::cos(DegToRad(query.lat));
  auto consider = [&](int32_t slot) {
    if (ids_[AsIndex(slot)] == exclude_id) return;
    Neighbor cand{ids_[AsIndex(slot)],
                  HaversineMetersWithCos(points_[AsIndex(slot)], query, cos_lat_[AsIndex(slot)],
                                         cos_query)};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), closer);
    } else if (closer(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), closer);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), closer);
    }
  };
  size_t visited = 0;
  for (int32_t ring = 0;; ++ring) {
    for (int32_t row = origin.row - ring; row <= origin.row + ring; ++row) {
      for (int32_t col = origin.col - ring; col <= origin.col + ring; ++col) {
        if (ring > 0 && std::abs(row - origin.row) != ring &&
            std::abs(col - origin.col) != ring) {
          continue;
        }
        for (int32_t slot : CellSlots(CellKey{row, col})) {
          ++visited;
          consider(slot);
        }
      }
    }
    // The k-th best is provably closer than anything in ring r+1.
    if (heap.size() == k &&
        heap.front().distance_m <= ring * RingCellExtentMeters(query.lat,
                                                               ring)) {
      break;
    }
    if (visited >= points_.size()) break;
    if (ring > 1 << 16) {  // degenerate metric: exhaustive fallback
      // Restart from scratch — the ring scan already pushed some of these
      // slots, and re-considering them would duplicate ids in the heap.
      heap.clear();
      for (size_t slot = 0; slot < points_.size(); ++slot) {
        consider(static_cast<int32_t>(slot));
      }
      break;
    }
  }
  std::sort(heap.begin(), heap.end(), closer);
  return heap;
}

LatLon GridIndex::PointOf(int64_t id) const {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return LatLon(std::nan(""), std::nan(""));
  return points_[AsIndex(it->second)];
}

}  // namespace bikegraph::geo
