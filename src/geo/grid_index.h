#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "geo/bbox.h"
#include "geo/haversine.h"
#include "geo/latlon.h"

#include "core/checked_cast.h"

namespace bikegraph::geo {

/// \brief A spatial hash grid over lat/lon points supporting radius queries
/// and nearest-neighbour lookups.
///
/// Points are bucketed into square cells of `cell_size_m` metres. A radius
/// query inspects only the cells overlapping the query disc, so queries are
/// O(points in neighbourhood) instead of O(n). This is the workhorse behind
/// the 50 m fixed-station absorption step, the 100 m geo-component
/// construction for HAC, Rule 2/4 proximity checks, and nearest-station
/// reassignment.
///
/// Storage is dense: coordinates, caller ids and precomputed cos(latitude)
/// live in flat arrays indexed by insertion slot, and grid cells hold slot
/// indices. Queries therefore never hash per distance check — the id hash
/// map is only consulted by Add() and PointOf().
///
/// The index is append-only and has one representation: Add() puts the
/// new slot into its hash cell at once, and every query is a pure read
/// of the cells. A built index is therefore safe to share across
/// threads with no further step (Add() itself is not thread-safe). A
/// query point or radius that is not valid finds nothing.
class GridIndex {
 public:
  /// \param cell_size_m edge length of a grid cell in metres. Choose it near
  ///   the typical query radius; defaults to 100 m (the paper's cluster
  ///   boundary scale).
  /// \param reference_lat latitude at which the metres→degrees conversion for
  ///   cell widths is computed; defaults to Dublin.
  explicit GridIndex(double cell_size_m = 100.0, double reference_lat = 53.35);

  /// Inserts a point with an opaque caller id (typically an index into the
  /// caller's own array). Invalid coordinates are ignored and return false.
  bool Add(int64_t id, const LatLon& point);

  /// Number of points stored.
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// Calls `visit(id, distance_m)` for every point within `radius_m` metres
  /// of `center` (Haversine), inclusive of the boundary. Zero allocations.
  /// Visit order is deterministic but unspecified (cell-scan order, not
  /// sorted by id or distance).
  template <typename Visitor>
  void ForEachWithinRadius(const LatLon& center, double radius_m,
                           Visitor&& visit) const {
    if (!(radius_m >= 0.0) || !center.IsValid()) return;
    const RadiusKernel kernel(radius_m);
    const double cos_center = std::cos(DegToRad(center.lat));
    const double dlon = MetersToLonDegrees(radius_m, center.lat);
    const CellKey lo =
        KeyFor(LatLon(center.lat - kernel.dlat, center.lon - dlon));
    const CellKey hi =
        KeyFor(LatLon(center.lat + kernel.dlat, center.lon + dlon));
    // Only the stored key range can hold a point (an empty index has
    // none, so both loops are empty).
    const int32_t col_lo = std::max(lo.col, min_col_);
    const int32_t col_hi = std::min(hi.col, max_col_);
    for (int32_t row = std::max(lo.row, min_row_);
         row <= std::min(hi.row, max_row_); ++row) {
      for (int32_t col = col_lo; col <= col_hi; ++col) {
        for (int32_t slot : CellSlots(CellKey{row, col})) {
          const double d = kernel(points_[AsIndex(slot)],
                                  cos_lat_[AsIndex(slot)], center, cos_center);
          if (d >= 0.0) visit(ids_[AsIndex(slot)], d);
        }
      }
    }
  }

  /// Calls `visit(id_a, id_b, distance_m)` once for every unordered pair of
  /// distinct stored points within `radius_m` of each other (boundary
  /// inclusive). Each pair is enumerated exactly once via a forward
  /// half-neighbourhood sweep over the cells, so the whole sweep costs half
  /// of n per-point radius queries and allocates nothing. Pair order is
  /// deterministic but unspecified.
  template <typename Visitor>
  void ForEachPairWithinRadius(double radius_m, Visitor&& visit) const {
    if (!(radius_m >= 0.0)) return;
    const RadiusKernel kernel(radius_m);
    auto pair_kernel = [&](int32_t sa, int32_t sb) {
      const double d =
          kernel(points_[AsIndex(sa)], cos_lat_[AsIndex(sa)],
                 points_[AsIndex(sb)], cos_lat_[AsIndex(sb)]);
      if (d >= 0.0) visit(ids_[AsIndex(sa)], ids_[AsIndex(sb)], d);
    };
    // Cell spans that cover the radius in each axis; +1 guards the floor
    // rounding at the query box edges (over-covering only costs a rejected
    // candidate, never a missed pair).
    const int32_t row_span =
        static_cast<int32_t>(kernel.dlat_pad / cell_lat_deg_) + 1;
    // lint: unordered-iter-ok: the pair order is unspecified by
    // contract; the one consumer, ThresholdCompleteLinkage, orders its
    // merge candidates by (dist, lo, hi) whatever order pairs arrive in.
    for (const auto& [key, slots] : cells_) {
      // Intra-cell pairs.
      for (size_t i = 0; i < slots.size(); ++i) {
        for (size_t j = i + 1; j < slots.size(); ++j) {
          pair_kernel(slots[i], slots[j]);
        }
      }
      // Inter-cell pairs against the forward half-neighbourhood, so each
      // cell pair is visited from exactly one side. The longitude span is
      // evaluated at the most poleward latitude any partner of a point in
      // this row can occupy — the row's far cell EDGE plus the radius —
      // because longitude cells narrow toward the poles.
      const double row_edge_lat =
          std::max(std::abs(static_cast<double>(key.row)) ,
                   std::abs(static_cast<double>(key.row) + 1.0)) *
          cell_lat_deg_;
      const double dlon = MetersToLonDegrees(
          radius_m, std::min(89.9, row_edge_lat + kernel.dlat_pad));
      const int32_t col_span = static_cast<int32_t>(dlon / cell_lon_deg_) + 1;
      for (int32_t dr = 0; dr <= row_span; ++dr) {
        const int32_t dc_begin = dr == 0 ? 1 : -col_span;
        for (int32_t dc = dc_begin; dc <= col_span; ++dc) {
          const std::span<const int32_t> other =
              CellSlots(CellKey{key.row + dr, key.col + dc});
          if (other.empty()) continue;
          for (int32_t sa : slots) {
            for (int32_t sb : other) pair_kernel(sa, sb);
          }
        }
      }
    }
  }

  /// Ids of all points within `radius_m` metres of `center` (Haversine),
  /// inclusive of the boundary, sorted ascending. Prefer
  /// ForEachWithinRadius in hot loops — this materialises a vector.
  std::vector<int64_t> WithinRadius(const LatLon& center, double radius_m) const;

  /// Id and distance of the nearest point to `query`, or {-1, inf} when the
  /// index is empty or `query` is not valid. `exclude_id` (if >= 0) is
  /// skipped — useful when the query point itself is in the index. Ties
  /// go to the smaller id. Allocates nothing.
  struct Neighbor {
    int64_t id = -1;
    double distance_m = 0.0;
  };
  Neighbor Nearest(const LatLon& query, int64_t exclude_id = -1) const;

  /// The `k` nearest points (ascending distance, ties by id). Fewer if the
  /// index holds fewer than `k` (excluding `exclude_id`); none when `query`
  /// is not valid. Expanding-ring search: only the cells near the query
  /// are inspected.
  std::vector<Neighbor> KNearest(const LatLon& query, size_t k,
                                 int64_t exclude_id = -1) const;

  /// Stored coordinate for an id added earlier; invalid LatLon if unknown.
  LatLon PointOf(int64_t id) const;

 private:
  struct CellKey {
    int32_t row;
    int32_t col;
    bool operator==(const CellKey& o) const { return row == o.row && col == o.col; }
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& k) const {
      return std::hash<int64_t>()((static_cast<int64_t>(k.row) << 32) ^
                                  static_cast<uint32_t>(k.col));
    }
  };

  /// The radius test both sweeps share: the exact Haversine distance
  /// d <= radius_m behind two cheap rejections, so a rejected candidate
  /// skips the trig or the sqrt/asin tail. Any point within radius_m
  /// differs in latitude by at most dlat (great-circle distance >=
  /// meridian distance), and d <= r ⟺ h <= sin²(r/2R) on the haversine
  /// term h. Both bounds are padded so rounding can never reject a
  /// boundary point; survivors take the exact test, so results match
  /// HaversineMetersWithCos bit for bit.
  struct RadiusKernel {
    explicit RadiusKernel(double radius);

    /// Distance from `a` to `b` if it is within the radius, else -1.
    double operator()(const LatLon& a, double cos_a, const LatLon& b,
                      double cos_b) const {
      if (std::abs(a.lat - b.lat) > dlat_pad) return -1.0;
      const double sin_dphi = std::sin(DegToRad(b.lat - a.lat) / 2.0);
      const double sin_dlambda = std::sin(DegToRad(b.lon - a.lon) / 2.0);
      const double h =
          sin_dphi * sin_dphi + cos_a * cos_b * sin_dlambda * sin_dlambda;
      if (h > h_max) return -1.0;
      const double d =
          2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
      return d <= radius_m ? d : -1.0;
    }

    double radius_m;
    double dlat;
    double dlat_pad;
    double h_max;
  };

  CellKey KeyFor(const LatLon& p) const;

  /// Smallest metric extent of a grid cell at `query_lat_rad`'s cosine: the
  /// safe per-ring distance bound for expanding-ring searches.
  double MinCellExtentMeters(double cos_query_lat) const;

  /// Conservative per-ring bound: the smallest cell extent anywhere within
  /// reach of ring `ring`+1 around latitude `query_lat`.
  double RingCellExtentMeters(double query_lat, int32_t ring) const;

  /// The expanding-ring search Nearest and KNearest share: calls
  /// `consider(Neighbor)` for every point but `exclude_id` in the boundary
  /// cells of ring 0, 1, ... (Chebyshev cell distance) around `query`'s
  /// cell, clipped to the stored key range. Rings before the range are
  /// skipped, and the walk stops after the first ring that covers the
  /// range, or at which `reach_m()` (the distance the caller still needs
  /// points within; +inf until it has enough) is at most the least
  /// distance a point in a later ring can have. `query` must be valid and
  /// the index non-empty.
  template <typename Consider, typename Reach>
  void WalkRings(const LatLon& query, int64_t exclude_id, Consider&& consider,
                 Reach&& reach_m) const;

  /// Slots of one cell; empty span for an empty cell.
  std::span<const int32_t> CellSlots(const CellKey& key) const {
    auto it = cells_.find(key);
    if (it == cells_.end()) return {};
    return {it->second.data(), it->second.size()};
  }

  double cell_lat_deg_;
  double cell_lon_deg_;
  std::unordered_map<CellKey, std::vector<int32_t>, CellKeyHash> cells_;
  // Inclusive key range of the non-empty cells (empty while min > max).
  int32_t min_row_ = std::numeric_limits<int32_t>::max();
  int32_t max_row_ = std::numeric_limits<int32_t>::min();
  int32_t min_col_ = std::numeric_limits<int32_t>::max();
  int32_t max_col_ = std::numeric_limits<int32_t>::min();
  // Dense per-slot storage (slot = insertion order).
  std::vector<LatLon> points_;
  std::vector<int64_t> ids_;
  std::vector<double> cos_lat_;
  std::unordered_map<int64_t, int32_t> id_to_slot_;
};

}  // namespace bikegraph::geo
