#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
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
/// The index is append-only: build it with Add(); querying is valid
/// after any Add (no explicit build step required). Cell buckets are
/// built lazily at the first query, so Add() itself never hashes — a
/// pure build phase costs only flat appends. Consequently the first
/// query after an Add mutates internal state: an unfrozen index is NOT
/// safe for concurrent readers. Call Freeze() before sharing across
/// threads (frozen queries are pure reads).
///
/// Build-once / query-many workloads should call Freeze() after the last
/// Add: the cells collapse into a sorted flat array (binary-searched per
/// lookup, cache-friendly slot runs) and the bucket hash map is dropped
/// entirely. A frozen index answers the same queries with identical
/// results; Add() after Freeze() transparently thaws back to the lazy
/// hash representation.
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
    if (radius_m < 0.0 || points_.empty()) return;
    const double cos_center = std::cos(DegToRad(center.lat));
    // Cheap rejection on the haversine kernel h: d <= r ⟺ h <= sin²(r/2R).
    // The bound is padded so rounding can never reject a boundary point;
    // survivors still take the exact d <= radius_m test, so results match
    // HaversineMeters bit for bit.
    const double sin_r = std::sin(radius_m / (2.0 * kEarthRadiusMeters));
    const double h_max =
        radius_m >= 3.14 * kEarthRadiusMeters ? 1.1
                                              : sin_r * sin_r * (1.0 + 1e-9);
    const double dlat = MetersToLatDegrees(radius_m);
    // Any point within radius_m differs in latitude by at most dlat
    // (great-circle distance >= meridian distance), so one compare rejects
    // the top/bottom bands of the scanned cells before any trig.
    const double dlat_pad = dlat * (1.0 + 1e-9);
    const double dlon = MetersToLonDegrees(radius_m, center.lat);
    const CellKey lo = KeyFor(LatLon(center.lat - dlat, center.lon - dlon));
    const CellKey hi = KeyFor(LatLon(center.lat + dlat, center.lon + dlon));
    for (int32_t row = lo.row; row <= hi.row; ++row) {
      for (int32_t col = lo.col; col <= hi.col; ++col) {
        for (int32_t slot : CellSlots(CellKey{row, col})) {
          const LatLon& p = points_[AsIndex(slot)];
          if (std::abs(p.lat - center.lat) > dlat_pad) continue;
          // Inlined haversine kernel of (p, center) — identical operations
          // to HaversineMetersWithCos, split so rejected candidates skip
          // the sqrt/asin tail.
          const double sin_dphi = std::sin(DegToRad(center.lat - p.lat) / 2.0);
          const double sin_dlambda =
              std::sin(DegToRad(center.lon - p.lon) / 2.0);
          const double h = sin_dphi * sin_dphi + cos_lat_[AsIndex(slot)] * cos_center *
                                                     sin_dlambda * sin_dlambda;
          if (h > h_max) continue;
          const double d = 2.0 * kEarthRadiusMeters *
                           std::asin(std::min(1.0, std::sqrt(h)));
          if (d <= radius_m) visit(ids_[AsIndex(slot)], d);
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
    if (radius_m < 0.0 || points_.empty()) return;
    const double sin_r = std::sin(radius_m / (2.0 * kEarthRadiusMeters));
    const double h_max =
        radius_m >= 3.14 * kEarthRadiusMeters ? 1.1
                                              : sin_r * sin_r * (1.0 + 1e-9);
    const double dlat_pad = MetersToLatDegrees(radius_m) * (1.0 + 1e-9);
    // Cell spans that cover the radius in each axis; +1 guards the floor
    // rounding at the query box edges (over-covering only costs a rejected
    // candidate, never a missed pair).
    const int32_t row_span =
        static_cast<int32_t>(dlat_pad / cell_lat_deg_) + 1;
    auto pair_kernel = [&](int32_t sa, int32_t sb) {
      const LatLon& pa = points_[AsIndex(sa)];
      const LatLon& pb = points_[AsIndex(sb)];
      if (std::abs(pa.lat - pb.lat) > dlat_pad) return;
      const double sin_dphi = std::sin(DegToRad(pb.lat - pa.lat) / 2.0);
      const double sin_dlambda = std::sin(DegToRad(pb.lon - pa.lon) / 2.0);
      const double h = sin_dphi * sin_dphi + cos_lat_[AsIndex(sa)] * cos_lat_[AsIndex(sb)] *
                                                 sin_dlambda * sin_dlambda;
      if (h > h_max) return;
      const double d =
          2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
      if (d <= radius_m) visit(ids_[AsIndex(sa)], ids_[AsIndex(sb)], d);
    };
    ForEachCell([&](const CellKey& key, std::span<const int32_t> slots) {
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
          radius_m, std::min(89.9, row_edge_lat + dlat_pad));
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
    });
  }

  /// Ids of all points within `radius_m` metres of `center` (Haversine),
  /// inclusive of the boundary, sorted ascending. Prefer
  /// ForEachWithinRadius in hot loops — this materialises a vector.
  std::vector<int64_t> WithinRadius(const LatLon& center, double radius_m) const;

  /// Id and distance of the nearest point to `query`, or {-1, inf} when the
  /// index is empty. `exclude_id` (if >= 0) is skipped — useful when the
  /// query point itself is in the index.
  struct Neighbor {
    int64_t id = -1;
    double distance_m = 0.0;
  };
  Neighbor Nearest(const LatLon& query, int64_t exclude_id = -1) const;

  /// The `k` nearest points (ascending distance, ties by id). Fewer if the
  /// index holds fewer than `k` (excluding `exclude_id`). Expanding-ring
  /// search: only the cells near the query are inspected.
  std::vector<Neighbor> KNearest(const LatLon& query, size_t k,
                                 int64_t exclude_id = -1) const;

  /// Stored coordinate for an id added earlier; invalid LatLon if unknown.
  LatLon PointOf(int64_t id) const;

  /// Compacts the cell buckets into a sorted flat array (build-once /
  /// query-many mode): cell lookup becomes a binary search over sorted
  /// keys with contiguous slot runs, and the bucket hash map is freed.
  /// Query results are identical to the unfrozen index (pair/radius visit
  /// order may differ — it was always unspecified). Idempotent; O(n log n).
  void Freeze();

  /// True while in frozen (sorted-cell) mode; cleared by Add().
  bool frozen() const { return frozen_; }

 private:
  struct CellKey {
    int32_t row;
    int32_t col;
    bool operator==(const CellKey& o) const { return row == o.row && col == o.col; }
    bool operator<(const CellKey& o) const {
      return row != o.row ? row < o.row : col < o.col;
    }
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& k) const {
      return std::hash<int64_t>()((static_cast<int64_t>(k.row) << 32) ^
                                  static_cast<uint32_t>(k.col));
    }
  };

  CellKey KeyFor(const LatLon& p) const;

  /// Smallest metric extent of a grid cell at `query_lat_rad`'s cosine: the
  /// safe per-ring distance bound for expanding-ring searches.
  double MinCellExtentMeters(double cos_query_lat) const;

  /// Conservative per-ring bound: the smallest cell extent anywhere within
  /// reach of ring `ring`+1 around latitude `query_lat`.
  double RingCellExtentMeters(double query_lat, int32_t ring) const;

  /// Inserts any not-yet-bucketed slots into the hash cells (the lazy
  /// build step; no-op when frozen or already caught up).
  void EnsureHashed() const;

  /// Slots of one cell — binary search over the frozen arrays, or a hash
  /// lookup (after the lazy build) otherwise. Empty span for empty cells.
  std::span<const int32_t> CellSlots(const CellKey& key) const {
    if (frozen_) {
      auto it = std::lower_bound(frozen_keys_.begin(), frozen_keys_.end(),
                                 key);
      if (it == frozen_keys_.end() || !(*it == key)) return {};
      const size_t c = static_cast<size_t>(it - frozen_keys_.begin());
      return {frozen_slots_.data() + frozen_offsets_[c],
              frozen_offsets_[c + 1] - frozen_offsets_[c]};
    }
    EnsureHashed();
    auto it = cells_.find(key);
    if (it == cells_.end()) return {};
    return {it->second.data(), it->second.size()};
  }

  /// Visits every non-empty cell as (key, slots). Frozen: sorted key
  /// order; unfrozen: hash order (callers must not rely on either).
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    if (frozen_) {
      for (size_t c = 0; c < frozen_keys_.size(); ++c) {
        fn(frozen_keys_[c],
           std::span<const int32_t>(frozen_slots_.data() + frozen_offsets_[c],
                                    frozen_offsets_[c + 1] -
                                        frozen_offsets_[c]));
      }
      return;
    }
    EnsureHashed();
    // lint: unordered-iter-ok: unordered enumeration is the lazy
    // path's documented contract; ordered consumers must Freeze()
    // first and take the sorted frozen branch above.
    for (const auto& [key, slots] : cells_) {
      fn(key, std::span<const int32_t>(slots.data(), slots.size()));
    }
  }

  double cell_lat_deg_;
  double cell_lon_deg_;
  // Lazy bucket map: slots [0, hashed_upto_) are bucketed; Add() only
  // appends to the flat arrays, and EnsureHashed() catches up on the
  // first query. Dropped entirely while frozen.
  mutable std::unordered_map<CellKey, std::vector<int32_t>, CellKeyHash>
      cells_;
  mutable size_t hashed_upto_ = 0;
  // Frozen (sorted-cell) representation: unique keys sorted by (row,
  // col), with each cell's slots contiguous in frozen_slots_.
  bool frozen_ = false;
  std::vector<CellKey> frozen_keys_;
  std::vector<size_t> frozen_offsets_;
  std::vector<int32_t> frozen_slots_;
  // Dense per-slot storage (slot = insertion order).
  std::vector<LatLon> points_;
  std::vector<int64_t> ids_;
  std::vector<double> cos_lat_;
  std::vector<CellKey> slot_keys_;
  std::unordered_map<int64_t, int32_t> id_to_slot_;
};

}  // namespace bikegraph::geo
