// Dense complete-linkage HAC over geographic points: the exact O(n^2)
// reference that cluster_hac_test and perf_equivalence_test check the
// sparse ThresholdCompleteLinkage against. It materialises the full
// Haversine distance matrix, so keep inputs to a few hundred points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geo/haversine.h"
#include "geo/latlon.h"

namespace bikegraph {

/// Complete-linkage HAC cut at `threshold_m`. Every step merges a closest
/// pair of active clusters while that distance is at most the threshold;
/// the merged cluster keeps the lower slot and takes the larger of the two
/// distances to every other cluster (the Lance–Williams complete-linkage
/// update). Complete-linkage merge distances never decrease, so stopping
/// at the first merge above the threshold is the dendrogram cut. Returns
/// a label per point, dense and numbered by first occurrence.
inline std::vector<int32_t> DenseCompleteLinkageCut(
    const std::vector<geo::LatLon>& points, double threshold_m) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr size_t kNone = static_cast<size_t>(-1);
  const size_t n = points.size();
  std::vector<double> cos_lat(n);
  for (size_t i = 0; i < n; ++i) {
    cos_lat[i] = std::cos(geo::DegToRad(points[i].lat));
  }
  std::vector<double> d(n * n, 0.0);
  auto at = [&](size_t i, size_t j) -> double& { return d[i * n + j]; };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      at(i, j) = at(j, i) = geo::HaversineMetersWithCos(
          points[i], points[j], cos_lat[i], cos_lat[j]);
    }
  }

  // `slot_of[p]` follows point p's cluster; a merge folds slot b into a.
  std::vector<bool> active(n, true);
  std::vector<size_t> slot_of(n);
  for (size_t i = 0; i < n; ++i) slot_of[i] = i;
  // Nearest active partner per slot.
  std::vector<size_t> nn(n, kNone);
  std::vector<double> nn_dist(n, kInf);
  auto recompute_nn = [&](size_t i) {
    nn[i] = kNone;
    nn_dist[i] = kInf;
    for (size_t j = 0; j < n; ++j) {
      if (j == i || !active[j]) continue;
      if (at(i, j) < nn_dist[i]) {
        nn_dist[i] = at(i, j);
        nn[i] = j;
      }
    }
  };
  for (size_t i = 0; i < n; ++i) recompute_nn(i);

  while (true) {
    size_t best = kNone;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i] || nn[i] == kNone) continue;
      if (best == kNone || nn_dist[i] < nn_dist[best]) best = i;
    }
    if (best == kNone || nn_dist[best] > threshold_m) break;
    size_t a = best;
    size_t b = nn[best];
    if (a > b) std::swap(a, b);
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == a || k == b) continue;
      at(a, k) = at(k, a) = std::max(at(a, k), at(b, k));
    }
    active[b] = false;
    for (size_t& slot : slot_of) {
      if (slot == b) slot = a;
    }
    recompute_nn(a);
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == a) continue;
      if (nn[k] == a || nn[k] == b) {
        recompute_nn(k);
      } else if (at(k, a) < nn_dist[k]) {
        nn[k] = a;
        nn_dist[k] = at(k, a);
      }
    }
  }

  std::vector<int32_t> labels(n);
  std::vector<int32_t> remap(n, -1);
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (remap[slot_of[i]] < 0) remap[slot_of[i]] = next++;
    labels[i] = remap[slot_of[i]];
  }
  return labels;
}

}  // namespace bikegraph
