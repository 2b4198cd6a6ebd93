#pragma once

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "geo/latlon.h"

namespace bikegraph::cluster {

/// \brief Linkage criterion for hierarchical agglomerative clustering.
///
/// The paper uses Complete linkage: the distance between two clusters is
/// the largest pairwise distance, so a cut at threshold t guarantees every
/// cluster has diameter <= t (Rule 1, the 100 m cluster boundary).
enum class Linkage { kSingle, kComplete, kAverage };

/// \brief One merge step of a dendrogram. Cluster ids: 0..n-1 are the input
/// points; merge i creates cluster n+i.
struct MergeStep {
  int32_t left;
  int32_t right;
  double distance;  ///< linkage distance at which the merge happened
};

/// \brief Full dendrogram produced by DenseHac.
struct Dendrogram {
  size_t point_count = 0;
  std::vector<MergeStep> merges;  ///< size point_count-1 for a full tree

  /// Cuts the dendrogram at `threshold`: merges with distance <= threshold
  /// are applied. Returns a cluster label per point (labels are dense,
  /// 0-based, ordered by first point occurrence).
  std::vector<int32_t> CutAt(double threshold) const;
};

/// \brief Exact O(n^2 log n) HAC over an explicit distance matrix
/// (Lance–Williams updates). Intended for small-to-medium inputs
/// (n up to a few thousand) and as the reference implementation the
/// scalable geo variant is tested against.
///
/// `distances` is a flat row-major n*n symmetric matrix.
Result<Dendrogram> DenseHac(const std::vector<double>& distances, size_t n,
                            Linkage linkage);

/// \brief Convenience: dense HAC over geographic points using the
/// Haversine metric (paper eq. 1).
Result<Dendrogram> DenseHacGeo(const std::vector<geo::LatLon>& points,
                               Linkage linkage);

/// \brief Scalable threshold-bounded complete-linkage HAC over geographic
/// points.
///
/// Without distance ties, produces exactly the clusters of
/// DenseHacGeo(points, kComplete) cut at `threshold_m`, but never
/// materialises the O(n^2) matrix: only point pairs within `threshold_m`
/// (found via a spatial grid) can ever merge, and a merged cluster keeps
/// only the partners within the threshold of both of its halves, since
/// complete-linkage distances only grow.
///
/// Tie rule: clusters are numbered as slots — points are 0..n-1 and the
/// k-th merge creates slot n+k — and every step merges the live pair with
/// the smallest (distance, lo, hi), lo < hi being the two slots. The
/// labels are thus fixed by the input order alone, including on inputs
/// with equal distances.
///
/// Each active slot's nearest live partner under that order waits in a
/// lazy min-heap (Müllner's generic algorithm over the sparse pair graph).
/// No merge can bring a surviving slot's nearest partner nearer, so a slot
/// whose partner merged away is rescanned only when its entry reaches the
/// top. Work: the grid sweep over the P within-threshold pairs, then per
/// merge the neighbour lists of the two halves and of the slots that
/// rescan, plus O(log n) per heap operation.
///
/// Returns a label per point: dense, numbered by first occurrence.
Result<std::vector<int32_t>> ThresholdCompleteLinkage(
    const std::vector<geo::LatLon>& points, double threshold_m);

}  // namespace bikegraph::cluster
