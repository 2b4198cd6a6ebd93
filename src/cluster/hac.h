#pragma once

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "geo/latlon.h"

namespace bikegraph::cluster {

/// \brief Scalable threshold-bounded complete-linkage HAC over geographic
/// points, with the Haversine metric (paper eq. 1).
///
/// The paper clusters with Complete linkage: the distance between two
/// clusters is the largest pairwise distance, so a cut at threshold t
/// guarantees every cluster has diameter <= t (Rule 1, the 100 m cluster
/// boundary). Without distance ties, produces exactly the clusters of
/// dense O(n^2) complete-linkage HAC cut at `threshold_m` (the reference
/// in tests/dense_hac_reference.h), but never materialises the distance
/// matrix: only point pairs within `threshold_m` (found via a spatial
/// grid) can ever merge, and a merged cluster keeps only the partners
/// within the threshold of both of its halves, since complete-linkage
/// distances only grow.
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
