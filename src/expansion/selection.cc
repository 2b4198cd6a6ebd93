#include "expansion/selection.h"

#include <algorithm>
#include <limits>

#include "geo/grid_index.h"
#include "geo/haversine.h"

#include "core/checked_cast.h"

namespace bikegraph::expansion {

size_t SelectionResult::RejectedCount(RejectionReason reason) const {
  size_t c = 0;
  for (RejectionReason r : reasons) {
    if (r == reason) ++c;
  }
  return c;
}

Result<SelectionResult> SelectStations(const CandidateNetwork& network,
                                       const SelectionParams& params) {
  if (params.secondary_distance_m < 0.0) {
    return Status::InvalidArgument("secondary distance must be >= 0");
  }
  const size_t n = network.candidates.size();
  SelectionResult result;
  result.scores.assign(n, 0);
  result.reasons.assign(n, RejectionReason::kNone);

  // Algorithm 1, line 1: threshold = minimum degree of pre-existing
  // stations.
  if (params.degree_threshold_override.has_value()) {
    result.degree_threshold = *params.degree_threshold_override;
  } else {
    int64_t min_degree = std::numeric_limits<int64_t>::max();
    bool any_fixed = false;
    for (const auto& cand : network.candidates) {
      if (!cand.is_fixed()) continue;
      any_fixed = true;
      min_degree = std::min(min_degree, cand.degree());
    }
    if (!any_fixed) {
      return Status::FailedPrecondition(
          "no pre-existing stations to derive the degree threshold from");
    }
    result.degree_threshold = min_degree;
  }

  // Spatial index over fixed stations for the Rule-4 distance check.
  geo::GridIndex fixed_index(std::max(params.secondary_distance_m, 50.0));
  for (size_t i = 0; i < n; ++i) {
    if (network.candidates[i].is_fixed()) {
      fixed_index.Add(static_cast<int64_t>(i),
                      network.candidates[i].centroid);
    }
  }

  // Lines 2-9: initial scoring.
  for (size_t i = 0; i < n; ++i) {
    const CandidateStation& cand = network.candidates[i];
    if (cand.is_fixed()) continue;
    if (cand.degree() < result.degree_threshold) {
      result.reasons[i] = RejectionReason::kBelowDegree;
      continue;
    }
    if (!fixed_index.empty()) {
      auto near = fixed_index.Nearest(cand.centroid);
      if (near.id >= 0 && near.distance_m <= params.secondary_distance_m) {
        result.reasons[i] = RejectionReason::kNearFixedStation;
        continue;
      }
    }
    result.scores[i] = cand.degree();
  }

  // Lines 10-16: iterative pairwise suppression among surviving candidates.
  // A grid over survivors finds conflicting pairs without O(n^2) scans.
  bool changed = true;
  std::vector<int32_t> survivors;
  std::vector<int64_t> in_range;  // reused query buffer, sorted per query
  while (changed) {
    changed = false;
    ++result.suppression_rounds;
    geo::GridIndex survivor_index(std::max(params.secondary_distance_m, 50.0));
    survivors.clear();
    for (size_t i = 0; i < n; ++i) {
      if (result.scores[i] > 0) {
        survivor_index.Add(static_cast<int64_t>(i),
                           network.candidates[i].centroid);
        survivors.push_back(static_cast<int32_t>(i));
      }
    }
    for (int32_t i : survivors) {
      if (result.scores[AsIndex(i)] == 0) continue;  // suppressed earlier this round
      // Ascending-id order keeps the loser choice deterministic, so the
      // visitor fills a reusable buffer that is sorted before use.
      in_range.clear();
      survivor_index.ForEachWithinRadius(
          network.candidates[AsIndex(i)].centroid, params.secondary_distance_m,
          [&](int64_t j, double) { in_range.push_back(j); });
      std::sort(in_range.begin(), in_range.end());
      for (int64_t j : in_range) {
        if (j == i || result.scores[AsIndex(j)] == 0 || result.scores[AsIndex(i)] == 0) continue;
        // Zero the lower-degree member (ties: the higher index loses, so
        // the earlier/denser cluster survives deterministically).
        const int64_t di = network.candidates[AsIndex(i)].degree();
        const int64_t dj = network.candidates[AsIndex(j)].degree();
        int32_t loser;
        if (di != dj) {
          loser = di < dj ? i : static_cast<int32_t>(j);
        } else {
          loser = std::max(i, static_cast<int32_t>(j));
        }
        result.scores[AsIndex(loser)] = 0;
        result.reasons[AsIndex(loser)] = RejectionReason::kSuppressedByPeer;
        changed = true;
      }
    }
  }

  // Lines 17-18: rank the survivors by score, descending.
  for (size_t i = 0; i < n; ++i) {
    if (result.scores[i] > 0) result.selected.push_back(static_cast<int32_t>(i));
  }
  std::sort(result.selected.begin(), result.selected.end(),
            [&](int32_t a, int32_t b) {
              if (result.scores[AsIndex(a)] != result.scores[AsIndex(b)]) {
                return result.scores[AsIndex(a)] > result.scores[AsIndex(b)];
              }
              return a < b;
            });
  return result;
}

}  // namespace bikegraph::expansion
