#include "cluster/hac.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "geo/grid_index.h"

#include "core/checked_cast.h"

namespace bikegraph::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<std::vector<int32_t>> ThresholdCompleteLinkage(
    const std::vector<geo::LatLon>& points, double threshold_m) {
  const size_t n = points.size();
  if (threshold_m < 0.0) {
    return Status::InvalidArgument("threshold must be >= 0");
  }
  if (n == 0) return std::vector<int32_t>{};

  // Sparse candidate pairs from the grid: only pairs within threshold can
  // ever merge under complete linkage.
  geo::GridIndex grid(std::max(threshold_m, 1.0));
  for (size_t i = 0; i < n; ++i) {
    if (!points[i].IsValid()) {
      return Status::InvalidArgument("invalid coordinate at index " +
                                     std::to_string(i));
    }
    grid.Add(static_cast<int64_t>(i), points[i]);
  }

  // Cluster slots: 0..n-1 are points; merge k appends slot n+k, so there
  // are at most 2n-1 slots and a slot id is never reused. Per-slot lists
  // hold the within-threshold (slot, distance) partners; the
  // complete-linkage distance between two clusters never changes while
  // both survive, so an entry only ever goes stale by its partner merging
  // away. Stale entries are dropped lazily, by the next rescan of the list.
  struct Entry {
    int32_t slot;
    double dist;
  };
  const size_t max_slots = 2 * n;
  std::vector<std::vector<Entry>> nbrs(n);
  std::vector<bool> active(n, true);
  nbrs.reserve(max_slots);
  active.reserve(max_slots);
  grid.ForEachPairWithinRadius(
      threshold_m, [&](int64_t a64, int64_t b64, double dist) {
        const int32_t i = static_cast<int32_t>(a64);
        const int32_t j = static_cast<int32_t>(b64);
        nbrs[AsIndex(i)].push_back(Entry{j, dist});
        nbrs[AsIndex(j)].push_back(Entry{i, dist});
      });

  // The heap holds, per active slot with a live partner, one candidate:
  // its nearest partner under the (dist, lo, hi) order. Merging a and b
  // into c gives every other slot k d(c,k) = max(d(a,k), d(b,k)), and c's
  // id exceeds every other, so no merge can make a slot's nearest partner
  // nearer: a candidate whose partner is still active is exact, and one
  // whose partner merged away is a lower bound for its owner's next. The
  // heap top, once its partner is checked active, is therefore the global
  // (dist, lo, hi) minimum over live pairs.
  struct Candidate {
    double dist;
    int32_t lo, hi;
    int32_t owner;  ///< lo or hi: the slot this is the nearest partner of
  };
  auto later = [](const Candidate& x, const Candidate& y) {
    if (x.dist != y.dist) return x.dist > y.dist;
    if (x.lo != y.lo) return x.lo > y.lo;
    return x.hi > y.hi;
  };
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(later)>
      heap(later);
  // Compacts `s`'s list to its live partners and queues the nearest one;
  // a slot left without partners is a final cluster.
  auto push_nearest = [&](int32_t s) {
    std::vector<Entry>& list = nbrs[AsIndex(s)];
    size_t live = 0;
    Candidate best{kInf, 0, 0, s};
    for (const Entry& e : list) {
      if (!active[AsIndex(e.slot)]) continue;
      list[live++] = e;
      const Candidate cand{e.dist, std::min(s, e.slot), std::max(s, e.slot),
                           s};
      if (later(best, cand)) best = cand;
    }
    list.resize(live);
    if (live > 0) heap.push(best);
  };
  for (size_t i = 0; i < n; ++i) push_nearest(static_cast<int32_t>(i));

  // Union-find over slots; point labels read off at the end. An active
  // slot is always a root.
  std::vector<int32_t> parent(n);
  parent.reserve(max_slots);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int32_t>(i);
  auto find = [&parent](int32_t x) {
    while (parent[AsIndex(x)] != x) {
      parent[AsIndex(x)] = parent[AsIndex(parent[AsIndex(x)])];
      x = parent[AsIndex(x)];
    }
    return x;
  };

  // Flat intersection scratch, reset after every merge.
  std::vector<double> dist_to(max_slots, 0.0);
  std::vector<char> mark(max_slots, 0);
  std::vector<Entry> merged;  // reused per merge

  while (!heap.empty()) {
    const Candidate top = heap.top();
    heap.pop();
    if (!active[AsIndex(top.owner)]) continue;  // owner merged away
    const int32_t partner = top.owner == top.lo ? top.hi : top.lo;
    if (!active[AsIndex(partner)]) {
      // A lower bound only: requeue the owner's actual nearest partner.
      push_nearest(top.owner);
      continue;
    }

    // Merge slots a and b into new slot c.
    const int32_t a = top.lo, b = top.hi;
    const int32_t c = static_cast<int32_t>(nbrs.size());
    active[AsIndex(a)] = active[AsIndex(b)] = false;
    active.push_back(true);
    parent.push_back(c);
    parent[AsIndex(a)] = c;
    parent[AsIndex(b)] = c;

    // Complete linkage: d(c,k) = max(d(a,k), d(b,k)); k must be a
    // within-threshold neighbour of BOTH a and b, otherwise d(c,k) exceeds
    // the threshold and the pair is dropped forever. The intersection runs
    // over the flat lists via the mark scratch — no hashing. Marks are only
    // ever set for active slots, so the second scan needs no active check.
    merged.clear();
    for (const Entry& e : nbrs[AsIndex(a)]) {
      if (!active[AsIndex(e.slot)]) continue;
      mark[AsIndex(e.slot)] = 1;
      dist_to[AsIndex(e.slot)] = e.dist;
    }
    for (const Entry& e : nbrs[AsIndex(b)]) {
      if (!mark[AsIndex(e.slot)]) continue;
      mark[AsIndex(e.slot)] = 0;  // consume so nothing can match twice
      const double dck = std::max(dist_to[AsIndex(e.slot)], e.dist);
      if (dck > threshold_m) continue;
      merged.push_back(Entry{e.slot, dck});
    }
    for (const Entry& e : nbrs[AsIndex(a)]) mark[AsIndex(e.slot)] = 0;
    nbrs.emplace_back(merged.begin(), merged.end());
    // The surviving neighbours learn about c; their stale a/b entries go
    // at their next rescan.
    for (const Entry& e : merged) {
      nbrs[AsIndex(e.slot)].push_back(Entry{c, e.dist});
    }
    nbrs[AsIndex(a)] = {};
    nbrs[AsIndex(b)] = {};
    push_nearest(c);
  }

  // Dense labels for the points; roots are slot ids, so the remap is flat.
  std::vector<int32_t> labels(n, -1);
  std::vector<int32_t> remap(nbrs.size(), -1);
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    int32_t root = find(static_cast<int32_t>(i));
    if (remap[AsIndex(root)] < 0) remap[AsIndex(root)] = next++;
    labels[i] = remap[AsIndex(root)];
  }
  return labels;
}

}  // namespace bikegraph::cluster
