#include <cmath>
#include <queue>

#include "community/detector.h"
#include "community/modularity.h"

#include "core/checked_cast.h"

namespace bikegraph::community {

namespace internal {

Result<CommunityResult> DetectFastGreedy(const graphdb::WeightedGraph& graph,
                                         const CommunityOptions& options) {
  const double min_gain = options.min_gain.value_or(0.0);
  if (!std::isfinite(min_gain)) {
    return Status::InvalidArgument("min_gain must be finite");
  }
  CommunityResult result;
  result.algorithm = AlgorithmId::kFastGreedy;
  result.converged = true;
  const size_t n = graph.node_count();
  result.partition = Partition::Singletons(n);
  if (n == 0) return result;
  const double m = graph.total_weight();
  if (m <= 0.0) {
    result.modularity = 0.0;
    return result;
  }
  const double two_m = 2.0 * m;
  const size_t merge_cap =
      options.max_merges == 0 ? static_cast<size_t>(-1) : options.max_merges;

  // Community slots: 0..n-1 singletons; merges append, so there are at most
  // 2n-1 slots over the whole run. e_ij = w_ij / 2m between distinct
  // communities; a_i = strength_i / 2m.
  //
  // Per-slot neighbour lists are flat (slot, weight) vectors. Entries
  // pointing at deactivated slots are skipped on read instead of erased
  // (lazy deletion): a slot id is never reused, so at most one entry per
  // list refers to any active slot.
  struct Entry {
    int32_t slot;
    double e;
  };
  const size_t max_slots = 2 * n;
  std::vector<std::vector<Entry>> e(n);
  std::vector<double> a(n);
  std::vector<bool> active(n, true);
  e.reserve(max_slots);
  a.reserve(max_slots);
  active.reserve(max_slots);
  for (size_t u = 0; u < n; ++u) {
    a[u] = graph.strength(static_cast<int32_t>(u)) / two_m;
    auto nbs = graph.neighbors(static_cast<int32_t>(u));
    e[u].reserve(nbs.size());
    for (const auto& nb : nbs) {
      e[u].push_back(Entry{nb.node, nb.weight / two_m});
    }
  }

  struct Candidate {
    double gain;
    int32_t a, b;
    bool operator<(const Candidate& o) const {
      if (gain != o.gain) return gain < o.gain;  // max-heap by gain
      if (a != o.a) return a > o.a;
      return b > o.b;
    }
  };
  std::priority_queue<Candidate> heap;
  auto delta_q = [&](int32_t i, int32_t j, double eij) {
    return 2.0 * (eij - a[AsIndex(i)] * a[AsIndex(j)]);
  };
  for (size_t u = 0; u < n; ++u) {
    for (const auto& [v, euv] : e[u]) {
      if (v <= static_cast<int32_t>(u)) continue;
      heap.push(Candidate{delta_q(static_cast<int32_t>(u), v, euv),
                          static_cast<int32_t>(u), v});
    }
  }

  // Union-find over slots.
  std::vector<int32_t> parent(n);
  parent.reserve(max_slots);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int32_t>(i);
  auto find = [&](int32_t x) {
    while (parent[AsIndex(x)] != x) {
      parent[AsIndex(x)] = parent[AsIndex(parent[AsIndex(x)])];
      x = parent[AsIndex(x)];
    }
    return x;
  };

  // Flat merge scratch, reset through the touched list after every merge.
  std::vector<double> acc(max_slots, 0.0);
  std::vector<char> seen(max_slots, 0);
  std::vector<int32_t> touched;
  touched.reserve(64);

  while (!heap.empty()) {
    Candidate top = heap.top();
    heap.pop();
    if (!active[AsIndex(top.a)] || !active[AsIndex(top.b)]) continue;
    // Gains of surviving pairs never change (e_ij and a_i are only touched
    // by merges that deactivate a slot), so an entry is fresh iff both
    // slots are active.
    if (top.gain <= min_gain) break;
    // Cap check only once a profitable merge is actually on deck, so a cap
    // equal to the natural merge count still reports convergence.
    if (result.merges >= merge_cap) {
      result.converged = false;  // stopped by the cap, not by gain exhaustion
      break;
    }

    const int32_t i = top.a, j = top.b;
    const int32_t c = static_cast<int32_t>(e.size());
    active[AsIndex(i)] = active[AsIndex(j)] = false;
    active.push_back(true);
    parent.push_back(c);
    parent[AsIndex(find(i))] = c;
    parent[AsIndex(find(j))] = c;
    ++result.merges;

    touched.clear();
    for (const auto& src : {i, j}) {
      for (const auto& [k, eik] : e[AsIndex(src)]) {
        if (k == i || k == j) continue;
        if (!active[AsIndex(k)]) continue;
        if (!seen[AsIndex(k)]) {
          seen[AsIndex(k)] = 1;
          touched.push_back(k);
        }
        acc[AsIndex(k)] += eik;
      }
    }
    a.push_back(a[AsIndex(i)] + a[AsIndex(j)]);
    std::vector<Entry> merged;
    merged.reserve(touched.size());
    for (int32_t k : touched) {
      merged.push_back(Entry{k, acc[AsIndex(k)]});
      acc[AsIndex(k)] = 0.0;
      seen[AsIndex(k)] = 0;
    }
    e.push_back(std::move(merged));
    for (const auto& [k, eck] : e[AsIndex(c)]) {
      e[AsIndex(k)].push_back(Entry{c, eck});  // i/j leftovers are skipped lazily
      heap.push(Candidate{delta_q(std::min(c, k), std::max(c, k), eck),
                          std::min(c, k), std::max(c, k)});
    }
    e[AsIndex(i)].clear();
    e[AsIndex(i)].shrink_to_fit();
    e[AsIndex(j)].clear();
    e[AsIndex(j)].shrink_to_fit();
  }

  // Labels for original nodes.
  std::vector<int32_t>& labels = result.partition.assignment;
  for (size_t u = 0; u < n; ++u) labels[u] = find(static_cast<int32_t>(u));
  result.partition.Renumber();
  result.modularity = Modularity(graph, result.partition);
  result.quality = result.modularity;
  return result;
}

}  // namespace internal

}  // namespace bikegraph::community
