#include "graphdb/weighted_graph.h"

#include <algorithm>
#include <cmath>

#include "core/checked_cast.h"

namespace bikegraph::graphdb {

double WeightedGraph::WeightBetween(int32_t u, int32_t v) const {
  if (u == v) return self_weight_[AsIndex(u)];
  auto row = neighbors(u);
  auto it = std::lower_bound(
      row.begin(), row.end(), v,
      [](const Neighbor& n, int32_t node) { return n.node < node; });
  if (it != row.end() && it->node == v) return it->weight;
  return 0.0;
}

void WeightedGraph::FinishTotals() {
  const size_t n = node_count();
  double total = 0.0;
  size_t loops = 0;
  for (size_t u = 0; u < n; ++u) {
    total += strength_[u];
    if (self_weight_[u] > 0.0) ++loops;
    strength_[u] += 2.0 * self_weight_[u];
  }
  total /= 2.0;
  for (size_t u = 0; u < n; ++u) total += self_weight_[u];
  total_weight_ = total;
  self_loop_count_ = loops;
}

Result<WeightedGraph> WeightedGraph::FromSortedEdges(
    size_t node_count, std::span<const Edge> edges) {
  const size_t n = node_count;
  // AddEdge's limit: ids are int32, and the unsigned compare rejects
  // negatives in the same branch.
  const auto limit =
      static_cast<uint32_t>(std::min<size_t>(n, uint32_t{1} << 31));
  WeightedGraph g;
  g.offsets_.assign(n + 1, 0);
  g.self_weight_.assign(n, 0.0);
  g.strength_.assign(n, 0.0);

  // Pass 1: check every edge and count each row's neighbours.
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (static_cast<uint32_t>(e.u) >= limit ||
        static_cast<uint32_t>(e.v) >= limit) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (!std::isfinite(e.weight) || e.weight < 0.0) {
      return Status::InvalidArgument("edge weight must be finite and >= 0");
    }
    if (e.u > e.v) {
      return Status::InvalidArgument("sorted edge must have u <= v");
    }
    if (i > 0 && (edges[i - 1].u > e.u ||
                  (edges[i - 1].u == e.u && edges[i - 1].v >= e.v))) {
      return Status::InvalidArgument(
          "sorted edges must be strictly ascending in (u, v)");
    }
    if (e.u != e.v) {
      ++g.offsets_[AsIndex(e.u) + 1];
      ++g.offsets_[AsIndex(e.v) + 1];
      ++g.edge_count_;
    }
  }
  for (size_t u = 0; u < n; ++u) g.offsets_[u + 1] += g.offsets_[u];

  // Pass 2: scatter. Row r first receives its smaller neighbours (from
  // the edges (x, r), x ascending), then its larger ones (the edges
  // (r, y), y ascending), so every row lands sorted, and its strength
  // sums in Build()'s ascending-neighbour order.
  g.adj_.resize(g.offsets_[n]);  // Neighbor() performs no init
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    if (e.u == e.v) {
      g.self_weight_[AsIndex(e.u)] += e.weight;
      continue;
    }
    g.adj_[cursor[AsIndex(e.u)]++] = Neighbor(e.v, e.weight);
    g.adj_[cursor[AsIndex(e.v)]++] = Neighbor(e.u, e.weight);
    g.strength_[AsIndex(e.u)] += e.weight;
    g.strength_[AsIndex(e.v)] += e.weight;
  }
  g.FinishTotals();
  return g;
}

WeightedGraphBuilder::WeightedGraphBuilder(size_t node_count)
    : node_count_(node_count),
      check_limit_(static_cast<uint32_t>(
          std::min<size_t>(node_count, uint32_t{1} << 31))),
      self_weight_(node_count, 0.0) {}

namespace {

/// One directed adjacency entry mid-radix: 16 bytes, so each scatter
/// pass streams exactly one entry-sized store.
struct DirectedEntry {
  DirectedEntry() {}  // intentionally no init: buffers are fully overwritten
  DirectedEntry(int32_t r, int32_t n, double weight)
      : row(r), nbr(n), w(weight) {}
  int32_t row;
  int32_t nbr;
  double w;
};

}  // namespace

WeightedGraph WeightedGraphBuilder::Build() const {
  const size_t n = node_count_;
  WeightedGraph g;
  g.self_weight_ = self_weight_;
  g.strength_.assign(n, 0.0);
  g.offsets_.assign(n + 1, 0);

  // Two-pass stable LSD radix: scatter every directed entry by its
  // NEIGHBOUR id, then re-scatter that order by ROW id. Afterwards each
  // row is grouped and sorted by neighbour with parallel edges still in
  // AddEdge call order (both passes are stable), so the merge is a plain
  // linear accumulate-compact — no per-row comparison sort at all, which
  // is where the previous builder spent most of its time. Both keys have
  // the same histogram (every edge contributes u and v to each), so one
  // counting pass serves both scatters.
  const size_t entries = 2 * edges_.size();
  std::vector<uint32_t> cnt(n + 1, 0);
  for (const EdgeTriple& e : edges_) {
    ++cnt[AsIndex(e.u + 1)];
    ++cnt[AsIndex(e.v + 1)];
  }
  for (size_t u = 0; u < n; ++u) cnt[u + 1] += cnt[u];

  // Pass 1: order by neighbour id (the future within-row order).
  std::vector<DirectedEntry> by_nbr(entries);
  // Fresh cursor copies per pass keep cnt itself reusable as the row
  // boundaries for the merge.
  std::vector<uint32_t> cursor(cnt.begin(), cnt.end() - 1);
  for (const EdgeTriple& e : edges_) {
    by_nbr[cursor[AsIndex(e.v)]] = DirectedEntry(e.u, e.v, e.w);
    ++cursor[AsIndex(e.v)];
    by_nbr[cursor[AsIndex(e.u)]] = DirectedEntry(e.v, e.u, e.w);
    ++cursor[AsIndex(e.u)];
  }

  // Pass 2: stable re-scatter by row with the duplicate merge fused in —
  // a parallel edge arrives right after its twin (same row, same
  // neighbour, insertion order), so it accumulates into the row's tail
  // entry instead of appending. Row begin and write cursor live in one
  // 8-byte struct so the append-or-accumulate decision costs a single
  // random cache line per entry.
  g.adj_.resize(entries);  // upper bound; Neighbor() performs no init
  WeightedGraph::Neighbor* adj = g.adj_.data();
  struct RowCursor {
    uint32_t beg;
    uint32_t cur;
  };
  std::vector<RowCursor> row(n);
  for (size_t u = 0; u < n; ++u) row[u] = RowCursor{cnt[u], cnt[u]};
  for (const DirectedEntry& t : by_nbr) {
    RowCursor& rc = row[AsIndex(t.row)];
    if (rc.cur != rc.beg && adj[rc.cur - 1].node == t.nbr) {
      adj[rc.cur - 1].weight += t.w;
    } else {
      adj[rc.cur++] = WeightedGraph::Neighbor(t.nbr, t.w);
    }
  }

  // Compact the merged rows forward and reduce strengths in one
  // sequential pass.
  size_t out = 0;
  size_t pair_count = 0;
  g.offsets_[0] = 0;
  for (size_t u = 0; u < n; ++u) {
    const uint32_t beg = row[u].beg, end = row[u].cur;
    double strength = 0.0;
    for (uint32_t i = beg; i < end; ++i) {
      const WeightedGraph::Neighbor nb = adj[i];
      adj[out++] = nb;
      strength += nb.weight;
      if (nb.node > static_cast<int32_t>(u)) ++pair_count;
    }
    g.strength_[u] = strength;
    g.offsets_[u + 1] = out;
  }
  g.adj_.resize(out);
  if (g.adj_.capacity() > 2 * (out + 8)) g.adj_.shrink_to_fit();
  g.edge_count_ = pair_count;
  g.FinishTotals();
  return g;
}

Result<WeightedGraph> WeightedGraphPatcher::Apply(
    const WeightedGraph& base, std::vector<EdgeUpdate> updates) {
  const size_t n = base.node_count();
  for (EdgeUpdate& up : updates) {
    if (up.u < 0 || up.v < 0 || static_cast<size_t>(up.u) >= n ||
        static_cast<size_t>(up.v) >= n) {
      return Status::InvalidArgument("edge update endpoint out of range");
    }
    if (!up.removed && (!std::isfinite(up.weight) || up.weight < 0.0)) {
      return Status::InvalidArgument("edge weight must be finite and >= 0");
    }
    if (up.u > up.v) std::swap(up.u, up.v);
  }
  // One update per pair: stable sort, keep the last of each run.
  std::stable_sort(updates.begin(), updates.end(),
                   [](const EdgeUpdate& a, const EdgeUpdate& b) {
                     return a.u != b.u ? a.u < b.u : a.v < b.v;
                   });
  size_t kept = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    if (i + 1 < updates.size() && updates[i].u == updates[i + 1].u &&
        updates[i].v == updates[i + 1].v) {
      continue;
    }
    updates[kept++] = updates[i];
  }
  updates.resize(kept);

  WeightedGraph g;
  g.self_weight_ = base.self_weight_;

  // Self updates go straight to the weight array; proper edges become a
  // (row, neighbour)-sorted directed list driving the row merges.
  struct Directed {
    int32_t row, nbr;
    double weight;
    bool removed;
  };
  std::vector<Directed> dir;
  dir.reserve(2 * updates.size());
  std::vector<uint8_t> row_touched(n, 0);
  for (const EdgeUpdate& up : updates) {
    if (up.u == up.v) {
      g.self_weight_[AsIndex(up.u)] = up.removed ? 0.0 : up.weight;
      row_touched[AsIndex(up.u)] = 1;
      continue;
    }
    row_touched[AsIndex(up.u)] = 1;
    row_touched[AsIndex(up.v)] = 1;
    dir.push_back({up.u, up.v, up.weight, up.removed});
    dir.push_back({up.v, up.u, up.weight, up.removed});
  }
  std::sort(dir.begin(), dir.end(),
            [](const Directed& a, const Directed& b) {
              return a.row != b.row ? a.row < b.row : a.nbr < b.nbr;
            });

  g.offsets_.assign(n + 1, 0);
  g.adj_.reserve(base.adj_.size() + dir.size());
  int64_t pair_delta = 0;
  size_t cursor = 0;
  size_t row = 0;
  while (row < n) {
    const size_t next_affected =
        cursor < dir.size() ? static_cast<size_t>(dir[cursor].row) : n;
    if (row < next_affected) {
      // Untouched rows copy as one contiguous block; their offsets just
      // shift by the net insert/remove count so far.
      const size_t from = base.offsets_[row];
      const size_t block_start = g.adj_.size();
      g.adj_.insert(
          g.adj_.end(), base.adj_.begin() + static_cast<std::ptrdiff_t>(from),
          base.adj_.begin() +
              static_cast<std::ptrdiff_t>(base.offsets_[next_affected]));
      for (; row < next_affected; ++row) {
        g.offsets_[row + 1] = block_start + (base.offsets_[row + 1] - from);
      }
      continue;
    }
    // Sorted merge of the old row with its updates.
    auto old_row = base.neighbors(static_cast<int32_t>(row));
    size_t i = 0;
    while (i < old_row.size() ||
           (cursor < dir.size() &&
            static_cast<size_t>(dir[cursor].row) == row)) {
      const bool has_update =
          cursor < dir.size() && static_cast<size_t>(dir[cursor].row) == row;
      if (!has_update ||
          (i < old_row.size() && old_row[i].node < dir[cursor].nbr)) {
        g.adj_.push_back(old_row[i]);
        ++i;
        continue;
      }
      const Directed& up = dir[cursor];
      if (i < old_row.size() && old_row[i].node == up.nbr) {
        // Reweight or remove an existing edge.
        if (!up.removed) {
          g.adj_.push_back(WeightedGraph::Neighbor(up.nbr, up.weight));
        } else if (static_cast<size_t>(up.nbr) > row) {
          --pair_delta;  // each undirected pair is counted from u < v
        }
        ++i;
        ++cursor;
        continue;
      }
      // No existing edge: insert, or ignore a removal of an absent pair.
      if (!up.removed) {
        g.adj_.push_back(WeightedGraph::Neighbor(up.nbr, up.weight));
        if (static_cast<size_t>(up.nbr) > row) ++pair_delta;
      }
      ++cursor;
    }
    g.offsets_[row + 1] = g.adj_.size();
    ++row;
  }

  // Strength and total-weight reduction in exactly Build()'s order (row
  // sums in ascending-neighbour order, then the same two global passes),
  // so an unchanged row keeps bit-identical aggregates. Untouched rows
  // skip the re-sum: with a zero (and untouched) self weight, the
  // stored strength IS the row sum bitwise (x + 0.0 == x), so only
  // touched rows and self-loop carriers pay the adjacency walk.
  g.strength_.assign(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    // lint: float-eq-ok: 0.0 self weight is an exact untouched
    // sentinel (assigned, never computed); the x + 0.0 == x
    // identity above depends on it being exactly zero.
    if (row_touched[u] == 0 && g.self_weight_[u] == 0.0) {
      g.strength_[u] = base.strength_[u];
      continue;
    }
    double strength = 0.0;
    for (size_t i = g.offsets_[u]; i < g.offsets_[u + 1]; ++i) {
      strength += g.adj_[i].weight;
    }
    g.strength_[u] = strength;
  }
  g.edge_count_ =
      static_cast<size_t>(static_cast<int64_t>(base.edge_count_) + pair_delta);
  g.FinishTotals();
  return g;
}

}  // namespace bikegraph::graphdb
