#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/result.h"

#include "core/checked_cast.h"

namespace bikegraph::graphdb {

/// \brief An immutable undirected weighted simple graph in CSR form: the
/// temporal projections and the stream snapshots build it, and community
/// detection reads it.
///
/// Parallel edges are merged by weight accumulation at build time.
/// Self-loops are stored separately from the adjacency lists. Weight
/// conventions follow standard practice for modularity:
///  - `strength(u)` = Σ_v w(u,v) + 2·self_weight(u);
///  - `total_weight()` (the `m` of eq. 2) = Σ_{u<v} w(u,v) + Σ_u self(u)
///    = Σ_u strength(u) / 2.
class WeightedGraph {
 public:
  struct Neighbor {
    Neighbor() {}  // no init: Build() fills adjacency without a memset pass
    Neighbor(int32_t n, double w) : node(n), weight(w) {}
    int32_t node;
    double weight;
  };

  /// One weighted pair for FromSortedEdges; u == v is a self-loop.
  struct Edge {
    int32_t u;
    int32_t v;
    double weight;
  };

  /// An empty graph (0 nodes); usable as a value-type default.
  WeightedGraph() : offsets_{0} {}

  /// Builds the CSR from `edges` strictly ascending in (u, v) with
  /// u <= v, in two counting passes and no sort: in that order every
  /// row already receives its neighbours in ascending order. Equal bit
  /// for bit to a WeightedGraphBuilder fed the same edges in the same
  /// order. InvalidArgument for AddEdge's range and weight violations,
  /// u > v, and a repeated or descending pair.
  static Result<WeightedGraph> FromSortedEdges(size_t node_count,
                                               std::span<const Edge> edges);

  size_t node_count() const { return offsets_.size() - 1; }
  size_t edge_count() const { return edge_count_; }  ///< distinct u<v pairs
  size_t self_loop_count() const { return self_loop_count_; }

  /// Neighbors of `u`, sorted ascending by node id (a Build() invariant).
  std::span<const Neighbor> neighbors(int32_t u) const {
    return {adj_.data() + offsets_[AsIndex(u)], offsets_[AsIndex(u + 1)] - offsets_[AsIndex(u)]};
  }
  double self_weight(int32_t u) const { return self_weight_[AsIndex(u)]; }
  double strength(int32_t u) const { return strength_[AsIndex(u)]; }
  size_t degree(int32_t u) const { return offsets_[AsIndex(u + 1)] - offsets_[AsIndex(u)]; }
  double total_weight() const { return total_weight_; }

  /// Weight of edge {u,v}; 0 when absent. O(log degree(u)) binary search
  /// over the sorted adjacency row.
  double WeightBetween(int32_t u, int32_t v) const;

 private:
  friend class WeightedGraphBuilder;
  friend class WeightedGraphPatcher;
  /// Adds the self-loop terms to the row sums held in `strength_`, and
  /// derives the total weight and self-loop count, in the one float
  /// order every constructor shares.
  void FinishTotals();
  std::vector<size_t> offsets_;
  std::vector<Neighbor> adj_;
  std::vector<double> self_weight_;
  std::vector<double> strength_;
  double total_weight_ = 0.0;
  size_t edge_count_ = 0;
  size_t self_loop_count_ = 0;
};

/// \brief Accumulating builder for WeightedGraph.
///
/// AddEdge(u, v, w) accumulates weight onto the unordered pair {u, v};
/// u == v accumulates a self-loop. Build() freezes into CSR.
///
/// AddEdge is an O(1) append into a flat edge-triple buffer — no per-edge
/// node allocations. Parallel edges are merged once at Build() by a stable
/// sort + linear scan, so duplicate weights accumulate in AddEdge call
/// order (bit-identical to incremental accumulation).
class WeightedGraphBuilder {
 public:
  explicit WeightedGraphBuilder(size_t node_count);

  /// Accumulates weight on {u,v}. Returns InvalidArgument for bad ids or
  /// non-finite/negative weight. Inline: this is called once per edge on
  /// every graph-construction hot path.
  Status AddEdge(int32_t u, int32_t v, double weight = 1.0) {
    // Unsigned compares cover the range checks and negatives in one branch
    // each (negative ids wrap to huge unsigned values).
    if (static_cast<uint32_t>(u) >= check_limit_ ||
        static_cast<uint32_t>(v) >= check_limit_) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (!std::isfinite(weight) || weight < 0.0) {
      return Status::InvalidArgument("edge weight must be finite and >= 0");
    }
    if (u == v) {
      self_weight_[AsIndex(u)] += weight;
      return Status::OK();
    }
    if (u > v) std::swap(u, v);
    // Grow 4x: large buffers come from fresh pages, so fewer reallocations
    // beat tighter memory on every platform we run on.
    if (edges_.size() == edges_.capacity()) {
      edges_.reserve(edges_.capacity() < 256 ? 1024 : 4 * edges_.capacity());
    }
    edges_.push_back(EdgeTriple{u, v, weight});
    return Status::OK();
  }

  /// Pre-sizes the edge buffer for `edge_count` AddEdge calls.
  void Reserve(size_t edge_count) { edges_.reserve(edge_count); }

  size_t node_count() const { return node_count_; }

  WeightedGraph Build() const;

 private:
  struct EdgeTriple {
    int32_t u, v;  // canonicalised so u < v
    double w;
  };
  size_t node_count_;
  uint32_t check_limit_;  // min(node_count, 2^31): ids are int32
  std::vector<EdgeTriple> edges_;
  std::vector<double> self_weight_;
};

/// \brief Copy-on-write edge patching of an immutable WeightedGraph.
///
/// `Apply(base, updates)` returns the graph a WeightedGraphBuilder would
/// produce from base's edge set with the updates applied — bit-identical,
/// including float accumulation order of per-node strengths and the total
/// weight — without re-sorting or re-merging the untouched rows: runs of
/// unaffected adjacency rows are block-copied, affected rows are merged
/// with their sorted updates, and the strength/total reduction is a single
/// sequential pass. Cost is O(nodes + edges copied + updates log updates),
/// with no hashing and no per-edge weight recomputation — the incremental
/// backbone of the streaming snapshot delta freeze (stream/snapshot.h).
class WeightedGraphPatcher {
 public:
  /// One absolute edge-state change: pair {u, v} now carries `weight`
  /// (inserted if absent, reweighted if present), or no longer exists
  /// (`removed`, `weight` ignored). u == v addresses the self-loop.
  /// Duplicate pairs in one batch are allowed; the last wins.
  struct EdgeUpdate {
    int32_t u = 0;
    int32_t v = 0;
    double weight = 0.0;
    bool removed = false;
  };

  /// Applies `updates` to `base`. InvalidArgument on out-of-range ids or
  /// non-finite/negative weights (matching WeightedGraphBuilder::AddEdge);
  /// removing an absent edge is a no-op.
  static Result<WeightedGraph> Apply(const WeightedGraph& base,
                                     std::vector<EdgeUpdate> updates);
};

}  // namespace bikegraph::graphdb
