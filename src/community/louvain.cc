#include <cmath>

#include "core/rng.h"
#include "community/aggregate.h"
#include "community/detector.h"
#include "community/modularity.h"

#include "core/checked_cast.h"

namespace bikegraph::community {

namespace {

using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;

/// One local-moving phase. Returns the (renumbered) partition and whether
/// any node moved.
struct LocalMoveOutcome {
  Partition partition;
  bool improved = false;
};

/// `seed_assignment` (optional) warm-starts the phase: communities begin
/// as the seed's (dense-labelled) groups instead of singletons. Null
/// keeps the cold-start path untouched.
LocalMoveOutcome LocalMoving(const WeightedGraph& g, int max_sweeps,
                             double resolution, Rng* rng,
                             const std::vector<int32_t>* seed_assignment) {
  const size_t n = g.node_count();
  const double m = g.total_weight();
  LocalMoveOutcome out;
  out.partition = Partition::Singletons(n);
  if (n == 0 || m <= 0.0) return out;

  std::vector<int32_t>& comm = out.partition.assignment;
  // Σ_tot per community (summed strengths).
  std::vector<double> sigma_tot(n);
  if (seed_assignment == nullptr) {
    for (size_t u = 0; u < n; ++u) {
      sigma_tot[u] = g.strength(static_cast<int32_t>(u));
    }
  } else {
    comm = *seed_assignment;
    std::fill(sigma_tot.begin(), sigma_tot.end(), 0.0);
    for (size_t u = 0; u < n; ++u) {
      sigma_tot[AsIndex(comm[u])] += g.strength(static_cast<int32_t>(u));
    }
  }

  std::vector<int32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int32_t>(i);
  rng->Shuffle(&order);

  // Flat scratch: weight from the current node to each neighbouring
  // community, indexed by community label (always < n). Only the entries in
  // `touched` are live; they are reset after every node, so the cost per
  // node is O(degree), not O(n).
  std::vector<double> w_to_comm(n, 0.0);
  std::vector<char> comm_seen(n, 0);
  std::vector<int32_t> touched;
  touched.reserve(64);
  const double inv_two_m = 1.0 / (2.0 * m);

  // Pruned local moving: after the initial shuffled pass, only nodes whose
  // neighbourhood changed are re-evaluated (a ring-buffer work queue instead
  // of full sweeps — the standard Louvain pruning). The evaluation budget
  // matches the seed's sweep cap.
  std::vector<int32_t> queue(order);
  std::vector<char> in_queue(n, 1);
  size_t head = 0;
  size_t budget = static_cast<size_t>(max_sweeps) * n;

  bool any_move_ever = false;
  while (head < queue.size() && budget > 0) {
    --budget;
    const int32_t u = queue[head++];
    // Recycle consumed prefix storage once it dominates the buffer.
    if (head >= 16384 && head * 2 >= queue.size()) {
      queue.erase(queue.begin(), queue.begin() + static_cast<long>(head));
      head = 0;
    }
    in_queue[AsIndex(u)] = 0;

    const int32_t cu = comm[AsIndex(u)];
    const double k_u = g.strength(u);

    comm_seen[AsIndex(cu)] = 1;  // ensure current community is a candidate
    touched.push_back(cu);
    for (const auto& nb : g.neighbors(u)) {
      const int32_t c = comm[AsIndex(nb.node)];
      if (!comm_seen[AsIndex(c)]) {
        comm_seen[AsIndex(c)] = 1;
        touched.push_back(c);
      }
      w_to_comm[AsIndex(c)] += nb.weight;
    }

    // Remove u from its community.
    sigma_tot[AsIndex(cu)] -= k_u;

    // Gain of joining community c:
    //   ΔQ ∝ w(u→c) − γ · k_u · Σ_tot(c) / 2m
    // (constant terms w.r.t. the choice of c are dropped).
    // The winner is the exact argmax of (gain, -label) among communities
    // strictly better than staying — an order-independent rule, so the
    // touched list needs no sorting. Scratch reset is fused into the scan.
    const double ku_res = resolution * k_u * inv_two_m;
    const double stay_gain = w_to_comm[AsIndex(cu)] - ku_res * sigma_tot[AsIndex(cu)];
    int32_t best_comm = cu;
    double best_gain = stay_gain;
    for (int32_t c : touched) {
      const double w_uc = w_to_comm[AsIndex(c)];
      w_to_comm[AsIndex(c)] = 0.0;
      comm_seen[AsIndex(c)] = 0;
      if (c == cu) continue;
      const double gain = w_uc - ku_res * sigma_tot[AsIndex(c)];
      if (gain > best_gain ||
          (gain == best_gain && gain > stay_gain && c < best_comm)) {
        best_gain = gain;
        best_comm = c;
      }
    }
    touched.clear();

    sigma_tot[AsIndex(best_comm)] += k_u;
    if (best_comm != cu) {
      comm[AsIndex(u)] = best_comm;
      any_move_ever = true;
      // Re-evaluate neighbours outside the destination community — members
      // of best_comm only gained an ally, so they have no new reason to
      // leave (the standard Louvain pruning rule).
      for (const auto& nb : g.neighbors(u)) {
        if (comm[AsIndex(nb.node)] != best_comm && !in_queue[AsIndex(nb.node)]) {
          in_queue[AsIndex(nb.node)] = 1;
          queue.push_back(nb.node);
        }
      }
    }
  }
  out.partition.Renumber();
  out.improved = any_move_ever;
  return out;
}

}  // namespace

namespace internal {

Result<CommunityResult> DetectLouvain(const graphdb::WeightedGraph& graph,
                                      const CommunityOptions& options) {
  if (!std::isfinite(options.resolution) || options.resolution <= 0.0) {
    return Status::InvalidArgument("resolution must be positive and finite");
  }
  const int max_levels = options.max_levels.value_or(64);
  const int max_sweeps = options.max_sweeps_per_level.value_or(128);
  const double min_gain = options.min_gain.value_or(1e-9);
  if (!std::isfinite(min_gain)) {
    return Status::InvalidArgument("min_gain must be finite");
  }

  CommunityResult result;
  result.algorithm = AlgorithmId::kLouvain;
  const size_t n = graph.node_count();
  result.partition = Partition::Singletons(n);
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Warm start: the first local-moving phase begins from the seed's
  // communities. The seed is only a starting point — every move still
  // requires a strict modularity improvement, and a seed that scores no
  // better than singletons is discarded by the level-acceptance test
  // below. Empty graphs (m = 0) have nothing to move, so seeding is
  // skipped there and the cold path answers.
  Partition seed;
  bool seeded = false;
  if (options.initial_partition.has_value()) {
    if (options.initial_partition->node_count() != n) {
      return Status::InvalidArgument(
          "initial_partition must cover exactly the graph's nodes");
    }
    if (graph.total_weight() > 0.0) {
      seed = *options.initial_partition;
      seed.Renumber();
      seeded = true;
    }
  }

  Rng rng(options.seed);
  // The first level runs on the input graph directly (no copy); aggregated
  // levels own their shrinking graphs.
  const WeightedGraph* level_graph = &graph;
  WeightedGraph owned_level;
  Partition cumulative = Partition::Singletons(n);
  double best_q = Modularity(graph, cumulative, options.resolution);

  bool converged = false;
  for (int level = 0; level < max_levels; ++level) {
    const bool seed_level = seeded && level == 0;
    LocalMoveOutcome outcome =
        LocalMoving(*level_graph, max_sweeps, options.resolution, &rng,
                    seed_level ? &seed.assignment : nullptr);
    // A seeded first level is scored even when no node moved: the seed
    // itself may already beat singletons, and bailing here would throw
    // the warm start away.
    if (!outcome.improved && !seed_level) {
      converged = true;
      break;
    }
    Partition candidate = ComposePartitions(cumulative, outcome.partition);
    candidate.Renumber();
    // Modularity is invariant under aggregation (self-loops and strengths
    // are preserved), so score the level partition on the small level graph
    // instead of rescanning the full input graph.
    const double q =
        Modularity(*level_graph, outcome.partition, options.resolution);
    if (q <= best_q + min_gain) {
      converged = true;
      break;
    }
    best_q = q;
    cumulative = candidate;
    result.level_partitions.push_back(candidate);
    ++result.levels;
    if (outcome.partition.CommunityCount() == level_graph->node_count()) {
      converged = true;  // no aggregation possible
      break;
    }
    owned_level = AggregateByPartition(*level_graph, outcome.partition);
    level_graph = &owned_level;
  }
  result.converged = converged;

  result.partition = cumulative;
  result.partition.Renumber();
  result.modularity = Modularity(graph, result.partition, options.resolution);
  result.quality = result.modularity;
  return result;
}

}  // namespace internal

}  // namespace bikegraph::community
