#include <cmath>
#include <unordered_map>

#include "core/rng.h"
#include "community/aggregate.h"
#include "community/detector.h"
#include "community/modularity.h"

#include "core/checked_cast.h"

namespace bikegraph::community {

namespace {

using graphdb::WeightedGraph;

double PLogP(double x) { return x > 0.0 ? x * std::log2(x) : 0.0; }

/// Module-level flow statistics for a partition.
struct Flows {
  std::vector<double> q;   ///< exit probability per module
  std::vector<double> pm;  ///< Σ p_i per module
  double sum_q = 0.0;
};

Flows ComputeFlows(const WeightedGraph& g, const std::vector<int32_t>& comm,
                   size_t k) {
  Flows f;
  f.q.assign(k, 0.0);
  f.pm.assign(k, 0.0);
  const double two_m = 2.0 * g.total_weight();
  for (size_t u = 0; u < g.node_count(); ++u) {
    const int32_t cu = comm[u];
    f.pm[AsIndex(cu)] += g.strength(static_cast<int32_t>(u)) / two_m;
    for (const auto& nb : g.neighbors(static_cast<int32_t>(u))) {
      if (comm[AsIndex(nb.node)] != cu) f.q[AsIndex(cu)] += nb.weight / two_m;
    }
  }
  for (double v : f.q) f.sum_q += v;
  return f;
}

/// Codelength from flow statistics plus the node-entropy constant.
double CodelengthFromFlows(const Flows& f, double node_entropy_term) {
  double L = PLogP(f.sum_q) - node_entropy_term;
  for (size_t c = 0; c < f.q.size(); ++c) {
    L += -2.0 * PLogP(f.q[c]) + PLogP(f.q[c] + f.pm[c]);
  }
  return L;
}

double NodeEntropyTerm(const WeightedGraph& g) {
  const double two_m = 2.0 * g.total_weight();
  double t = 0.0;
  for (size_t u = 0; u < g.node_count(); ++u) {
    t += PLogP(g.strength(static_cast<int32_t>(u)) / two_m);
  }
  return t;
}

/// One local-moving phase minimising the two-level map equation.
struct LocalMoveOutcome {
  Partition partition;
  bool improved = false;
};

LocalMoveOutcome LocalMoving(const WeightedGraph& g, int max_sweeps,
                             Rng* rng) {
  const size_t n = g.node_count();
  LocalMoveOutcome out;
  out.partition = Partition::Singletons(n);
  const double m = g.total_weight();
  if (n == 0 || m <= 0.0) return out;
  const double two_m = 2.0 * m;

  std::vector<int32_t>& comm = out.partition.assignment;
  Flows f = ComputeFlows(g, comm, n);

  std::vector<int32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int32_t>(i);
  rng->Shuffle(&order);

  std::unordered_map<int32_t, double> w_to_comm;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool moved = false;
    for (int32_t u : order) {
      const int32_t cu = comm[AsIndex(u)];
      const double p_u = g.strength(u) / two_m;
      const double omega_total =
          (g.strength(u) - 2.0 * g.self_weight(u)) / two_m;

      w_to_comm.clear();
      for (const auto& nb : g.neighbors(u)) {
        w_to_comm[comm[AsIndex(nb.node)]] += nb.weight / two_m;
      }
      const double omega_to_cu = w_to_comm.count(cu) ? w_to_comm[cu] : 0.0;

      // Candidate evaluation: ΔL of moving u from cu to c.
      const double q_cu_removed = f.q[AsIndex(cu)] - omega_total + 2.0 * omega_to_cu;
      int32_t best_comm = cu;
      double best_delta = 0.0;
      // lint: unordered-iter-ok: visit order can break exact ΔL
      // ties; deterministic for a fixed stdlib and locked by the
      // partition expectations in community_test and
      // community_detector_test. Sorted-candidate iteration is a
      // behavior-changing ROADMAP item.
      for (const auto& [c, omega_to_c] : w_to_comm) {
        if (c == cu) continue;
        const double q_c_added = f.q[AsIndex(c)] + omega_total - 2.0 * omega_to_c;
        const double sum_q2 =
            f.sum_q - f.q[AsIndex(cu)] - f.q[AsIndex(c)] + q_cu_removed + q_c_added;
        double delta = PLogP(sum_q2) - PLogP(f.sum_q);
        delta += -2.0 * (PLogP(q_cu_removed) + PLogP(q_c_added) -
                         PLogP(f.q[AsIndex(cu)]) - PLogP(f.q[AsIndex(c)]));
        delta += PLogP(q_cu_removed + f.pm[AsIndex(cu)] - p_u) +
                 PLogP(q_c_added + f.pm[AsIndex(c)] + p_u) -
                 PLogP(f.q[AsIndex(cu)] + f.pm[AsIndex(cu)]) - PLogP(f.q[AsIndex(c)] + f.pm[AsIndex(c)]);
        if (delta < best_delta - 1e-12 ||
            (delta < best_delta + 1e-12 && delta < -1e-12 &&
             c < best_comm)) {
          best_delta = delta;
          best_comm = c;
        }
      }
      if (best_comm != cu) {
        const double omega_to_best = w_to_comm[best_comm];
        f.sum_q += -f.q[AsIndex(cu)] - f.q[AsIndex(best_comm)] + q_cu_removed +
                   (f.q[AsIndex(best_comm)] + omega_total - 2.0 * omega_to_best);
        f.q[AsIndex(best_comm)] += omega_total - 2.0 * omega_to_best;
        f.q[AsIndex(cu)] = q_cu_removed;
        f.pm[AsIndex(cu)] -= p_u;
        f.pm[AsIndex(best_comm)] += p_u;
        comm[AsIndex(u)] = best_comm;
        moved = true;
        out.improved = true;
      }
    }
    if (!moved) break;
  }
  out.partition.Renumber();
  return out;
}

}  // namespace

double MapEquationCodelength(const graphdb::WeightedGraph& graph,
                             const Partition& partition) {
  if (graph.node_count() == 0 || graph.total_weight() <= 0.0) return 0.0;
  Flows f = ComputeFlows(graph, partition.assignment,
                         partition.CommunityCount());
  return CodelengthFromFlows(f, NodeEntropyTerm(graph));
}

namespace internal {

Result<CommunityResult> DetectInfomap(const graphdb::WeightedGraph& graph,
                                      const CommunityOptions& options) {
  const int max_levels = options.max_levels.value_or(32);
  const int max_sweeps = options.max_sweeps_per_level.value_or(64);
  const double min_improvement = options.min_improvement.value_or(1e-10);
  if (max_levels <= 0 || max_sweeps <= 0) {
    return Status::InvalidArgument("iteration limits must be positive");
  }
  if (!std::isfinite(min_improvement)) {
    return Status::InvalidArgument("min_improvement must be finite");
  }
  CommunityResult result;
  result.algorithm = AlgorithmId::kInfomap;
  const size_t n = graph.node_count();
  result.partition = Partition::Singletons(n);
  if (n == 0) {
    result.converged = true;
    return result;
  }

  result.singleton_quality = MapEquationCodelength(graph, result.partition);

  Rng rng(options.seed);
  WeightedGraph level_graph = graph;
  Partition cumulative = Partition::Singletons(n);
  double best_len = result.singleton_quality;

  bool converged = false;
  for (int level = 0; level < max_levels; ++level) {
    LocalMoveOutcome outcome = LocalMoving(level_graph, max_sweeps, &rng);
    if (!outcome.improved) {
      converged = true;
      break;
    }
    Partition candidate = ComposePartitions(cumulative, outcome.partition);
    candidate.Renumber();
    const double len = MapEquationCodelength(graph, candidate);
    if (len >= best_len - min_improvement) {
      converged = true;
      break;
    }
    best_len = len;
    cumulative = candidate;
    ++result.levels;
    if (outcome.partition.CommunityCount() == level_graph.node_count()) {
      converged = true;
      break;
    }
    level_graph = AggregateByPartition(level_graph, outcome.partition);
  }
  result.converged = converged;

  result.partition = cumulative;
  result.partition.Renumber();
  result.quality = MapEquationCodelength(graph, result.partition);
  result.modularity = Modularity(graph, result.partition);
  return result;
}

}  // namespace internal

}  // namespace bikegraph::community
