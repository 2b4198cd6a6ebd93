#include "core/rng.h"
#include "community/detector.h"
#include "community/modularity.h"

#include "core/checked_cast.h"

namespace bikegraph::community {

namespace internal {

Result<CommunityResult> DetectLabelPropagation(
    const graphdb::WeightedGraph& graph, const CommunityOptions& options) {
  const int max_iterations = options.max_iterations.value_or(100);
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  CommunityResult result;
  result.algorithm = AlgorithmId::kLabelPropagation;
  const size_t n = graph.node_count();
  result.partition = Partition::Singletons(n);
  if (n == 0) {
    result.converged = true;
    return result;
  }

  Rng rng(options.seed);
  std::vector<int32_t>& labels = result.partition.assignment;
  // Warm start: begin from the seed's (renumbered, hence dense < n)
  // labels instead of singletons. The propagation loop below is
  // unchanged, so an unset seed is bit-identical to the cold start.
  if (options.initial_partition.has_value()) {
    if (options.initial_partition->node_count() != n) {
      return Status::InvalidArgument(
          "initial_partition must cover exactly the graph's nodes");
    }
    Partition seed = *options.initial_partition;
    seed.Renumber();
    labels = std::move(seed.assignment);
  }
  std::vector<int32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int32_t>(i);

  // Flat vote scratch indexed by label (labels stay < n); reset via the
  // touched list so each node costs O(degree), allocation-free.
  std::vector<double> votes(n, 0.0);
  std::vector<char> seen(n, 0);
  std::vector<int32_t> touched;
  touched.reserve(64);
  for (int iter = 0; iter < max_iterations; ++iter) {
    ++result.iterations;
    rng.Shuffle(&order);
    bool changed = false;
    for (int32_t u : order) {
      auto nbs = graph.neighbors(u);
      if (nbs.empty()) continue;
      for (const auto& nb : nbs) {
        const int32_t l = labels[AsIndex(nb.node)];
        if (!seen[AsIndex(l)]) {
          seen[AsIndex(l)] = 1;
          touched.push_back(l);
        }
        votes[AsIndex(l)] += nb.weight;
      }
      // Exact argmax of (weight, -label): order-independent, so the touched
      // list needs no sorting; scratch reset is fused into the scan.
      int32_t best = labels[AsIndex(u)];
      double best_w = -1.0;
      for (int32_t label : touched) {
        const double w = votes[AsIndex(label)];
        votes[AsIndex(label)] = 0.0;
        seen[AsIndex(label)] = 0;
        if (w > best_w || (w == best_w && label < best)) {
          best_w = w;
          best = label;
        }
      }
      touched.clear();
      if (best != labels[AsIndex(u)]) {
        labels[AsIndex(u)] = best;
        changed = true;
      }
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  result.partition.Renumber();
  // Label propagation has no objective of its own; report modularity.
  result.modularity = Modularity(graph, result.partition);
  result.quality = result.modularity;
  return result;
}

}  // namespace internal

}  // namespace bikegraph::community
