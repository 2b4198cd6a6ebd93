#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/result.h"
#include "community/partition.h"
#include "graphdb/weighted_graph.h"

namespace bikegraph::community {

/// \brief Identifier of a community-detection algorithm in the registry.
///
/// Louvain is the algorithm the paper runs (via Neo4j GDS); the other three
/// are the comparison algorithms it names as future work. Adding an
/// algorithm means adding an enum value and one registry entry in
/// detector.cc — every consumer that iterates `ListAlgorithms()` (ablation
/// benches, sweeps, examples) picks it up without code changes.
enum class AlgorithmId : int32_t {
  kLouvain = 0,
  kLabelPropagation = 1,
  kFastGreedy = 2,
  kInfomap = 3,
};

/// \brief Options for all registered algorithms.
///
/// Fields held in a `std::optional` take the consuming algorithm's own
/// default when unset (community_detector_test locks unset against the
/// defaults written out). Per-algorithm mapping (fields not listed are
/// ignored by that algorithm):
///
///   | field               | Louvain | LabelProp | FastGreedy | Infomap |
///   |---------------------|---------|-----------|------------|---------|
///   | seed                | yes     | yes       | —          | yes     |
///   | resolution          | yes (1) | —         | —          | —       |
///   | max_levels          | 64      | —         | —          | 32      |
///   | max_sweeps_per_level| 128     | —         | —          | 64      |
///   | max_iterations      | —       | 100       | —          | —       |
///   | max_merges          | —       | —         | 0 (∞)      | —       |
///   | min_gain            | 1e-9    | —         | 0.0        | —       |
///   | min_improvement     | —       | —         | —          | 1e-10   |
///   | initial_partition   | yes     | yes       | ignored    | ignored |
struct CommunityOptions {
  /// Seed for node-visit shuffling (Louvain, label propagation, Infomap).
  uint64_t seed = 1;
  /// Resolution γ of the modularity objective (Louvain; 1 = paper setting).
  double resolution = 1.0;
  /// Aggregation-level cap. Unset: Louvain 64, Infomap 32.
  std::optional<int> max_levels;
  /// Local-moving sweep cap per level. Unset: Louvain 128, Infomap 64.
  std::optional<int> max_sweeps_per_level;
  /// Full-pass cap for label propagation. Unset: 100.
  std::optional<int> max_iterations;
  /// Merge cap for fast-greedy; 0 means unlimited.
  size_t max_merges = 0;
  /// Minimum gain to continue. Louvain: modularity gain per level (unset:
  /// 1e-9). FastGreedy: a merge requires ΔQ > min_gain (unset: 0.0).
  std::optional<double> min_gain;
  /// Minimum codelength improvement (bits) per Infomap level (unset: 1e-10).
  std::optional<double> min_improvement;
  /// Warm-start seed: start the algorithm from this partition instead of
  /// singletons (labels need not be dense; a renumbered copy is used).
  /// Louvain seeds its first local-moving phase with it; label
  /// propagation seeds its labels. Fast-greedy and Infomap ignore it.
  /// Must cover exactly the input graph's nodes when set. The streaming
  /// layer threads the previous window's partition through this field
  /// (see stream/incremental_community.h); unset reproduces the cold
  /// start bit for bit.
  std::optional<Partition> initial_partition;
};

/// \brief What `Detect()` should run: which algorithm, with which options.
struct DetectSpec {
  AlgorithmId algorithm = AlgorithmId::kLouvain;
  CommunityOptions options;
};

/// \brief Unified result of any registered algorithm.
///
/// Per-algorithm field population (unused counters stay at their zero
/// defaults):
///   - Louvain: partition, modularity (at the requested resolution),
///     quality = modularity, levels, level_partitions, converged.
///   - LabelPropagation: partition, modularity (γ=1), quality = modularity,
///     iterations, converged.
///   - FastGreedy: partition, modularity (γ=1), quality = modularity,
///     merges, converged.
///   - Infomap: partition, modularity (γ=1), quality = codelength (bits,
///     lower is better), singleton_quality = all-singletons codelength,
///     levels, converged.
struct CommunityResult {
  AlgorithmId algorithm = AlgorithmId::kLouvain;
  /// Final partition over the input graph's nodes (dense labels).
  Partition partition;
  /// Newman modularity of `partition` on the input graph.
  double modularity = 0.0;
  /// The algorithm's own objective on `partition`: modularity for the
  /// modularity-based algorithms, map-equation codelength for Infomap.
  double quality = 0.0;
  /// Reference value of `quality` (Infomap: singleton codelength).
  double singleton_quality = 0.0;
  /// Aggregation levels performed (Louvain, Infomap).
  int levels = 0;
  /// Full passes performed (label propagation).
  int iterations = 0;
  /// Community merges performed (fast-greedy).
  size_t merges = 0;
  /// True when the algorithm stopped because it converged rather than
  /// hitting an iteration/level/merge cap.
  bool converged = false;
  /// Wall-clock time of the run; filled by `Detect()` (zero when a backend
  /// is invoked directly through `AlgorithmInfo::run`).
  double wall_time_ms = 0.0;
  /// Partition of the input nodes at each level, coarsest last (Louvain
  /// only; `level_partitions.back()` equals `partition` when non-empty).
  std::vector<Partition> level_partitions;
};

/// \brief One registry row: identity, canonical name, and the entry point.
struct AlgorithmInfo {
  AlgorithmId id;
  /// Canonical name, accepted by ParseAlgorithm (e.g. "louvain").
  std::string_view name;
  /// One-line human description for tables and --help output.
  std::string_view description;
  /// The backend: validates options, runs, fills the unified result
  /// (everything except wall_time_ms, which Detect() stamps).
  Result<CommunityResult> (*run)(const graphdb::WeightedGraph& graph,
                                 const CommunityOptions& options);
  /// True when the backend honours CommunityOptions::initial_partition.
  /// Capability data lives here (not hard-coded at call sites) so
  /// consumers like the streaming warm-start tracker pick up new
  /// seedable backends without code changes.
  bool supports_warm_start = false;
};

/// \brief All registered algorithms, in stable AlgorithmId order.
std::span<const AlgorithmInfo> AlgorithmRegistry();

/// \brief Ids of all registered algorithms (registry order).
std::vector<AlgorithmId> ListAlgorithms();

/// \brief Canonical name of an algorithm ("louvain", "label_propagation",
/// "fast_greedy", "infomap"). Round-trips through ParseAlgorithm.
std::string_view AlgorithmName(AlgorithmId id);

/// \brief Parses an algorithm name. Matching is case-insensitive and
/// ignores '-', '_', ' ' and '.', and common aliases are accepted
/// ("lpa", "cnm", "infomap-lite", ...). Unknown names return NotFound
/// listing the canonical names.
Result<AlgorithmId> ParseAlgorithm(std::string_view name);

/// \brief The single entry point: runs `spec.algorithm` on `graph` with
/// `spec.options` and stamps the wall time. Invalid option values return
/// InvalidArgument; an id outside the registry returns InvalidArgument.
Result<CommunityResult> Detect(const graphdb::WeightedGraph& graph,
                               const DetectSpec& spec);

namespace internal {

// The algorithm backends the registry rows point at, one per .cc file
// (louvain.cc, label_propagation.cc, fast_greedy.cc, infomap.cc). Each
// fills every CommunityResult field except `wall_time_ms`. Not part of
// the public surface — call `Detect()` instead.

/// Multi-level Louvain: local moving to the neighbouring community with
/// the largest modularity gain, then aggregation of communities into
/// supernodes (intra-community weight becomes a self-loop), repeated.
Result<CommunityResult> DetectLouvain(const graphdb::WeightedGraph& graph,
                                      const CommunityOptions& options);
/// Asynchronous weighted label propagation: each node adopts the label
/// with the largest summed incident weight (ties to the smaller label,
/// visit order shuffled by seed) until a full pass changes nothing.
Result<CommunityResult> DetectLabelPropagation(
    const graphdb::WeightedGraph& graph, const CommunityOptions& options);
/// Clauset–Newman–Moore agglomeration — the "fast greedy algorithm" of
/// the Chicago BSS study the paper builds on (§II): from singletons,
/// merge the connected pair with the largest ΔQ = 2·(e_ij − a_i·a_j)
/// while it exceeds `min_gain`, via a lazy heap in O(E log E).
Result<CommunityResult> DetectFastGreedy(const graphdb::WeightedGraph& graph,
                                         const CommunityOptions& options);
/// "Infomap-lite": minimises the two-level map equation
/// (MapEquationCodelength) with Louvain-style local moving and
/// aggregation; full Infomap's multi-level codebooks and fine-tuning
/// passes rarely change two-level results on graphs this small.
Result<CommunityResult> DetectInfomap(const graphdb::WeightedGraph& graph,
                                      const CommunityOptions& options);

}  // namespace internal

}  // namespace bikegraph::community
