#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bikegraph::community {

/// \brief A partition of graph nodes into communities.
///
/// `assignment[u]` is the community label of node u. Labels are dense
/// (0..community_count-1) after Renumber(), which all algorithms in this
/// module guarantee on their outputs.
struct Partition {
  std::vector<int32_t> assignment;

  size_t node_count() const { return assignment.size(); }

  /// Number of distinct labels (assumes dense labels).
  size_t CommunityCount() const;

  /// Remaps labels to dense 0-based ids ordered by first occurrence.
  void Renumber();

  /// Node count per community (dense labels required).
  std::vector<size_t> CommunitySizes() const;

  /// Everyone-in-one-community partition.
  static Partition Trivial(size_t n);
  /// Every-node-alone partition.
  static Partition Singletons(size_t n);
};

/// \brief Normalised Mutual Information between two partitions of the same
/// node set, in [0, 1]; 1 means identical up to relabelling. Used by the
/// algorithm-comparison benchmarks and stability tests.
double NormalizedMutualInformation(const Partition& a, const Partition& b);

}  // namespace bikegraph::community
