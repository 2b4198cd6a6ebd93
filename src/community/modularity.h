#pragma once

#include "community/partition.h"
#include "graphdb/weighted_graph.h"

namespace bikegraph::community {

/// \brief Newman weighted modularity of a partition (paper eq. 2):
///
///   Q = Σ_c [ Σ_in(c) / 2m − (Σ_tot(c) / 2m)² ]
///
/// where m is the graph's total edge weight, Σ_in(c) the total weight of
/// intra-community edge endpoints (each internal edge counted twice, self
/// loops twice) and Σ_tot(c) the summed strength of the community's nodes.
/// Q ∈ [−1, 1]; positive values indicate community structure.
///
/// `resolution` is the standard γ multiplier on the null-model term
/// (γ = 1 is the paper's setting).
double Modularity(const graphdb::WeightedGraph& graph,
                  const Partition& partition, double resolution = 1.0);

/// \brief Two-level map-equation codelength L(M) of a partition on an
/// undirected graph (Rosvall & Bergstrom 2008), with node visit rates
/// proportional to strength (no teleportation):
///
///   L = plogp(Σ_M q_M) − 2·Σ_M plogp(q_M) − Σ_i plogp(p_i)
///       + Σ_M plogp(q_M + Σ_{i∈M} p_i)
///
/// where p_i = strength_i / 2m and q_M is the probability of exiting
/// module M. Lower is better. The Infomap backend's objective; defined in
/// infomap.cc beside the flow statistics it shares with that backend.
double MapEquationCodelength(const graphdb::WeightedGraph& graph,
                             const Partition& partition);

}  // namespace bikegraph::community
