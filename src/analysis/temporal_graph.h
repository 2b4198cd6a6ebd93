#pragma once

#include <array>
#include <vector>

#include "core/result.h"
#include "graphdb/trip_graph.h"
#include "graphdb/weighted_graph.h"

namespace bikegraph::analysis {

/// \brief The paper's three levels of temporal granularity (§IV-C):
/// T_Null (no temporal features), T_Day (day of week a trip took place),
/// T_Hour (time of day a trip began).
enum class TemporalGranularity { kNull, kDay, kHour };

/// \brief Options for building the GBasic / GDay / GHour graphs from a trip
/// multigraph.
struct TemporalGraphOptions {
  TemporalGranularity granularity = TemporalGranularity::kNull;
  /// Weight floor for temporally dissimilar station pairs: the projected
  /// edge weight is trips × (floor + (1 − floor) × similarity^contrast),
  /// where similarity is the centred (Pearson) correlation of the
  /// endpoints' temporal profiles mapped to [0, 1]. A small positive floor
  /// keeps the graph connected so Louvain still sees the full topology.
  double similarity_floor = 0.05;
  /// Sharpening exponent on the similarity. Hour-of-day profiles share a
  /// strong common daytime baseline, so the paper's highly fragmented
  /// GHour structure (10 communities, Q = 0.54 vs GDay's 7 / 0.32) needs a
  /// higher contrast to surface. The paper names no such parameter; the
  /// calibrated values live in ExperimentConfig.
  double contrast = 1.0;
};

/// \brief Per-station temporal usage profile extracted from the trip
/// multigraph: trip-endpoint counts per day-of-week and per hour-of-day
/// (each trip contributes its start time to both of its endpoints, the
/// convention the paper uses for station behaviour).
struct StationProfiles {
  std::vector<std::array<double, 7>> day;    ///< per node, Monday first
  std::vector<std::array<double, 24>> hour;  ///< per node

  /// L2-normalised cosine similarity of two stations' profiles at the given
  /// granularity; 1.0 for kNull. Zero-activity stations compare as 1.0
  /// (no evidence of dissimilarity).
  double Similarity(size_t a, size_t b, TemporalGranularity g) const;
};

/// \brief Extracts per-station profiles from a trip multigraph: each trip
/// adds its day and hour to both endpoints.
StationProfiles ExtractStationProfiles(const graphdb::TripGraph& trips);

/// \brief Weight one trip between stations `a` and `b` contributes to the
/// projected graph: floor + (1 − floor) · similarity^contrast. The single
/// source of the projection formula — BuildTemporalGraph applies it per
/// trip edge and the streaming snapshot freeze applies it per window
/// pair, so the two stay bit-identical by construction.
double PerTripWeight(const StationProfiles& profiles, size_t a, size_t b,
                     const TemporalGraphOptions& options);

/// \brief Builds the undirected weighted graph for one temporal granularity
/// (paper §IV-C "Network Structures").
///
/// - kNull (GBasic): stations are nodes, edge weight = number of trips.
/// - kDay (GDay) / kHour (GHour): the paper attaches the day/hour property
///   to every trip edge; the projection reconstructed here modulates each
///   aggregated edge weight by the cosine similarity of the endpoints'
///   day-of-week / hour-of-day profiles, so stations that exchange trips
///   but behave differently in time are weakly coupled. (The paper does not
///   spell out its Neo4j projection, so this weighting is a reconstruction,
///   not the paper's formula.)
Result<graphdb::WeightedGraph> BuildTemporalGraph(
    const graphdb::TripGraph& trips, const TemporalGraphOptions& options = {});

}  // namespace bikegraph::analysis
