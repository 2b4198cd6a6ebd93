#include "analysis/temporal_graph.h"

#include <cmath>

#include "core/checked_cast.h"

namespace bikegraph::analysis {

namespace {

/// Pearson correlation of two profiles, mapped from [-1, 1] to [0, 1].
/// Centring matters: raw cosine similarity of all-positive demand profiles
/// is inflated towards 1 by the shared baseline, hiding exactly the
/// weekday-vs-weekend and rush-vs-midday contrasts the paper's GDay/GHour
/// graphs are built to expose.
template <size_t N>
double CenteredSimilarity(const std::array<double, N>& a,
                          const std::array<double, N>& b) {
  double mean_a = 0.0, mean_b = 0.0;
  for (size_t i = 0; i < N; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(N);
  mean_b /= static_cast<double>(N);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < N; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    dot += da * db;
    na += da * da;
    nb += db * db;
  }
  if (na <= 0.0 || nb <= 0.0) return 1.0;  // no evidence of dissimilarity
  const double corr = dot / (std::sqrt(na) * std::sqrt(nb));
  return (1.0 + corr) / 2.0;
}

}  // namespace

double StationProfiles::Similarity(size_t a, size_t b,
                                   TemporalGranularity g) const {
  switch (g) {
    case TemporalGranularity::kNull:
      return 1.0;
    case TemporalGranularity::kDay:
      return CenteredSimilarity(day[a], day[b]);
    case TemporalGranularity::kHour:
      return CenteredSimilarity(hour[a], hour[b]);
  }
  return 1.0;
}

double PerTripWeight(const StationProfiles& profiles, size_t a, size_t b,
                     const TemporalGraphOptions& options) {
  const double sim = profiles.Similarity(a, b, options.granularity);
  const double sharpened = std::pow(std::max(0.0, sim), options.contrast);
  return options.similarity_floor +
         (1.0 - options.similarity_floor) * sharpened;
}

StationProfiles ExtractStationProfiles(const graphdb::TripGraph& trips) {
  StationProfiles profiles;
  profiles.day.assign(trips.NodeCount(), {});
  profiles.hour.assign(trips.NodeCount(), {});
  for (const graphdb::Trip& trip : trips.trips()) {
    for (int32_t node : {trip.from, trip.to}) {
      profiles.day[AsIndex(node)][trip.day] += 1.0;
      profiles.hour[AsIndex(node)][trip.hour] += 1.0;
    }
  }
  return profiles;
}

Result<graphdb::WeightedGraph> BuildTemporalGraph(
    const graphdb::TripGraph& trips, const TemporalGraphOptions& options) {
  if (options.similarity_floor < 0.0 || options.similarity_floor > 1.0) {
    return Status::InvalidArgument("similarity_floor must be in [0, 1]");
  }
  const bool temporal = options.granularity != TemporalGranularity::kNull;
  const StationProfiles profiles =
      temporal ? ExtractStationProfiles(trips) : StationProfiles{};
  // One AddEdge per trip, in row order: a pair's weight is then the
  // repeated per-trip sum that the streaming freeze reproduces bit for
  // bit. A pre-aggregated trips × weight would round differently.
  graphdb::WeightedGraphBuilder builder(trips.NodeCount());
  for (const graphdb::Trip& trip : trips.trips()) {
    const double weight =
        temporal ? PerTripWeight(profiles, AsIndex(trip.from),
                                 AsIndex(trip.to), options)
                 : 1.0;
    BIKEGRAPH_RETURN_NOT_OK(builder.AddEdge(trip.from, trip.to, weight));
  }
  return builder.Build();
}

}  // namespace bikegraph::analysis
