#pragma once

#include <cstdint>
#include <string>

#include "core/result.h"
#include "analysis/community_stats.h"
#include "analysis/temporal_graph.h"
#include "community/detector.h"
#include "data/synthetic.h"
#include "expansion/pipeline.h"
#include "graphdb/weighted_graph.h"

namespace bikegraph::analysis {

/// \brief The numbers the paper reports, used by the bench harnesses and
/// examples/quickstart.cpp to print paper-vs-measured rows. Absolute values
/// are not expected to match, because our substrate is a synthetic
/// generator; the *shape* is, and tests/integration_paper_test.cc asserts
/// it.
struct PaperExpectations {
  // Table I.
  size_t original_stations = 95, cleaned_stations = 92;
  size_t original_rentals = 62324, cleaned_rentals = 61872;
  size_t original_locations = 14239, cleaned_locations = 14156;
  // Table II.
  size_t candidate_nodes = 1172;
  size_t candidate_undirected_edges = 8240;
  size_t candidate_undirected_edges_no_loops = 7820;
  size_t candidate_directed_edges = 16042;
  size_t candidate_directed_edges_no_loops = 15604;
  size_t candidate_trips = 61872;
  // Table III.
  size_t selected_new_stations = 146;
  size_t selected_total_stations = 238;
  int64_t pre_existing_trips_from = 54670, pre_existing_trips_to = 54727;
  int64_t selected_trips_from = 7202, selected_trips_to = 7145;
  size_t selected_total_edges = 8509;
  // Tables IV-VI (community counts and modularity).
  size_t gbasic_communities = 3;
  double gbasic_modularity = 0.25;
  double gbasic_self_contained = 0.74;
  size_t gday_communities = 7;
  double gday_modularity = 0.32;
  size_t ghour_communities = 10;
  double ghour_modularity = 0.54;
};

/// \brief Configuration of the full paper reproduction.
struct ExperimentConfig {
  data::SyntheticConfig synthetic;
  expansion::PipelineConfig pipeline;
  /// Which community-detection algorithm to run, with which options. The
  /// default (Louvain, default CommunityOptions) reproduces the paper's
  /// setting; any registry algorithm can be swapped in by name or id.
  community::DetectSpec detection;
  /// Temporal projection settings (see TemporalGraphOptions). Hour-of-day
  /// profiles share a strong daytime baseline, so GHour uses a higher
  /// contrast to surface the commute-vs-midday split the paper reports.
  TemporalGraphOptions gday{TemporalGranularity::kDay, /*floor=*/0.05,
                            /*contrast=*/8.0};
  TemporalGraphOptions ghour{TemporalGranularity::kHour, /*floor=*/0.01,
                             /*contrast=*/28.0};
};

/// \brief One community-detection experiment (GBasic, GDay or GHour).
struct CommunityExperiment {
  TemporalGranularity granularity = TemporalGranularity::kNull;
  graphdb::WeightedGraph graph;
  /// Unified result of the configured algorithm (Louvain by default).
  community::CommunityResult detection;
  CommunityTripStats stats;
};

/// \brief Everything needed to regenerate the paper's tables and figures.
struct ExperimentResult {
  expansion::PipelineResult pipeline;
  CommunityExperiment gbasic;
  CommunityExperiment gday;
  CommunityExperiment ghour;
};

/// \brief Runs the full reproduction: synthetic Moby dataset → cleaning →
/// candidate graph → Algorithm 1 → final network → community detection at
/// the three temporal granularities (Louvain by default, per the paper).
Result<ExperimentResult> RunPaperExperiment(const ExperimentConfig& config = {});

/// \brief Runs one community-detection experiment on an existing final
/// network with any registered algorithm.
Result<CommunityExperiment> RunCommunityExperiment(
    const expansion::FinalNetwork& network,
    const TemporalGraphOptions& graph_options,
    const community::DetectSpec& detect_spec);

}  // namespace bikegraph::analysis
