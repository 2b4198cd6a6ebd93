// Quickstart: run the paper's full methodology end-to-end on the synthetic
// Moby dataset and print the headline numbers of every table.
//
//   $ ./build/examples/quickstart
//
// This is the 60-second tour of the public API: generate (or load) a
// dataset, run the expansion pipeline (clean → cluster → Algorithm 1 →
// reassign), then detect communities at the three temporal granularities.

#include <cstdio>
#include <iostream>

#include "analysis/experiment.h"
#include "core/string_util.h"
#include "viz/ascii_table.h"

using namespace bikegraph;

int main() {
  analysis::ExperimentConfig config;  // calibrated defaults

  auto result_or = analysis::RunPaperExperiment(config);
  if (!result_or.ok()) {
    std::cerr << "experiment failed: " << result_or.status() << "\n";
    return 1;
  }
  const analysis::ExperimentResult& r = result_or.ValueOrDie();
  const analysis::PaperExpectations paper;

  // ---- Table I: dataset overview ----------------------------------------
  const auto& rep = r.pipeline.cleaning_report;
  viz::AsciiTable t1({"Measure", "Paper (orig→clean)", "Ours (orig→clean)"});
  t1.AddRow({"#stations", "95 → 92",
             std::to_string(rep.before.station_count) + " → " +
                 std::to_string(rep.after.station_count)});
  t1.AddRow({"#rental", "62,324 → 61,872",
             FormatWithCommas(static_cast<int64_t>(rep.before.rental_count)) +
                 " → " +
                 FormatWithCommas(static_cast<int64_t>(rep.after.rental_count))});
  t1.AddRow({"#location", "14,239 → 14,156",
             FormatWithCommas(static_cast<int64_t>(rep.before.location_count)) +
                 " → " +
                 FormatWithCommas(
                     static_cast<int64_t>(rep.after.location_count))});
  std::cout << "Table I — dataset overview\n" << t1.ToString() << "\n";

  // ---- Table II: candidate graph ----------------------------------------
  const auto& cand = r.pipeline.candidate_network;
  viz::AsciiTable t2({"Measure", "Paper", "Ours"});
  t2.AddRow({"#nodes", "1,172",
             FormatWithCommas(static_cast<int64_t>(cand.candidates.size()))});
  t2.AddRow({"#candidates (non-station)", "1,080",
             FormatWithCommas(static_cast<int64_t>(cand.free_count()))});
  t2.AddRow({"#trips", "61,872",
             FormatWithCommas(static_cast<int64_t>(cand.graph.EdgeCount()))});
  std::cout << "Table II — candidate graph\n" << t2.ToString() << "\n";

  // ---- Table III: selected graph ----------------------------------------
  const auto& net = r.pipeline.final_network;
  const auto stats = net.ComputeStats();
  viz::AsciiTable t3({"Class", "Stations (paper)", "Stations (ours)",
                      "Trips from (ours)", "Trips to (ours)"});
  t3.AddRow({"Pre-existing", "92", std::to_string(net.pre_existing_count),
             FormatWithCommas(stats.pre_existing.trips_from),
             FormatWithCommas(stats.pre_existing.trips_to)});
  t3.AddRow({"Selected", "146", std::to_string(net.selected_count()),
             FormatWithCommas(stats.selected.trips_from),
             FormatWithCommas(stats.selected.trips_to)});
  std::cout << "Table III — selected graph\n" << t3.ToString() << "\n";

  // ---- Tables IV-VI: community detection --------------------------------
  viz::AsciiTable t4({"Graph", "Communities (paper)", "Communities (ours)",
                      "Modularity (paper)", "Modularity (ours)",
                      "Self-contained (ours)"});
  auto add_row = [&](const char* name, const analysis::CommunityExperiment& e,
                     size_t paper_k, double paper_q) {
    char q[16], sc[16];
    std::snprintf(q, sizeof(q), "%.2f", e.detection.modularity);
    std::snprintf(sc, sizeof(sc), "%.0f%%",
                  100.0 * e.stats.SelfContainedFraction());
    t4.AddRow({name, std::to_string(paper_k),
               std::to_string(e.detection.partition.CommunityCount()),
               FormatDouble(paper_q, 2), q, sc});
  };
  add_row("GBasic", r.gbasic, paper.gbasic_communities, paper.gbasic_modularity);
  add_row("GDay", r.gday, paper.gday_communities, paper.gday_modularity);
  add_row("GHour", r.ghour, paper.ghour_communities, paper.ghour_modularity);
  std::cout << "Tables IV-VI — community detection\n" << t4.ToString() << "\n";

  std::cout << "Reassigned locations: " << net.reassigned_locations
            << ", suppression rounds: " << r.pipeline.selection.suppression_rounds
            << ", degree threshold: " << r.pipeline.selection.degree_threshold
            << "\n";
  return 0;
}
