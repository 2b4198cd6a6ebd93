// Workload `paper`: the analyst's batch job, closed and single-threaded.
// Set-up generates the seed's dataset and writes the two Moby tables; the
// timed part reads them back and runs the paper's pipeline to the three
// community tables, repeatedly, for the whole measuring time.

#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/community_stats.h"
#include "analysis/experiment.h"
#include "analysis/temporal_graph.h"
#include "community/detector.h"
#include "community/modularity.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "geo/dublin.h"
#include "workloads.h"

namespace perfbench {

using namespace bikegraph;

namespace {

struct Granularity {
  const char* name;
  const char* temporal_span;
  const char* detect_span;
  analysis::TemporalGraphOptions options;
};

/// Result sizes of one pipeline run; they must repeat exactly per seed.
struct Sizes {
  size_t rentals = 0, locations = 0, candidates = 0, stations = 0;
  size_t levels[3] = {0, 0, 0};
  size_t communities[3] = {0, 0, 0};
  bool operator==(const Sizes&) const = default;
};

}  // namespace

void RunPaper(const Options& options, Report& report) {
  const analysis::ExperimentConfig paper;  // the paper's projections + Louvain
  const Granularity granularities[3] = {
      {"gbasic", "analysis.temporal.gbasic", "community.detect.gbasic", {}},
      {"gday", "analysis.temporal.gday", "community.detect.gday", paper.gday},
      {"ghour", "analysis.temporal.ghour", "community.detect.ghour",
       paper.ghour}};
  const std::string locations_csv = options.work_dir + "/locations.csv";
  const std::string rentals_csv = options.work_dir + "/rentals.csv";

  SpanLog log;
  log.set_enabled(options.trace);
  std::vector<double> setup_ns;
  std::optional<geo::Region> land;
  CpuRotation rotation;
  for (int i = 0; i < options.setups; ++i) {
    const int64_t t0 = NowNs();
    rotation.Next();
    data::SyntheticConfig synth;
    synth.seed = MixSeed(options.seed, 0);
    const auto raw = InSpan(log, "data.generate",
                            [&] { return data::GenerateSyntheticMoby(synth); });
    if (!report.Op(raw.status(), "GenerateSyntheticMoby")) return;
    if (!report.Op(InSpan(log, "data.write_csv",
                          [&] {
                            return raw->WriteCsv(locations_csv, rentals_csv);
                          }),
                   "Dataset::WriteCsv")) {
      return;
    }
    land = geo::DublinLand();
    setup_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  log.set_enabled(false);

  // Timed part. With --trace 1 every other group of one run per CPU is
  // traced, so the untraced groups in between give trace.overhead_frac.
  std::vector<double> run_ns, traced_run_ns;
  std::optional<Sizes> first_sizes;
  size_t input_rentals = 0;
  const double cpu0 = ProcessCpuSeconds();
  const auto group =
      static_cast<int64_t>(std::max<size_t>(1, rotation.cpu_count()));
  const int64_t begin = NowNs();
  const auto budget = static_cast<int64_t>(options.seconds * 1e9);
  for (int64_t run = 0; run < 8 || NowNs() - begin < budget; ++run) {
    log.set_enabled(options.trace && (run / group) % 2 == 1);
    rotation.Next();
    Sizes sizes;
    const int64_t r0 = NowNs();
    const int32_t root = log.enabled() ? log.Begin("paper.run", run) : -1;
    const auto read = InSpan(log, "data.csv", [&] {
      return data::Dataset::ReadCsv(locations_csv, rentals_csv);
    });
    if (!report.Op(read.status(), "Dataset::ReadCsv")) return;
    const std::optional<StationNetwork> built =
        BuildStationNetwork(*read, *land, log, report);
    if (!built) return;
    const data::Dataset& cleaned = built->cleaned.dataset;
    const expansion::FinalNetwork& network = built->network;
    struct Table {
      graphdb::WeightedGraph graph;
      community::CommunityResult detection;
      analysis::CommunityTripStats stats;
    };
    std::vector<Table> tables;
    for (const Granularity& g : granularities) {
      auto graph = InSpan(log, g.temporal_span, [&] {
        return analysis::BuildTemporalGraph(network.graph, g.options);
      });
      if (!report.Op(graph.status(), "BuildTemporalGraph")) return;
      auto detection = InSpan(log, g.detect_span, [&] {
        return community::Detect(*graph, paper.detection);
      });
      if (!report.Op(detection.status(), "community::Detect")) return;
      auto stats = InSpan(log, "analysis.stats", [&] {
        return analysis::ComputeCommunityTripStats(network,
                                                   detection->partition);
      });
      if (!report.Op(stats.status(), "ComputeCommunityTripStats")) return;
      tables.push_back(Table{std::move(*graph), std::move(*detection),
                             std::move(*stats)});
    }
    if (root >= 0) log.End(root);
    const auto elapsed = static_cast<double>(NowNs() - r0);
    (log.enabled() ? traced_run_ns : run_ns).push_back(elapsed);

    // Output checks, outside the timed region.
    input_rentals = read->rentals().size();
    const auto cleaned_trips = static_cast<int64_t>(cleaned.rentals().size());
    if (network.ComputeStats().total_trips != cleaned_trips) {
      report.Fail("Table III trips differ from the cleaned rentals");
    }
    for (size_t k = 0; k < 3; ++k) {
      const Table& t = tables[k];
      const char* name = granularities[k].name;
      int64_t within = 0, out = 0, in = 0;
      for (const auto& row : t.stats.rows) {
        within += row.within;
        out += row.out;
        in += row.in;
      }
      if (within + out != cleaned_trips || in != out) {
        report.Fail(std::string(name) + ": within + out != total trips");
      }
      const community::Partition& partition = t.detection.partition;
      bool covers = partition.node_count() == network.stations.size();
      for (const int32_t label : partition.assignment) {
        covers = covers && label >= 0;
      }
      if (!covers) report.Fail(std::string(name) + ": partition gap");
      const double q = community::Modularity(t.graph, partition);
      if (!(std::fabs(q - t.detection.modularity) <= 1e-9)) {
        report.Fail(std::string(name) + ": reported modularity " +
                    JsonNumber(t.detection.modularity) + " != recomputed " +
                    JsonNumber(q));
      }
      sizes.levels[k] = static_cast<size_t>(t.detection.levels);
      sizes.communities[k] = partition.CommunityCount();
    }
    sizes.rentals = cleaned.rentals().size();
    sizes.locations = cleaned.locations().size();
    sizes.candidates = built->candidates.candidates.size();
    sizes.stations = network.stations.size();
    if (!first_sizes) {
      first_sizes = sizes;
    } else if (!(sizes == *first_sizes)) {
      report.Fail("result sizes changed between runs of one seed");
    }
  }
  log.set_enabled(false);
  rotation.Release();
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double wall_s = static_cast<double>(NowNs() - begin) / 1e9;

  // End-to-end metrics, from the fastest tenth of the untraced runs, each
  // of which does identical work (see FastestBlocks). With a few runs in
  // that tenth, their p99 is the slowest of them.
  std::vector<double> fast_run_ns;
  for (const size_t i : FastestBlocks(run_ns, kFastestShare)) {
    fast_run_ns.push_back(run_ns[i]);
  }
  report.e2e.Set("setup_s", NearestRank(setup_ns, 50.0) / 1e9, "s");
  report.e2e.Set("peak_rss_mib", PeakRssMib(), "MiB");
  report.e2e.Set("events_per_s",
                 static_cast<double>(input_rentals) /
                     (FastestMean(run_ns, kFastestShare) / 1e9),
                 "1/s");
  report.e2e.Set("fresh_p50_ms", NearestRank(fast_run_ns, 50.0) / 1e6, "ms");
  report.e2e.Set("fresh_p99_ms", NearestRank(fast_run_ns, 99.0) / 1e6, "ms");
  report.Record("paper_runs", static_cast<double>(run_ns.size()));
  report.Record("fastest_runs", static_cast<double>(fast_run_ns.size()));
  report.Record("rotation_cpus", static_cast<double>(rotation.cpu_count()));
  report.Record("paper_ms_p50", NearestRank(run_ns, 50.0) / 1e6);
  report.Record("traced_runs", static_cast<double>(traced_run_ns.size()));
  report.Record("setups", static_cast<double>(setup_ns.size()));
  report.Record("input_rentals", static_cast<double>(input_rentals));

  // Per-layer metrics.
  const auto summary = Summarize(log.spans());
  const auto median_ms = [&](const char* name) {
    return NearestRank(Durations(summary, name), 50.0) / 1e6;
  };
  SetBootstrapLayers(summary, report.layers);
  report.layers.Set("data.csv_ms", median_ms("data.csv"), "ms");
  for (const Granularity& g : granularities) {
    report.layers.Set(std::string("analysis.temporal_ms.") + g.name,
                      median_ms(g.temporal_span), "ms");
    report.layers.Set(std::string("community.detect_ms.") + g.name,
                      median_ms(g.detect_span), "ms");
  }
  // Three ComputeCommunityTripStats calls per run.
  report.layers.Set("analysis.stats_ms", 3 * median_ms("analysis.stats"), "ms");
  if (first_sizes) {
    report.layers.Set("data.rentals", static_cast<double>(first_sizes->rentals),
                      "count");
    report.layers.Set("data.locations",
                      static_cast<double>(first_sizes->locations), "count");
    report.layers.Set("expansion.candidates",
                      static_cast<double>(first_sizes->candidates), "count");
    report.layers.Set("expansion.stations",
                      static_cast<double>(first_sizes->stations), "count");
    for (size_t k = 0; k < 3; ++k) {
      report.layers.Set(
          std::string("community.levels.") + granularities[k].name,
          static_cast<double>(first_sizes->levels[k]), "count");
      report.layers.Set(
          std::string("community.communities.") + granularities[k].name,
          static_cast<double>(first_sizes->communities[k]), "count");
    }
  }
  report.layers.Set("process.cpu_s", cpu, "s");
  report.layers.Set("process.cpu_per_wall", cpu / wall_s, "ratio");
  if (options.trace && !traced_run_ns.empty() && !run_ns.empty()) {
    report.layers.Set("trace.overhead_frac",
                      FastestMean(traced_run_ns, kFastestShare) /
                              FastestMean(run_ns, kFastestShare) -
                          1.0,
                      "ratio");
  }
  report.spans = log.spans();
}

}  // namespace perfbench
