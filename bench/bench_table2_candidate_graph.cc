// Reproduces Table II — details of the candidate graph generated by the
// constrained HAC stage (nodes, distinct edges with/without loops, trips).

#include "bench_common.h"
#include "metrics/graph_stats.h"

using namespace bikegraph;
using namespace bikegraph::bench;

int main() {
  std::printf("=== Table II: candidate graph details (paper vs measured) ===\n");
  auto result = RunExperimentOrDie();
  const auto& net = result.pipeline.candidate_network;
  auto counts = metrics::CountGraph(net.graph);
  const analysis::PaperExpectations paper;

  viz::AsciiTable t({"Measure", "Paper", "Ours"});
  t.AddRow({"#nodes", Fmt(paper.candidate_nodes), Fmt(counts.nodes)});
  t.AddRow({"#undirected edges", Fmt(paper.candidate_undirected_edges),
            Fmt(counts.undirected_edges)});
  t.AddRow({"#undirected edges (no loops)",
            Fmt(paper.candidate_undirected_edges_no_loops),
            Fmt(counts.undirected_edges_no_loops)});
  t.AddRow({"#directed edges", Fmt(paper.candidate_directed_edges),
            Fmt(counts.directed_edges)});
  t.AddRow({"#directed edges (no loops)",
            Fmt(paper.candidate_directed_edges_no_loops),
            Fmt(counts.directed_edges_no_loops)});
  t.AddRow({"#trips", Fmt(paper.candidate_trips), Fmt(counts.trips)});
  std::fputs(t.ToString().c_str(), stdout);

  std::printf("\n#fixed-station nodes: %zu, #candidate clusters: %zu, "
              "absorbed locations within 50 m of a station: (preprocessing)\n",
              net.fixed_count, net.free_count());
  return 0;
}
