// Performance benchmarks for the community-detection algorithms: Louvain
// vs label propagation vs CNM fast-greedy vs Infomap-lite, on planted
// clique-ring graphs of growing size. Each runs through Detect(), so every
// row includes the modularity of the result.

#include <benchmark/benchmark.h>

#include "community/detector.h"
#include "community/modularity.h"
#include "core/checked_cast.h"
#include "core/rng.h"

namespace bikegraph::community {
namespace {

graphdb::WeightedGraph CliqueRing(int cliques, int size, uint64_t seed = 5) {
  graphdb::WeightedGraphBuilder b(AsIndex(cliques * size));
  Rng rng(seed);
  for (int q = 0; q < cliques; ++q) {
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        (void)b.AddEdge(q * size + i, q * size + j,
                        0.5 + rng.NextDouble());
      }
    }
    (void)b.AddEdge(q * size, ((q + 1) % cliques) * size + 1, 0.5);
  }
  return b.Build();
}

// Graph construction cost in isolation: replay a pre-generated edge stream
// (with duplicates, so weight merging is exercised) into the builder.
void BM_WeightedGraphBuild(benchmark::State& state) {
  const int cliques = static_cast<int>(state.range(0));
  const int size = 12;
  const int n = cliques * size;
  struct Edge {
    int32_t u, v;
    double w;
  };
  std::vector<Edge> edges;
  Rng rng(11);
  for (int q = 0; q < cliques; ++q) {
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        edges.push_back(Edge{q * size + i, q * size + j,
                             0.5 + rng.NextDouble()});
      }
    }
    edges.push_back(Edge{q * size, ((q + 1) % cliques) * size + 1, 0.5});
  }
  // Duplicate a third of the edges to exercise parallel-edge merging.
  const size_t base = edges.size();
  for (size_t i = 0; i < base; i += 3) edges.push_back(edges[i]);
  for (auto _ : state) {
    graphdb::WeightedGraphBuilder b(AsIndex(n));
    for (const Edge& e : edges) (void)b.AddEdge(e.u, e.v, e.w);
    auto g = b.Build();
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_WeightedGraphBuild)->Arg(50)->Arg(200)->Arg(800);

void BM_Louvain(benchmark::State& state) {
  auto g = CliqueRing(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    auto r = Detect(g, {AlgorithmId::kLouvain, {}});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.node_count()));
}
BENCHMARK(BM_Louvain)->Arg(10)->Arg(50)->Arg(200);

void BM_LabelPropagation(benchmark::State& state) {
  auto g = CliqueRing(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    auto r = Detect(g, {AlgorithmId::kLabelPropagation, {}});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LabelPropagation)->Arg(10)->Arg(50)->Arg(200);

void BM_FastGreedy(benchmark::State& state) {
  auto g = CliqueRing(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    auto r = Detect(g, {AlgorithmId::kFastGreedy, {}});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FastGreedy)->Arg(10)->Arg(50)->Arg(200);

void BM_InfomapLite(benchmark::State& state) {
  auto g = CliqueRing(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    auto r = Detect(g, {AlgorithmId::kInfomap, {}});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_InfomapLite)->Arg(10)->Arg(50)->Arg(200);

void BM_Modularity(benchmark::State& state) {
  auto g = CliqueRing(100, 12);
  auto partition =
      Detect(g, {AlgorithmId::kLouvain, {}}).ValueOrDie().partition;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Modularity(g, partition));
  }
}
BENCHMARK(BM_Modularity);

}  // namespace
}  // namespace bikegraph::community

BENCHMARK_MAIN();
