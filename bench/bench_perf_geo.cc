// Performance benchmarks for the geospatial substrate: Haversine vs the
// equirectangular approximation, and GridIndex queries vs linear scans.
// These justify the grid cell sizing and the choice of distance function.

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "geo/grid_index.h"
#include "geo/haversine.h"

namespace bikegraph::geo {
namespace {

std::vector<LatLon> RandomPoints(size_t n, uint64_t seed = 7) {
  Rng rng(seed);
  const LatLon center(53.35, -6.26);
  std::vector<LatLon> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(Offset(center, rng.NextUniform(0.0, 8000.0),
                            rng.NextUniform(0.0, 360.0)));
  }
  return points;
}

void BM_Haversine(benchmark::State& state) {
  auto points = RandomPoints(1024);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = points[i % points.size()];
    const auto& b = points[(i * 7 + 1) % points.size()];
    benchmark::DoNotOptimize(HaversineMeters(a, b));
    ++i;
  }
}
BENCHMARK(BM_Haversine);

void BM_Equirectangular(benchmark::State& state) {
  auto points = RandomPoints(1024);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = points[i % points.size()];
    const auto& b = points[(i * 7 + 1) % points.size()];
    benchmark::DoNotOptimize(EquirectangularMeters(a, b));
    ++i;
  }
}
BENCHMARK(BM_Equirectangular);

void BM_GridIndexBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto points = RandomPoints(n);
  for (auto _ : state) {
    GridIndex index(100.0);
    for (size_t i = 0; i < n; ++i) {
      index.Add(static_cast<int64_t>(i), points[i]);
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GridIndexBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_GridIndexRadiusQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto points = RandomPoints(n);
  GridIndex index(100.0);
  for (size_t i = 0; i < n; ++i) {
    index.Add(static_cast<int64_t>(i), points[i]);
  }
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.WithinRadius(points[q % n], 100.0));
    ++q;
  }
}
BENCHMARK(BM_GridIndexRadiusQuery)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_LinearRadiusQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto points = RandomPoints(n);
  size_t q = 0;
  for (auto _ : state) {
    std::vector<int64_t> hits;
    const LatLon& query = points[q % n];
    for (size_t i = 0; i < n; ++i) {
      if (HaversineMeters(points[i], query) <= 100.0) {
        hits.push_back(static_cast<int64_t>(i));
      }
    }
    benchmark::DoNotOptimize(hits);
    ++q;
  }
}
BENCHMARK(BM_LinearRadiusQuery)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_GridIndexNearest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto points = RandomPoints(n);
  auto queries = RandomPoints(256, /*seed=*/13);
  GridIndex index(100.0);
  for (size_t i = 0; i < n; ++i) {
    index.Add(static_cast<int64_t>(i), points[i]);
  }
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Nearest(queries[q % queries.size()]));
    ++q;
  }
}
BENCHMARK(BM_GridIndexNearest)->Arg(1000)->Arg(10000)->Arg(50000);

// The live k-nearest-stations query at perfbench `serve`'s shape: each
// station's own position against the station index snapshots share
// (about 272 stations in BuildFrozenStationIndex's default 100 m cells),
// k = 8 with the station itself excluded.
void BM_GridIndexKNearest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto points = RandomPoints(n);
  GridIndex index(100.0);
  for (size_t i = 0; i < n; ++i) {
    index.Add(static_cast<int64_t>(i), points[i]);
  }
  size_t q = 0;
  for (auto _ : state) {
    const size_t s = q % n;
    benchmark::DoNotOptimize(
        index.KNearest(points[s], 8, static_cast<int64_t>(s)));
    ++q;
  }
}
BENCHMARK(BM_GridIndexKNearest)->Arg(272);

}  // namespace
}  // namespace bikegraph::geo

BENCHMARK_MAIN();
