// Performance benchmark for the clustering substrate: the scalable
// threshold-bounded complete-linkage HAC. It is what makes the paper's
// 14k-location clustering tractable (the paper itself reports being
// "impeded by the sheer number of locations and software limitations").

#include <benchmark/benchmark.h>

#include "cluster/hac.h"
#include "core/rng.h"
#include "geo/haversine.h"

namespace bikegraph::cluster {
namespace {

using geo::LatLon;

std::vector<LatLon> ClusteredPoints(size_t n, uint64_t seed = 3) {
  Rng rng(seed);
  const LatLon center(53.35, -6.26);
  // Mimic the dockless distribution: points clump around micro-centres.
  std::vector<LatLon> micros;
  const size_t n_micros = std::max<size_t>(8, n / 12);
  for (size_t i = 0; i < n_micros; ++i) {
    micros.push_back(geo::Offset(center, rng.NextUniform(0.0, 5000.0),
                                 rng.NextUniform(0.0, 360.0)));
  }
  std::vector<LatLon> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const LatLon& m = micros[rng.NextBounded(micros.size())];
    points.push_back(geo::Offset(m, rng.NextExponential(1.0 / 25.0),
                                 rng.NextUniform(0.0, 360.0)));
  }
  return points;
}

void BM_ThresholdHac(benchmark::State& state) {
  auto points = ClusteredPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto labels = ThresholdCompleteLinkage(points, 100.0);
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThresholdHac)->Arg(500)->Arg(2000)->Arg(8000)->Arg(16000);

}  // namespace
}  // namespace bikegraph::cluster

BENCHMARK_MAIN();
