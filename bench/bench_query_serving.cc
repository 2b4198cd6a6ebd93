// Closed-loop serving benchmark for the query layer: N reader threads
// hammer a QueryService with the mixed workload (query/workload.h) while
// the ingestion thread ingests an arrival-jittered planted stream and
// publishes epochs. Reported per variant: batch latency p50/p99, queries
// per second, and the writer's per-event cost — the Arg(0) (no readers)
// variant is the interference baseline the loaded writer numbers compare
// against. Wired into tools/run_benches.sh and BENCH_perf.json; the
// numbers (and the single-CPU emulated-host caveat) are discussed in
// docs/SERVING.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
// lint: thread-ok: closed-loop readers-vs-writer is what this measures.
#include <thread>
#include <vector>

#include "query/service.h"
#include "query/workload.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/testing.h"

namespace bikegraph::query {
namespace {

constexpr size_t kStations = 64;
constexpr size_t kSnapshotEvery = 200;

std::vector<geo::LatLon> GridPositions(size_t n) {
  std::vector<geo::LatLon> positions;
  positions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    positions.emplace_back(53.33 + 0.002 * static_cast<double>(i % 8),
                           -6.30 + 0.003 * static_cast<double>(i / 8));
  }
  return positions;
}

/// The serving engine config every variant uses: 2-day sliding window,
/// an hour of arrival-jitter tolerance, station positions so k-nearest
/// queries are answerable.
stream::StreamEngineConfig ServingConfig() {
  stream::StreamEngineConfig config;
  config.station_count = kStations;
  config.window_seconds = 2 * 86400;
  config.max_lateness_seconds = 3600;
  config.station_positions = GridPositions(kStations);
  return config;
}

double PercentileNs(std::vector<int64_t>& sorted_samples, double pct) {
  if (sorted_samples.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      static_cast<double>(sorted_samples.size() - 1) * pct / 100.0);
  return static_cast<double>(sorted_samples[rank]);
}

// One closed-loop episode per iteration: the writer (this thread) pushes
// the whole jittered stream through the engine, freezing an epoch every
// kSnapshotEvery events, while `readers` threads execute mixed batches
// against the service until the stream ends.
void BM_QueryServingClosedLoop(benchmark::State& state) {
  const auto readers = static_cast<size_t>(state.range(0));
  const auto events =
      stream::JitterArrivalOrder(
          stream::testing::PlantedStream(kStations, 4, /*days=*/2,
                                         /*trips_per_day=*/2000, /*seed=*/7),
          /*max_jitter_seconds=*/3600, /*seed=*/13)
          .events;

  std::vector<int64_t> latencies_ns;
  uint64_t total_queries = 0;
  double serve_seconds = 0.0;

  for (auto _ : state) {
    stream::StreamEngine engine(ServingConfig());
    QueryService service(engine);
    // First epoch before the readers start, so every batch can pin.
    (void)engine.Ingest(events.front());
    (void)engine.Snapshot();

    std::atomic<bool> done{false};
    std::vector<std::vector<int64_t>> local_latencies(readers);
    std::vector<uint64_t> local_queries(readers, 0);
    std::vector<std::thread> pool;
    pool.reserve(readers);
    for (size_t r = 0; r < readers; ++r) {
      pool.emplace_back([&, r] {
        std::mt19937_64 rng(7919 * (r + 1));
        WorkloadSpec spec;
        spec.station_count = kStations;
        spec.community_count = 2;
        spec.batch_size = 16;
        // do-while: the writer can finish before this thread's first
        // pass on any host, so every reader samples at least once.
        do {
          const auto batch = MakeWorkloadBatch(spec, rng);
          const auto t0 = std::chrono::steady_clock::now();
          auto outcome = service.ExecuteBatch(batch);
          const auto t1 = std::chrono::steady_clock::now();
          if (!outcome.ok()) continue;
          local_latencies[r].push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
          local_queries[r] += outcome->answers.size();
        } while (!done.load(std::memory_order_acquire));
      });
    }

    const auto w0 = std::chrono::steady_clock::now();
    for (size_t i = 1; i < events.size(); ++i) {
      (void)engine.Ingest(events[i]);
      if (i % kSnapshotEvery == 0) (void)engine.Snapshot();
    }
    (void)engine.Flush();
    (void)engine.Snapshot();
    const auto w1 = std::chrono::steady_clock::now();
    done.store(true, std::memory_order_release);
    for (auto& t : pool) t.join();

    serve_seconds += std::chrono::duration<double>(w1 - w0).count();
    for (size_t r = 0; r < readers; ++r) {
      latencies_ns.insert(latencies_ns.end(), local_latencies[r].begin(),
                          local_latencies[r].end());
      total_queries += local_queries[r];
    }
    benchmark::DoNotOptimize(engine.publisher().epoch());
  }

  std::sort(latencies_ns.begin(), latencies_ns.end());
  state.counters["readers"] = static_cast<double>(readers);
  state.counters["qps"] =
      serve_seconds > 0.0 ? static_cast<double>(total_queries) / serve_seconds
                          : 0.0;
  state.counters["batch_p50_ns"] = PercentileNs(latencies_ns, 50.0);
  state.counters["batch_p99_ns"] = PercentileNs(latencies_ns, 99.0);
  state.counters["writer_ns_per_event"] =
      serve_seconds * 1e9 /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(events.size()));
  state.SetItemsProcessed(
      readers > 0
          ? static_cast<int64_t>(total_queries)
          : static_cast<int64_t>(state.iterations()) *
                static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_QueryServingClosedLoop)
    ->Arg(0)   // interference baseline: the writer alone
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The read path alone: mixed batches against one pinned, fully-memoized
// epoch — the per-batch cost floor with no writer, no publication, and
// warm memo (community + top-pairs computed once before timing).
void BM_QueryBatchOnPinnedEpoch(benchmark::State& state) {
  stream::StreamEngine engine(ServingConfig());
  for (const auto& e : stream::testing::PlantedStream(
           kStations, 4, /*days=*/2, /*trips_per_day=*/2000, /*seed=*/7)) {
    (void)engine.Ingest(e);
  }
  (void)engine.Flush();
  (void)engine.Snapshot();
  QueryService service(engine);
  auto pinned = service.Pin();
  if (!pinned.ok()) {
    state.SkipWithError("pin failed");
    return;
  }
  (void)pinned->CommunityOf(0);  // warm the memo outside the timing loop
  (void)pinned->TopPairs(10);

  std::mt19937_64 rng(23);
  WorkloadSpec spec;
  spec.station_count = kStations;
  spec.community_count = 2;
  spec.batch_size = 16;
  uint64_t queries = 0;
  for (auto _ : state) {
    const auto batch = MakeWorkloadBatch(spec, rng);
    auto outcome = service.ExecuteBatchOn(*pinned, batch);
    benchmark::DoNotOptimize(outcome.answers.size());
    queries += outcome.answers.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
}
BENCHMARK(BM_QueryBatchOnPinnedEpoch);

}  // namespace
}  // namespace bikegraph::query

BENCHMARK_MAIN();
