// The serving layer's headline concurrency lock: N reader threads hammer
// a QueryService with the mixed workload while the ingestion thread keeps
// ingesting and publishing epochs. Under BIKEGRAPH_SANITIZE=thread this
// is the TSan gate on the whole read path (pin, memo call_once, batch
// execution); in any build it checks the serving invariants — epochs
// never regress per reader, every answer comes from the pinned epoch,
// and the memoized heavies never run more than once per epoch.

#include <atomic>
#include <cstdint>
#include <random>
// lint: thread-ok: readers-vs-live-writer is the scenario under test.
#include <thread>
#include <vector>

#include "query/service.h"
#include "query/workload.h"
#include "stream/engine.h"
#include "stream/testing.h"

#include <gtest/gtest.h>

namespace bikegraph::query {
namespace {

std::vector<geo::LatLon> GridPositions(size_t n) {
  std::vector<geo::LatLon> positions;
  positions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    positions.emplace_back(53.33 + 0.002 * static_cast<double>(i % 6),
                           -6.30 + 0.003 * static_cast<double>(i / 6));
  }
  return positions;
}

TEST(QueryConcurrentTest, ReadersServeWhileWriterPublishes) {
  constexpr size_t kStations = 24;
  constexpr int kReaders = 4;
  constexpr size_t kSnapshotEvery = 40;

  stream::StreamEngineConfig config;
  config.station_count = kStations;
  config.window_seconds = 2 * 86400;
  config.station_positions = GridPositions(kStations);
  stream::StreamEngine engine(std::move(config));

  QueryServiceOptions options;
  options.memo_epochs = 3;
  QueryService service(engine, options);

  const auto events = stream::testing::PlantedStream(
      kStations, 4, /*days=*/3, /*trips_per_day=*/150, /*seed=*/2024);

  // First epoch before the readers start, so every batch can pin.
  ASSERT_TRUE(engine.Ingest(events[0]).ok());
  ASSERT_TRUE(engine.Snapshot().ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> batches_served{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<uint64_t>(r) + 1);
      WorkloadSpec spec;
      spec.station_count = kStations;
      spec.community_count = 2;  // planted graphs never collapse below 2
      spec.batch_size = 8;
      uint64_t last_epoch = 0;
      // do-while: on any host the writer can drain the whole stream
      // before a reader's first pass; serve at least one batch.
      do {
        const auto batch = MakeWorkloadBatch(spec, rng);
        auto outcome = service.ExecuteBatch(batch);
        ASSERT_TRUE(outcome.ok());
        ASSERT_GE(outcome->epoch, last_epoch);  // epochs never regress
        last_epoch = outcome->epoch;
        ASSERT_EQ(outcome->answers.size(), batch.size());
        for (const auto& answer : outcome->answers) {
          // Station/knearest/profile/top-pairs slots are always valid
          // here; flow can race a partition with fewer communities than
          // the spec assumed, which must surface as a clean per-slot
          // InvalidArgument, never a crash or torn answer.
          if (!answer.ok()) {
            ASSERT_EQ(answer.status().code(),
                      StatusCode::kInvalidArgument);
          }
        }
        batches_served.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  size_t i = 1;
  for (; i < events.size(); ++i) {
    ASSERT_TRUE(engine.Ingest(events[i]).ok());
    if (i % kSnapshotEvery == 0) {
      ASSERT_TRUE(engine.Snapshot().ok());
    }
  }
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Snapshot().ok());
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(batches_served.load(), 0u);
  const QueryServiceStats stats = service.stats();
  EXPECT_GT(stats.queries, 0u);
  // Compute-once per epoch: the detection ran at most once per published
  // epoch no matter how many readers raced on it.
  EXPECT_LE(stats.community_memo_misses, engine.publisher().epoch());
  EXPECT_LE(stats.pairs_memo_misses, engine.publisher().epoch());
  EXPECT_LE(service.memo_size(), options.memo_epochs);
}

}  // namespace
}  // namespace bikegraph::query
