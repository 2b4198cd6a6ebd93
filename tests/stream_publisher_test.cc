// SnapshotPublisher's RCU-style hand-off: epoch stamping and restore on
// the writer side, and the thread-safety contract — Current()/epoch()
// racing Publish() from reader threads, and the engine's any-thread
// getters (LatestSnapshot, freeze counters) racing a live ingestion
// loop. Run under BIKEGRAPH_SANITIZE=thread this is the TSan lock on
// the whole publication path.

#include <cstdint>
#include <memory>
// lint: thread-ok: this suite's purpose is racing the publisher's
// readers against its writer; threads are the test subject.
#include <thread>
#include <vector>

#include "stream/engine.h"
#include "stream/snapshot.h"
#include "stream/testing.h"

#include <gtest/gtest.h>

namespace bikegraph::stream {
namespace {

TEST(SnapshotPublisherTest, StampsSequentialEpochs) {
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.epoch(), 0u);
  EXPECT_EQ(publisher.Current(), nullptr);

  auto first = publisher.Publish(WindowSnapshot{});
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(publisher.epoch(), 1u);
  EXPECT_EQ(publisher.Current(), first);

  auto second = publisher.Publish(WindowSnapshot{});
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(publisher.Current(), second);
  // The older epoch stays alive for as long as a reader holds it.
  EXPECT_EQ(first->epoch, 1u);
}

TEST(SnapshotPublisherTest, RestoreEpochRewindsAndDropsCurrent) {
  SnapshotPublisher publisher;
  (void)publisher.Publish(WindowSnapshot{});
  (void)publisher.Publish(WindowSnapshot{});

  publisher.RestoreEpoch(7);
  EXPECT_EQ(publisher.epoch(), 7u);
  EXPECT_EQ(publisher.Current(), nullptr);

  auto next = publisher.Publish(WindowSnapshot{});
  EXPECT_EQ(next->epoch, 8u);
}

// Readers race a publishing writer. The ordering contract under test:
// an epoch observed via epoch() is already retrievable via Current(),
// and a snapshot handle is never torn — its stamped epoch always
// matches the marker the writer stored alongside it.
TEST(SnapshotPublisherTest, ConcurrentPublishAndRead) {
  SnapshotPublisher publisher;
  constexpr uint64_t kEpochs = 400;
  constexpr int kReaders = 4;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&publisher] {
      uint64_t last_seen = 0;
      while (last_seen < kEpochs) {
        const uint64_t observed = publisher.epoch();
        auto snap = publisher.Current();
        if (observed > 0) {
          // Snapshot stored before the counter: observing epoch N
          // guarantees Current() is at least epoch N.
          ASSERT_NE(snap, nullptr);
          ASSERT_GE(snap->epoch, observed);
        }
        if (snap != nullptr) {
          // The writer publishes trip_count == stamped epoch; a torn
          // or partially-constructed snapshot would break this.
          ASSERT_EQ(snap->trip_count, snap->epoch);
          ASSERT_GE(snap->epoch, last_seen);  // epochs never regress
          last_seen = snap->epoch;
        }
      }
    });
  }

  for (uint64_t i = 1; i <= kEpochs; ++i) {
    WindowSnapshot snap;
    snap.trip_count = i;  // marker readers cross-check against the epoch
    (void)publisher.Publish(std::move(snap));
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(publisher.epoch(), kEpochs);
}

// A dashboard thread polls the engine's any-thread surface —
// LatestSnapshot(), publisher(), delta/full freeze counters — while the
// ingestion thread ingests and freezes. Locks the StreamEngine::Snapshot
// stats counters against reader races (they were plain uint64_t once).
TEST(StreamEngineTest, ReaderPollsStatsWhileIngestionFreezes) {
  StreamEngineConfig config;
  config.station_count = 12;
  config.window_seconds = 86400;
  StreamEngine engine(config);

  const auto events = testing::PlantedStream(12, 3, 2, 150, 99);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    // do-while: on any host the ingestion loop can finish before this
    // thread's first pass (nothing orders thread start-up before the
    // writer); poll at least once regardless.
    do {
      auto snap = engine.LatestSnapshot();
      // Counters after the acquire load: the publish's release store
      // makes the writer's pre-publish increment visible here.
      const uint64_t delta = engine.delta_freeze_count();
      const uint64_t full = engine.full_freeze_count();
      if (snap != nullptr) {
        ASSERT_GT(delta + full, 0u);
        ASSERT_LE(snap->epoch, engine.publisher().epoch());
      }
    } while (!done.load(std::memory_order_acquire));
  });

  size_t i = 0;
  for (const auto& e : events) {
    ASSERT_TRUE(engine.Ingest(e).ok());
    if (++i % 25 == 0) {
      ASSERT_TRUE(engine.Snapshot().ok());
    }
  }
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Snapshot().ok());
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(engine.delta_freeze_count() + engine.full_freeze_count(),
            engine.publisher().epoch());
}

}  // namespace
}  // namespace bikegraph::stream
