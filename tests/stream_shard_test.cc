// Shard-partitioned ingestion: the ShardRouter partition function, the
// SPSC command ring, the shards drain and freeze, and the engine-level
// headline — an N-shard engine reproduces the single-writer engine's
// snapshots, profiles, and Louvain partitions bit for bit (merge-at-
// freeze), including the routing edge cases: a station first seen
// mid-stream landing on a previously idle shard, cross-shard pairs
// canonicalizing to one owner, and empty shards contributing empty
// (not stale) dirty sets to the delta freeze.
//
// lint: thread-ok: the SPSC ring handoff test needs a real producer and
// consumer thread — that cross-thread delivery is the property under test.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "community/detector.h"
#include "core/civil_time.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/shard.h"
#include "stream/snapshot.h"
#include "stream/spsc_ring.h"
#include "stream/testing.h"
#include "stream/window_graph.h"

#include <gtest/gtest.h>

#include "graph_test_util.h"

namespace bikegraph::stream {
namespace {

using bikegraph::ExpectGraphsIdentical;
using testing::PlantedStream;

CivilTime At(int day, int hour, int minute = 0) {
  return CivilTime::FromCalendar(2020, 1, day, hour, minute).ValueOrDie();
}

TripEvent Trip(int32_t from, int32_t to, CivilTime start,
               int64_t rental_id = 1) {
  TripEvent e;
  e.rental_id = rental_id;
  e.from_station = from;
  e.to_station = to;
  e.start_time = start;
  e.end_time = start.AddSeconds(600);
  return e;
}

// ---------------------------------------------------------------------------
// ShardRouter: the partition function must be stable across processes
// (WAL replay re-routes the merged log), orientation-free, and cover
// every shard.
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, MixMatchesTheSplitmix64TestVector) {
  // The first two outputs of the reference splitmix64 stream seeded with
  // 0 — the published test vector. A platform or refactor that changes
  // these re-routes every station and silently breaks WAL recovery.
  EXPECT_EQ(ShardRouter::Mix(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(ShardRouter::Mix(0x9E3779B97F4A7C15ull), 0x6E789E6AA1B965F4ull);
}

TEST(ShardRouterTest, RoutingIsDeterministicAndInRange) {
  const ShardRouter a(4);
  const ShardRouter b(4);
  for (int32_t s = 0; s < 512; ++s) {
    const size_t owner = a.OwnerOf(s);
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, b.OwnerOf(s)) << "station " << s;
  }
}

TEST(ShardRouterTest, EveryShardOwnsStations) {
  const ShardRouter router(4);
  std::array<size_t, 4> owned{};
  for (int32_t s = 0; s < 256; ++s) ++owned[router.OwnerOf(s)];
  for (size_t shard = 0; shard < owned.size(); ++shard) {
    EXPECT_GT(owned[shard], 0u) << "shard " << shard;
    // The mix really spreads: no shard hoards the universe.
    EXPECT_LT(owned[shard], 256u) << "shard " << shard;
  }
}

TEST(ShardRouterTest, PairOwnershipIsOrientationFree) {
  const ShardRouter router(3);
  for (int32_t u = 0; u < 24; ++u) {
    for (int32_t v = 0; v < 24; ++v) {
      EXPECT_EQ(router.OwnerOfPair(u, v), router.OwnerOfPair(v, u))
          << u << "," << v;
      EXPECT_EQ(router.OwnerOfPair(u, v), router.OwnerOf(std::min(u, v)))
          << u << "," << v;
    }
  }
}

TEST(ShardRouterTest, ZeroShardCountClampsToOne) {
  const ShardRouter router(0);
  EXPECT_EQ(router.shard_count(), 1u);
  EXPECT_EQ(router.OwnerOf(12345), 0u);
}

// ---------------------------------------------------------------------------
// SpscRing: the bounded command channel between the ingest thread and a
// shard worker.
// ---------------------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);  // the floor
}

TEST(SpscRingTest, FillDrainAndWraparound) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));  // full: bounded means bounded
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(ring.TryPop(out));  // empty
  // Many laps around the (power-of-two) index space: the monotonic
  // head/tail counters must keep masking correctly.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    ASSERT_TRUE(ring.TryPop(out));
    ASSERT_EQ(out, i);
  }
}

TEST(SpscRingTest, TwoThreadHandoffDeliversEverythingInOrder) {
  // One producer, one consumer, a ring far smaller than the payload:
  // every value must arrive exactly once, in order (run under
  // BIKEGRAPH_SANITIZE=thread this is the data-race lock).
  SpscRing<uint64_t> ring(8);
  constexpr uint64_t kCount = 50000;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t value = 0;
    if (!ring.TryPop(value)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(value, expected);
    ++expected;
  }
  producer.join();
  uint64_t leftover = 0;
  EXPECT_FALSE(ring.TryPop(leftover));
}

// ---------------------------------------------------------------------------
// The shards DrainDirty: the freeze-time union of per-shard change records.
// ---------------------------------------------------------------------------

/// Arms every shard's change tracking (a first drain is incomplete).
void ArmTracking(std::span<SlidingWindowGraph* const> shards) {
  EXPECT_FALSE(
      SlidingWindowGraph::DrainDirty(shards, SIZE_MAX, SIZE_MAX).complete);
}

TEST(ShardsDrainDirtyTest, NoShardIsIncomplete) {
  const WindowDirtySet merged = SlidingWindowGraph::DrainDirty(
      std::span<SlidingWindowGraph* const>{}, SIZE_MAX, SIZE_MAX);
  EXPECT_FALSE(merged.complete);
}

TEST(ShardsDrainDirtyTest, DisjointPairsAndSharedStationsMerge) {
  const WindowGraphOptions options{8, 0};
  SlidingWindowGraph a(options);
  SlidingWindowGraph b(options);
  SlidingWindowGraph idle(options);  // complete, nothing changed
  const std::array<SlidingWindowGraph*, 3> shards{&a, &b, &idle};
  ArmTracking(shards);
  ASSERT_TRUE(a.Ingest(Trip(0, 1, At(6, 8))).ok());
  ASSERT_TRUE(a.Ingest(Trip(3, 2, At(6, 9))).ok());
  ASSERT_TRUE(b.Ingest(Trip(4, 1, At(6, 10))).ok());

  const WindowDirtySet merged =
      SlidingWindowGraph::DrainDirty(shards, SIZE_MAX, SIZE_MAX);
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(merged.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1),
                                   SlidingWindowGraph::PairKey(1, 4),
                                   SlidingWindowGraph::PairKey(2, 3)}));
  EXPECT_EQ(merged.stations, (std::vector<int32_t>{0, 1, 2, 3, 4}));

  // The drain started a new epoch in every shard: only what changes
  // next is listed.
  ASSERT_TRUE(idle.Ingest(Trip(5, 5, At(6, 11))).ok());
  const WindowDirtySet next =
      SlidingWindowGraph::DrainDirty(shards, SIZE_MAX, SIZE_MAX);
  EXPECT_TRUE(next.complete);
  EXPECT_EQ(next.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(5, 5)}));
  EXPECT_EQ(next.stations, (std::vector<int32_t>{5}));
}

TEST(ShardsDrainDirtyTest, OneIncompleteShardPoisonsTheMerge) {
  const WindowGraphOptions options{8, 0};
  SlidingWindowGraph good(options);
  SlidingWindowGraph unarmed(options);  // never drained: a first drain
  (void)good.DrainDirty();
  ASSERT_TRUE(good.Ingest(Trip(0, 1, At(6, 8))).ok());
  const std::array<SlidingWindowGraph*, 2> shards{&good, &unarmed};
  WindowDirtySet merged =
      SlidingWindowGraph::DrainDirty(shards, SIZE_MAX, /*next_limit=*/1);
  EXPECT_FALSE(merged.complete);  // never a silent partial patch
  EXPECT_TRUE(merged.pairs.empty());
  EXPECT_TRUE(merged.stations.empty());

  // Both are armed now, under a one-pair limit: a shard that lists a
  // second pair overflows, and that poisons the merge too.
  ASSERT_TRUE(good.Ingest(Trip(0, 1, At(6, 9))).ok());
  ASSERT_TRUE(unarmed.Ingest(Trip(2, 3, At(6, 9))).ok());
  ASSERT_TRUE(unarmed.Ingest(Trip(4, 5, At(6, 10))).ok());
  merged = SlidingWindowGraph::DrainDirty(shards, SIZE_MAX, SIZE_MAX);
  EXPECT_FALSE(merged.complete);
}

TEST(ShardsDrainDirtyTest, RecordsThatTogetherPassTheLimitAreDropped) {
  // Every shard tracks under the one global limit, so each record can
  // stay under it while their union passes it: the drain drops them.
  const WindowGraphOptions options{8, 0};
  SlidingWindowGraph a(options);
  SlidingWindowGraph b(options);
  const std::array<SlidingWindowGraph*, 2> shards{&a, &b};
  int day = 6;
  for (const size_t limit : {size_t{2}, size_t{3}}) {
    SCOPED_TRACE(limit);
    (void)SlidingWindowGraph::DrainDirty(shards, SIZE_MAX, limit);
    ASSERT_TRUE(a.Ingest(Trip(0, 1, At(day, 8))).ok());
    ASSERT_TRUE(a.Ingest(Trip(0, 2, At(day, 9))).ok());
    ASSERT_TRUE(b.Ingest(Trip(3, 4, At(day, 10))).ok());
    ++day;
    ASSERT_EQ(a.dirty_pair_count() + b.dirty_pair_count(), 3u);
    const WindowDirtySet merged =
        SlidingWindowGraph::DrainDirty(shards, limit, SIZE_MAX);
    EXPECT_EQ(merged.complete, limit == 3);
    EXPECT_EQ(merged.pairs.size(), limit == 3 ? 3u : 0u);
    EXPECT_EQ(a.dirty_pair_count() + b.dirty_pair_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// The shards freeze: reading N shards as one window must agree with a
// single window that ingested the union stream.
// ---------------------------------------------------------------------------

TEST(ShardsFreezeTest, MatchesTheUnionWindow) {
  const size_t stations = 32;
  const auto events = PlantedStream(stations, 4, 5, 400, 21);
  const ShardRouter router(3);
  const WindowGraphOptions options{stations, 2 * 86400};

  SlidingWindowGraph single(options);
  std::vector<SlidingWindowGraph> shards(3, SlidingWindowGraph(options));
  for (const TripEvent& e : events) {
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(shards[router.OwnerOfPair(e.from_station, e.to_station)]
                    .Ingest(e)
                    .ok());
  }
  // Align every shard to the union watermark (the engine's phase-2
  // barrier) so expiry cutoffs agree.
  for (SlidingWindowGraph& shard : shards) shard.Advance(single.watermark());
  const std::array<const SlidingWindowGraph*, 3> parts{&shards[0], &shards[1],
                                                       &shards[2]};

  // The counters the freeze sums: trips and pairs are disjoint, the
  // per-station rows add up to the union window's.
  size_t trips = 0, pairs = 0;
  for (const SlidingWindowGraph* shard : parts) {
    trips += shard->trip_count();
    pairs += shard->pair_count();
  }
  EXPECT_EQ(trips, single.trip_count());
  EXPECT_EQ(pairs, single.pair_count());
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    std::array<int64_t, 7> day{};
    std::array<int64_t, 24> hour{};
    for (const SlidingWindowGraph* shard : parts) {
      for (size_t i = 0; i < day.size(); ++i) day[i] += shard->DayCounts(s)[i];
      for (size_t i = 0; i < hour.size(); ++i) {
        hour[i] += shard->HourCounts(s)[i];
      }
    }
    EXPECT_EQ(day, single.DayCounts(s)) << "station " << s;
    EXPECT_EQ(hour, single.HourCounts(s)) << "station " << s;
  }

  // ForEachPairIn: identical (u, v, trips) sequence, ascending, no ties,
  // each count held by exactly one shard.
  std::vector<std::array<int64_t, 3>> from_shards, from_single;
  SlidingWindowGraph::ForEachPairIn(
      parts, [&](int32_t u, int32_t v, int64_t count) {
        from_shards.push_back({u, v, count});
        int holders = 0;
        for (const SlidingWindowGraph* shard : parts) {
          const int64_t held = shard->TripsBetween(u, v);
          if (held != 0) {
            ++holders;
            EXPECT_EQ(held, count);
          }
        }
        EXPECT_EQ(holders, 1) << "pair (" << u << ", " << v << ")";
      });
  single.ForEachPair([&](int32_t u, int32_t v, int64_t count) {
    from_single.push_back({u, v, count});
  });
  EXPECT_EQ(from_shards, from_single);

  // And the freeze of the shards is bit-identical to the freeze of the
  // union window.
  auto merged_snap = FreezeSnapshot(parts);
  auto single_snap = FreezeSnapshot(single);
  ASSERT_TRUE(merged_snap.ok());
  ASSERT_TRUE(single_snap.ok());
  EXPECT_EQ(merged_snap->trip_count, single_snap->trip_count);
  EXPECT_EQ(merged_snap->window_start, single_snap->window_start);
  EXPECT_EQ(merged_snap->window_end, single_snap->window_end);
  EXPECT_EQ(merged_snap->window_end, single.watermark());
  EXPECT_EQ(merged_snap->profiles.day, single_snap->profiles.day);
  EXPECT_EQ(merged_snap->profiles.hour, single_snap->profiles.hour);
  EXPECT_EQ(merged_snap->graph.node_count(), stations);
  EXPECT_EQ(merged_snap->graph.edge_count() +
                merged_snap->graph.self_loop_count(),
            single.pair_count());
  ExpectGraphsIdentical(merged_snap->graph, single_snap->graph);
}

TEST(ShardsFreezeTest, EmptyShardsContributeNothing) {
  const WindowGraphOptions options{8, 86400};
  SlidingWindowGraph populated(options);
  SlidingWindowGraph empty_a(options);
  SlidingWindowGraph empty_b(options);
  ASSERT_TRUE(populated.Ingest(Trip(0, 1, At(6, 10))).ok());
  ASSERT_TRUE(populated.Ingest(Trip(1, 2, At(6, 11))).ok());

  const std::array<const SlidingWindowGraph*, 3> parts{&empty_a, &populated,
                                                       &empty_b};
  auto snap = FreezeSnapshot(parts);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->trip_count, 2u);
  EXPECT_EQ(snap->graph.edge_count() + snap->graph.self_loop_count(), 2u);
  EXPECT_EQ(snap->window_end, populated.watermark());
  EXPECT_EQ(snap->window_start, populated.window_start());
  EXPECT_DOUBLE_EQ(snap->graph.WeightBetween(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(snap->graph.WeightBetween(3, 4), 0.0);
  size_t visited = 0;
  SlidingWindowGraph::ForEachPairIn(
      parts, [&](int32_t, int32_t, int64_t) { ++visited; });
  EXPECT_EQ(visited, 2u);

  auto alone = FreezeSnapshot(populated);
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(snap->profiles.day, alone->profiles.day);
  EXPECT_EQ(snap->profiles.hour, alone->profiles.hour);
  ExpectGraphsIdentical(snap->graph, alone->graph);

  // No shard at all is refused, not read.
  EXPECT_EQ(FreezeSnapshot(std::span<const SlidingWindowGraph* const>{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: the headline lock. An N-shard engine fed the
// same (jittered) stream as a single-writer engine must publish
// bit-identical snapshots and Louvain partitions at every barrier.
// ---------------------------------------------------------------------------

StreamEngineConfig BaseConfig(size_t stations, int64_t window_seconds,
                              size_t shard_count,
                              int64_t max_lateness_seconds = 0) {
  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = window_seconds;
  config.max_lateness_seconds = max_lateness_seconds;
  config.shard_count = shard_count;
  return config;
}

void ExpectSnapshotsIdentical(const WindowSnapshot& sharded,
                              const WindowSnapshot& single) {
  EXPECT_EQ(sharded.trip_count, single.trip_count);
  EXPECT_EQ(sharded.window_start, single.window_start);
  EXPECT_EQ(sharded.window_end, single.window_end);
  EXPECT_EQ(sharded.profiles.day, single.profiles.day);
  EXPECT_EQ(sharded.profiles.hour, single.profiles.hour);
  ExpectGraphsIdentical(sharded.graph, single.graph);
}

/// Feeds the identical jittered planted stream into a single-writer and
/// an N-shard engine, snapshotting mid-stream every `snapshot_every`
/// events (each one a sharded barrier), and requires bit identity at
/// every snapshot, at the final flush, and on the Louvain partition.
void ExpectShardedEquivalence(int64_t window_seconds, size_t shard_count) {
  const size_t stations = 24;
  const auto ordered = PlantedStream(stations, 3, 10, 300, 7);
  const auto jittered = JitterArrivalOrder(ordered, 1800, 99).events;
  const size_t snapshot_every = 617;

  StreamEngine single(BaseConfig(stations, window_seconds, 1, 1800));
  StreamEngine sharded(
      BaseConfig(stations, window_seconds, shard_count, 1800));
  ASSERT_EQ(sharded.shard_count(), shard_count);

  for (size_t i = 0; i < jittered.size(); ++i) {
    ASSERT_TRUE(single.Ingest(jittered[i]).ok());
    ASSERT_TRUE(sharded.Ingest(jittered[i]).ok());
    if ((i + 1) % snapshot_every == 0) {
      auto single_snap = single.Snapshot();
      auto sharded_snap = sharded.Snapshot();
      ASSERT_TRUE(single_snap.ok());
      ASSERT_TRUE(sharded_snap.ok());
      ExpectSnapshotsIdentical(**sharded_snap, **single_snap);
    }
  }
  ASSERT_TRUE(single.Flush().ok());
  ASSERT_TRUE(sharded.Flush().ok());

  // Quiescent now: the aggregate live stats must agree exactly.
  EXPECT_EQ(sharded.ingested_count(), single.ingested_count());
  EXPECT_EQ(sharded.trip_count(), single.trip_count());
  EXPECT_EQ(sharded.expired_count(), single.expired_count());
  EXPECT_EQ(sharded.watermark(), single.watermark());
  EXPECT_EQ(sharded.reordered_count(), single.reordered_count());
  EXPECT_EQ(sharded.late_dropped_count(), 0u);
  EXPECT_EQ(sharded.buffered_count(), 0u);
  EXPECT_GT(sharded.reordered_count(), 0u);

  auto single_snap = single.Snapshot();
  auto sharded_snap = sharded.Snapshot();
  ASSERT_TRUE(single_snap.ok());
  ASSERT_TRUE(sharded_snap.ok());
  ExpectSnapshotsIdentical(**sharded_snap, **single_snap);

  auto single_detect = single.DetectCurrent();
  auto sharded_detect = sharded.DetectCurrent();
  ASSERT_TRUE(single_detect.ok());
  ASSERT_TRUE(sharded_detect.ok());
  EXPECT_EQ(sharded_detect->result.partition.assignment,
            single_detect->result.partition.assignment);
  EXPECT_EQ(sharded_detect->result.modularity,
            single_detect->result.modularity);  // bitwise
}

TEST(ShardedEngineTest, TwoShardsSlidingBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/3 * 86400, /*shard_count=*/2);
}

TEST(ShardedEngineTest, FourShardsSlidingBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/3 * 86400, /*shard_count=*/4);
}

TEST(ShardedEngineTest, TwoShardsLandmarkBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/0, /*shard_count=*/2);
}

TEST(ShardedEngineTest, FourShardsLandmarkBitForBit) {
  ExpectShardedEquivalence(/*window_seconds=*/0, /*shard_count=*/4);
}

TEST(ShardedEngineTest, ShardCountZeroMeansSingleWriter) {
  StreamEngine zero(BaseConfig(4, 0, 0));
  EXPECT_EQ(zero.shard_count(), 1u);
  StreamEngine four(BaseConfig(4, 0, 4));
  EXPECT_EQ(four.shard_count(), 4u);
}

TEST(ShardedEngineTest, ValidationStaysSynchronousWhenSharded) {
  // Endpoint validation and the flushed check happen at arrival, before
  // routing — only in-shard failures are deferred.
  StreamEngine engine(BaseConfig(4, 0, 2));
  EXPECT_EQ(engine.Ingest(Trip(0, 9, At(6, 10))).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.Ingest(Trip(0, 1, At(6, 11))).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Routing edge cases (the satellite locks).
// ---------------------------------------------------------------------------

/// The first station (by id) whose owner under `router` differs from
/// `avoid`, or -1.
int32_t FirstStationNotOwnedBy(const ShardRouter& router, size_t avoid,
                               size_t stations) {
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    if (router.OwnerOf(s) != avoid) return s;
  }
  return -1;
}

TEST(ShardedEngineTest, MidStreamStationWakesAnIdleShard) {
  const size_t stations = 64;
  const ShardRouter router(4);
  // Warm phase: all trips among stations owned by one shard, so three
  // shards never see an event.
  const size_t hot = router.OwnerOf(0);
  std::vector<int32_t> hot_stations;
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    if (router.OwnerOf(s) == hot) hot_stations.push_back(s);
  }
  ASSERT_GE(hot_stations.size(), 2u);
  // The wake-up pair must be *owned* by an idle shard: its canonical
  // (smaller) endpoint belongs to a shard with no prior events.
  const int32_t cold = FirstStationNotOwnedBy(router, hot, stations);
  ASSERT_GE(cold, 0);
  int32_t partner = -1;
  for (int32_t s : hot_stations) {
    if (s > cold) partner = s;
  }
  ASSERT_GE(partner, 0);
  ASSERT_NE(router.OwnerOfPair(cold, partner), hot);

  StreamEngine single(BaseConfig(stations, 0, 1));
  StreamEngine sharded(BaseConfig(stations, 0, 4));
  int64_t rental = 1;
  for (int minute = 0; minute < 30; ++minute) {
    const TripEvent e =
        Trip(hot_stations[0], hot_stations[1], At(6, 10, minute), rental++);
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(sharded.Ingest(e).ok());
  }
  auto warm_single = single.Snapshot();
  auto warm_sharded = sharded.Snapshot();
  ASSERT_TRUE(warm_single.ok());
  ASSERT_TRUE(warm_sharded.ok());
  ExpectSnapshotsIdentical(**warm_sharded, **warm_single);

  // Mid-stream, a never-before-seen station routes its pair to a shard
  // that was idle through the warm phase and the first freeze.
  const TripEvent wake = Trip(cold, partner, At(6, 11), rental++);
  ASSERT_TRUE(single.Ingest(wake).ok());
  ASSERT_TRUE(sharded.Ingest(wake).ok());
  auto woken_single = single.Snapshot();
  auto woken_sharded = sharded.Snapshot();
  ASSERT_TRUE(woken_single.ok());
  ASSERT_TRUE(woken_sharded.ok());
  ExpectSnapshotsIdentical(**woken_sharded, **woken_single);
  EXPECT_EQ((*woken_sharded)->trip_count, 31u);
  EXPECT_EQ((*woken_sharded)->graph.edge_count(),
            (*warm_sharded)->graph.edge_count() + 1);
}

TEST(ShardedEngineTest, CrossShardPairCanonicalizesToOneOwner) {
  // Both orientations of a pair whose endpoints live on different shards
  // must land on the same shard and fold into one edge, exactly as in
  // the single-writer engine.
  const size_t stations = 16;
  const ShardRouter router(4);
  int32_t u = -1, v = -1;
  for (int32_t a = 0; a < static_cast<int32_t>(stations) && u < 0; ++a) {
    for (int32_t b = a + 1; b < static_cast<int32_t>(stations); ++b) {
      if (router.OwnerOf(a) != router.OwnerOf(b)) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_GE(u, 0);

  StreamEngine single(BaseConfig(stations, 0, 1));
  StreamEngine sharded(BaseConfig(stations, 0, 4));
  const std::vector<TripEvent> events = {Trip(u, v, At(6, 10), 1),
                                         Trip(v, u, At(6, 10, 5), 2),
                                         Trip(u, v, At(6, 10, 9), 3)};
  for (const TripEvent& e : events) {
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(sharded.Ingest(e).ok());
  }
  ASSERT_TRUE(single.Flush().ok());
  ASSERT_TRUE(sharded.Flush().ok());
  EXPECT_EQ(sharded.trip_count(), 3u);
  auto single_snap = single.Snapshot();
  auto sharded_snap = sharded.Snapshot();
  ASSERT_TRUE(single_snap.ok());
  ASSERT_TRUE(sharded_snap.ok());
  ExpectSnapshotsIdentical(**sharded_snap, **single_snap);
  EXPECT_EQ((*sharded_snap)->graph.edge_count(), 1u);  // one folded edge
}

TEST(ShardedEngineTest, EmptyShardFreezeTakesTheDeltaPathNotAStaleSet) {
  // All events live on one shard; the other three stay empty across two
  // freezes. An empty shard must contribute a *complete empty* dirty
  // set to the second freeze — the merged record stays complete and the
  // copy-on-write delta path runs — rather than an incomplete (stale)
  // one forcing full rebuilds forever.
  const size_t stations = 64;
  const ShardRouter router(4);
  const size_t hot = router.OwnerOf(0);
  std::vector<int32_t> hot_stations;
  for (int32_t s = 0; s < static_cast<int32_t>(stations); ++s) {
    if (router.OwnerOf(s) == hot) hot_stations.push_back(s);
  }
  ASSERT_GE(hot_stations.size(), 16u);

  StreamEngine single(BaseConfig(stations, 0, 1));
  StreamEngine sharded(BaseConfig(stations, 0, 4));
  int64_t rental = 1;
  int minute = 0;
  const auto feed = [&](size_t a, size_t b) {
    const TripEvent e =
        Trip(hot_stations[a], hot_stations[b], At(6, 10, minute++), rental++);
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(sharded.Ingest(e).ok());
  };
  // First epoch: 15 distinct pairs, so the one-pair second epoch stays
  // far under the delta policy's dirty-fraction cap.
  for (size_t i = 0; i + 1 < 16; ++i) feed(i, i + 1);
  auto first_single = single.Snapshot();
  auto first_sharded = sharded.Snapshot();
  ASSERT_TRUE(first_single.ok());
  ASSERT_TRUE(first_sharded.ok());
  ExpectSnapshotsIdentical(**first_sharded, **first_single);
  EXPECT_EQ(sharded.full_freeze_count(), 1u);  // first freeze arms dirty
                                               // tracking on every shard
  EXPECT_EQ(sharded.delta_freeze_count(), 0u);

  // A small second epoch: one touched pair out of fifteen edges.
  feed(0, 1);
  auto second_single = single.Snapshot();
  auto second_sharded = sharded.Snapshot();
  ASSERT_TRUE(second_single.ok());
  ASSERT_TRUE(second_sharded.ok());
  ExpectSnapshotsIdentical(**second_sharded, **second_single);
  // The empty shards' records were complete, so the merge stayed
  // complete and the delta path ran.
  EXPECT_EQ(sharded.delta_freeze_count(), 1u);
  EXPECT_EQ(sharded.full_freeze_count(), 1u);
}

TEST(ShardedEngineTest, DeferredShardErrorsSurfaceAtTheNextBarrier) {
  // Strict lateness (0, kError): the single-writer engine fails the
  // Ingest; a sharded engine accepts the enqueue and surfaces the
  // shard's error at the next barrier — exactly once.
  StreamEngine engine(BaseConfig(8, 0, 2));
  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 10), 1)).ok());
  // A start-time regression under max_lateness 0 fails inside the
  // owning shard; the enqueuing call cannot see that.
  ASSERT_TRUE(engine.Ingest(Trip(2, 3, At(6, 9), 2)).ok());
  const Status deferred = engine.Flush();
  EXPECT_EQ(deferred.code(), StatusCode::kFailedPrecondition);
  // Surfaced once: the barrier cleared the parked error, and the good
  // event is in the window.
  auto snap = engine.Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->trip_count, 1u);
  EXPECT_EQ(engine.trip_count(), 1u);
}

}  // namespace
}  // namespace bikegraph::stream
