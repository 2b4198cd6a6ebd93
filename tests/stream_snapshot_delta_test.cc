// Copy-on-write snapshot deltas: the WeightedGraphPatcher's CSR patching
// against a rebuild-from-scratch reference, the SlidingWindowGraph dirty
// tracking contract (arming, exactness, overflow), and the headline lock
// — FreezeSnapshotDelta chained across a thousand randomized epochs is
// bit-identical to a full FreezeSnapshot of the same window, for the
// GBasic and temporal projections, with the engine wiring on top.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/civil_time.h"
#include "core/rng.h"
#include "graphdb/weighted_graph.h"
#include "stream/engine.h"
#include "stream/shard.h"
#include "stream/snapshot.h"
#include "stream/testing.h"
#include "stream/window_graph.h"

#include <gtest/gtest.h>

#include "graph_test_util.h"

namespace bikegraph::stream {
namespace {

using bikegraph::ExpectGraphsIdentical;  // tests/graph_test_util.h
using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;
using graphdb::WeightedGraphPatcher;

// ---------------------------------------------------------------------------
// WeightedGraphPatcher: patching == rebuilding, on randomized graphs.
// ---------------------------------------------------------------------------

TEST(WeightedGraphPatcherTest, RandomizedPatchMatchesRebuild) {
  Rng rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 4 + rng.NextBounded(40);
    // Base edge set: weight per pair (self pairs allowed).
    std::unordered_map<uint64_t, double> weights;
    const auto key = [](int32_t u, int32_t v) {
      if (u > v) std::swap(u, v);
      return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
             static_cast<uint32_t>(v);
    };
    const size_t base_edges = rng.NextBounded(4 * n) + 1;
    for (size_t i = 0; i < base_edges; ++i) {
      const auto u = static_cast<int32_t>(rng.NextBounded(n));
      const auto v = static_cast<int32_t>(rng.NextBounded(n));
      weights[key(u, v)] = 0.25 + rng.NextDouble();
    }
    const auto build = [&](const std::unordered_map<uint64_t, double>& w) {
      WeightedGraphBuilder b(n);
      std::vector<uint64_t> keys;
      // lint: unordered-iter-ok: keys are collected then sorted
      // immediately below; map order cannot reach the builder.
      for (const auto& [k, weight] : w) keys.push_back(k);
      std::sort(keys.begin(), keys.end());
      for (uint64_t k : keys) {
        EXPECT_TRUE(b.AddEdge(static_cast<int32_t>(k >> 32),
                              static_cast<int32_t>(k & 0xFFFFFFFFu),
                              w.at(k))
                        .ok());
      }
      return b.Build();
    };
    const WeightedGraph base = build(weights);

    // Random updates: removals, reweights, inserts (u > v on purpose
    // sometimes, the patcher canonicalises), plus duplicate updates for
    // the same pair (last wins) and removals of absent pairs (no-op).
    std::vector<WeightedGraphPatcher::EdgeUpdate> updates;
    auto next = weights;
    const size_t update_count = rng.NextBounded(3 * n) + 1;
    for (size_t i = 0; i < update_count; ++i) {
      auto u = static_cast<int32_t>(rng.NextBounded(n));
      auto v = static_cast<int32_t>(rng.NextBounded(n));
      const uint64_t k = key(u, v);
      if (rng.NextBounded(2) == 0) std::swap(u, v);
      const uint64_t action = rng.NextBounded(4);
      if (action == 0) {
        updates.push_back({u, v, 0.0, true});
        next.erase(k);
      } else {
        const double w = action == 1 ? 0.0 : 0.25 + rng.NextDouble();
        updates.push_back({u, v, w, false});
        next[k] = w;
      }
    }
    auto patched = WeightedGraphPatcher::Apply(base, updates);
    ASSERT_TRUE(patched.ok()) << patched.status();
    ExpectGraphsIdentical(*patched, build(next));
  }
}

TEST(WeightedGraphPatcherTest, ValidatesUpdates) {
  WeightedGraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1, 2.0).ok());
  const WeightedGraph base = b.Build();
  EXPECT_EQ(WeightedGraphPatcher::Apply(base, {{0, 3, 1.0, false}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WeightedGraphPatcher::Apply(base, {{-1, 0, 1.0, false}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WeightedGraphPatcher::Apply(base, {{0, 1, -1.0, false}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Removing an absent edge is a no-op, not an error.
  auto same = WeightedGraphPatcher::Apply(base, {{1, 2, 0.0, true}});
  ASSERT_TRUE(same.ok());
  ExpectGraphsIdentical(*same, base);
}

// ---------------------------------------------------------------------------
// SlidingWindowGraph::DrainDirty contract.
// ---------------------------------------------------------------------------

CivilTime At(int day, int hour, int minute = 0) {
  return CivilTime::FromCalendar(2020, 1, day, hour, minute).ValueOrDie();
}

TripEvent Trip(int32_t from, int32_t to, CivilTime start, int64_t id = 1) {
  TripEvent e;
  e.rental_id = id;
  e.from_station = from;
  e.to_station = to;
  e.start_time = start;
  e.end_time = start.AddSeconds(600);
  return e;
}

TEST(WindowDirtyTrackingTest, FirstDrainArmsAndReportsIncomplete) {
  SlidingWindowGraph w({4, 7200});  // wide enough that nothing expires
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  WindowDirtySet first = w.DrainDirty();
  EXPECT_FALSE(first.complete);  // pre-arming changes were not tracked
  EXPECT_TRUE(first.pairs.empty());
  // Armed now: the next epoch records exactly what was touched.
  ASSERT_TRUE(w.Ingest(Trip(1, 2, At(6, 9))).ok());
  ASSERT_TRUE(w.Ingest(Trip(2, 1, At(6, 9, 5))).ok());
  WindowDirtySet second = w.DrainDirty();
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(1, 2)}));
  EXPECT_EQ(second.stations, (std::vector<int32_t>{1, 2}));
  // Nothing touched since: the next drain is complete and empty.
  WindowDirtySet third = w.DrainDirty();
  EXPECT_TRUE(third.complete);
  EXPECT_TRUE(third.pairs.empty());
  EXPECT_TRUE(third.stations.empty());
}

TEST(WindowDirtyTrackingTest, MarkIncompleteForcesOneFullDrain) {
  // The engine's freeze-failed path: the drained set is already gone, so
  // it poisons the next drain (one only) to force a full freeze.
  SlidingWindowGraph w({4, 0});
  (void)w.DrainDirty();  // arm
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  w.MarkDirtyTrackingIncomplete();
  EXPECT_FALSE(w.DrainDirty().complete);
  ASSERT_TRUE(w.Ingest(Trip(2, 3, At(6, 9))).ok());
  WindowDirtySet next = w.DrainDirty();
  EXPECT_TRUE(next.complete);
  EXPECT_EQ(next.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(2, 3)}));
}

TEST(WindowDirtyTrackingTest, ExpiryDirtiesTheRetiredPairs) {
  SlidingWindowGraph w({4, 1800});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  (void)w.DrainDirty();  // arm
  (void)w.DrainDirty();
  // Advancing far enough expires the (0, 1) trip: its pair and both
  // stations must be reported even though nothing was ingested.
  w.Advance(At(6, 12));
  EXPECT_EQ(w.trip_count(), 0u);
  WindowDirtySet dirty = w.DrainDirty();
  EXPECT_TRUE(dirty.complete);
  EXPECT_EQ(dirty.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1)}));
  EXPECT_EQ(dirty.stations, (std::vector<int32_t>{0, 1}));
}

TEST(WindowDirtyTrackingTest, PathologicalChurnOverflowsToIncomplete) {
  // Thousands of DISTINCT pairs created and expired within one epoch,
  // leaving the live set empty. Each pair is listed once, so with no
  // limit the drain is complete and holds exactly the churned pairs;
  // under a limit below the churn the epoch overflows, drains incomplete
  // (forcing a full freeze) and the next epoch tracks normally.
  const size_t n = 128;
  for (const size_t limit : {SIZE_MAX, size_t{4096}}) {
    SCOPED_TRACE(limit);
    SlidingWindowGraph w({n, 30});  // 30 s window, one event per minute
    (void)w.DrainDirty(limit);      // arm
    CivilTime t = At(6, 0);
    std::vector<uint64_t> churned;  // ascending: u, then v, ascending
    for (size_t u = 0; u < n && churned.size() < 6000; ++u) {
      for (size_t v = u; v < n && churned.size() < 6000; ++v) {
        const auto a = static_cast<int32_t>(u);
        const auto b = static_cast<int32_t>(v);
        ASSERT_TRUE(
            w.Ingest(Trip(a, b, t, static_cast<int64_t>(churned.size())))
                .ok());
        churned.push_back(SlidingWindowGraph::PairKey(a, b));
        t = t.AddSeconds(60);  // expires the previous pair immediately
      }
    }
    w.Advance(t.AddSeconds(3600));  // expire the last churn pair too
    EXPECT_EQ(w.pair_count(), 0u);
    const WindowDirtySet churn = w.DrainDirty(limit);
    if (limit == SIZE_MAX) {
      EXPECT_TRUE(churn.complete);
      EXPECT_EQ(churn.pairs, churned);
    } else {
      EXPECT_FALSE(churn.complete);
      EXPECT_TRUE(churn.pairs.empty());
    }
    ASSERT_TRUE(w.Ingest(Trip(0, 1, t)).ok());
    const WindowDirtySet next = w.DrainDirty(limit);
    EXPECT_TRUE(next.complete);
    EXPECT_EQ(next.pairs,
              (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1)}));
  }
}

TEST(WindowDirtyTrackingTest, PairRecreatedWithinAnEpochIsListedOnce) {
  // (0, 1) expires and is re-created within one epoch: with a limit of
  // 5 and 5 distinct pairs, the epoch drains complete with 5 keys.
  constexpr size_t kLimit = 5;
  SlidingWindowGraph w({8, 1800});
  (void)w.DrainDirty(kLimit);  // arm
  CivilTime t = At(6, 8);
  ASSERT_TRUE(w.Ingest(Trip(0, 1, t, 1)).ok());
  t = t.AddSeconds(3600);  // the next ingest expires (0, 1)
  int64_t id = 1;
  for (const int32_t v : {2, 3, 4, 5, 1}) {
    ASSERT_TRUE(w.Ingest(Trip(0, v, t, ++id)).ok());
    t = t.AddSeconds(60);
  }
  EXPECT_EQ(w.TripsBetween(0, 1), 1);
  EXPECT_EQ(w.dirty_pair_count(), kLimit);
  const WindowDirtySet drained = w.DrainDirty(kLimit);
  EXPECT_TRUE(drained.complete);
  std::vector<uint64_t> expected;
  for (const int32_t v : {1, 2, 3, 4, 5}) {
    expected.push_back(SlidingWindowGraph::PairKey(0, v));
  }
  EXPECT_EQ(drained.pairs, expected);
  EXPECT_EQ(drained.stations, (std::vector<int32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(WindowDirtyTrackingTest, PairListedInAnIncompleteEpochIsListedAgain) {
  // The listed flags are cleared at every drain, complete or not: a pair
  // and its stations listed in an epoch that overflowed, or that was
  // marked incomplete, are listed again when the next epoch touches them.
  constexpr size_t kLimit = 2;
  SlidingWindowGraph w({8, 0});
  (void)w.DrainDirty(kLimit);  // arm
  CivilTime t = At(6, 8);
  int64_t id = 0;
  const auto ingest = [&](int32_t u, int32_t v) {
    t = t.AddSeconds(60);
    ASSERT_TRUE(w.Ingest(Trip(u, v, t, ++id)).ok());
  };
  const auto expect_only_0_1 = [&](const WindowDirtySet& set) {
    EXPECT_TRUE(set.complete);
    EXPECT_EQ(set.pairs,
              (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1)}));
    EXPECT_EQ(set.stations, (std::vector<int32_t>{0, 1}));
  };
  ingest(0, 1);
  ingest(2, 3);
  ingest(4, 5);  // the third pair overflows the epoch
  EXPECT_FALSE(w.DrainDirty(kLimit).complete);
  ingest(0, 1);
  expect_only_0_1(w.DrainDirty(kLimit));

  ingest(0, 1);
  w.MarkDirtyTrackingIncomplete();
  EXPECT_FALSE(w.DrainDirty(kLimit).complete);
  ingest(0, 1);
  expect_only_0_1(w.DrainDirty(kLimit));
}

TEST(WindowDirtyTrackingTest, LimitBoundsTheEpochExactly) {
  // The engine hands each drain the next epoch's delta cut-off. An epoch
  // that lists exactly that many distinct pairs drains complete; one
  // pair more overflows, drains incomplete and empty, and the epoch
  // after it tracks normally again.
  constexpr int32_t kLimit = 5;
  SlidingWindowGraph w({8, 0});
  (void)w.DrainDirty(kLimit);  // arm
  CivilTime t = At(6, 8);
  int64_t id = 0;
  const auto ingest = [&](int32_t u, int32_t v) {
    t = t.AddSeconds(60);
    ASSERT_TRUE(w.Ingest(Trip(u, v, t, ++id)).ok());
  };
  // kLimit distinct pairs, listed in descending key order, one of them
  // twice: the drain returns them sorted and deduplicated.
  std::vector<uint64_t> expected;
  for (int32_t u = kLimit - 1; u >= 0; --u) {
    ingest(u, 7);
    expected.push_back(SlidingWindowGraph::PairKey(u, 7));
  }
  ingest(7, 2);
  EXPECT_EQ(w.dirty_pair_count(), static_cast<size_t>(kLimit));
  std::sort(expected.begin(), expected.end());
  const WindowDirtySet at_limit = w.DrainDirty(kLimit);
  EXPECT_TRUE(at_limit.complete);
  EXPECT_EQ(at_limit.pairs, expected);
  EXPECT_EQ(at_limit.stations, (std::vector<int32_t>{0, 1, 2, 3, 4, 7}));

  for (int32_t u = 0; u <= kLimit; ++u) ingest(u, 6);
  EXPECT_EQ(w.dirty_pair_count(), static_cast<size_t>(kLimit));
  const WindowDirtySet over = w.DrainDirty(kLimit);
  EXPECT_FALSE(over.complete);
  EXPECT_TRUE(over.pairs.empty());
  EXPECT_TRUE(over.stations.empty());

  ingest(2, 3);
  ingest(0, 1);
  const WindowDirtySet next = w.DrainDirty(kLimit);
  EXPECT_TRUE(next.complete);
  EXPECT_EQ(next.pairs,
            (std::vector<uint64_t>{SlidingWindowGraph::PairKey(0, 1),
                                   SlidingWindowGraph::PairKey(2, 3)}));
  EXPECT_EQ(next.stations, (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(WindowBoundTest, PastTheBoundEveryEntryPointRefuses) {
  // One station past the bound: the window allocates no pair triangle,
  // and every call that would read or write one refuses, naming it.
  SlidingWindowGraph w({kMaxWindowStations + 1, 0});
  const auto expect_refused = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("kMaxWindowStations (4096)"),
              std::string::npos)
        << status.ToString();
  };
  expect_refused(w.Ingest(Trip(0, 1, At(6, 8))));
  expect_refused(w.RestoreState(WindowGraphState{}));
  expect_refused(FreezeSnapshot(w).status());
  SlidingWindowGraph small({4, 0});
  const WindowSnapshot previous = FreezeSnapshot(small).ValueOrDie();
  expect_refused(FreezeSnapshotDelta(w, previous, w.DrainDirty()).status());
  EXPECT_EQ(w.trip_count(), 0u);
  EXPECT_EQ(w.TripsBetween(0, 1), 0);
  EXPECT_EQ(w.EndpointCount(static_cast<int32_t>(kMaxWindowStations)), 0);
}

TEST(MaxDeltaDirtyPairsTest, IsTheFloorOfTheDeltaCutOff) {
  SnapshotDeltaPolicy policy;  // max_dirty_fraction 0.25
  EXPECT_EQ(MaxDeltaDirtyPairs(policy, 0), 0u);
  EXPECT_EQ(MaxDeltaDirtyPairs(policy, 3), 1u);
  EXPECT_EQ(MaxDeltaDirtyPairs(policy, 5215), 1304u);
  policy.max_dirty_fraction = 1e15;
  EXPECT_EQ(MaxDeltaDirtyPairs(policy, 99), 100000000000000000u);
  // Cut-offs no size_t reaches, and NaN (FreezeSnapshotDelta's test
  // never fires on it), set no limit.
  policy.max_dirty_fraction = 1e18;
  EXPECT_EQ(MaxDeltaDirtyPairs(policy, 100), SIZE_MAX);
  policy.max_dirty_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MaxDeltaDirtyPairs(policy, 100), SIZE_MAX);
  policy.max_dirty_fraction = -1.0;
  EXPECT_EQ(MaxDeltaDirtyPairs(policy, 100), 0u);
}

// ---------------------------------------------------------------------------
// Delta vs full freeze: bit identity across randomized epoch chains.
// ---------------------------------------------------------------------------

void ExpectSnapshotsIdentical(const WindowSnapshot& a,
                              const WindowSnapshot& b) {
  EXPECT_EQ(a.window_start, b.window_start);
  EXPECT_EQ(a.window_end, b.window_end);
  EXPECT_EQ(a.trip_count, b.trip_count);
  EXPECT_EQ(a.profiles.day, b.profiles.day);
  EXPECT_EQ(a.profiles.hour, b.profiles.hour);
  ExpectGraphsIdentical(a.graph, b.graph);
}

/// Chains FreezeSnapshotDelta across `epochs` randomized epochs (each
/// the previous delta's output — so patching errors would compound) and
/// checks every epoch against an independent full freeze, bit for bit.
/// The stream is routed over `shard_count` windows the way the engine
/// routes it (ShardRouter), aligned to the union watermark and drained
/// together before each delta freeze of all of them; the reference is
/// the full freeze of one window that ingested the union stream.
void RunRandomizedEpochChain(const analysis::TemporalGraphOptions& projection,
                             int epochs, uint64_t seed,
                             int64_t window_seconds, size_t shard_count) {
  SCOPED_TRACE(std::to_string(shard_count) + " shard(s)");
  Rng rng(seed);
  const size_t stations = 16;
  const WindowGraphOptions options{stations, window_seconds};
  const ShardRouter router(shard_count);
  SlidingWindowGraph whole(options);
  std::vector<SlidingWindowGraph> shards(shard_count,
                                         SlidingWindowGraph(options));
  std::vector<SlidingWindowGraph*> parts;
  for (SlidingWindowGraph& shard : shards) parts.push_back(&shard);
  SnapshotDeltaPolicy force_delta;
  force_delta.max_dirty_fraction = 1e18;  // never fall back on size

  CivilTime t = At(6, 0);
  int64_t id = 0;
  (void)SlidingWindowGraph::DrainDirty(parts, SIZE_MAX, SIZE_MAX);  // arm
  WindowSnapshot previous = FreezeSnapshot(parts, projection).ValueOrDie();
  size_t delta_epochs = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const uint64_t events = rng.NextBounded(12);
    for (uint64_t i = 0; i < events; ++i) {
      t = t.AddSeconds(static_cast<int64_t>(rng.NextBounded(180)));
      const TripEvent trip =
          Trip(static_cast<int32_t>(rng.NextBounded(stations)),
               static_cast<int32_t>(rng.NextBounded(stations)), t, ++id);
      ASSERT_TRUE(whole.Ingest(trip).ok());
      ASSERT_TRUE(
          shards[router.OwnerOfPair(trip.from_station, trip.to_station)]
              .Ingest(trip)
              .ok());
    }
    if (rng.NextBounded(8) == 0) {
      t = t.AddSeconds(static_cast<int64_t>(rng.NextBounded(7200)));
      whole.Advance(t);  // expiry without ingestion
    }
    // The engine's phase-2 barrier: every shard at the union watermark.
    for (SlidingWindowGraph& shard : shards) shard.Advance(whole.watermark());
    const WindowDirtySet dirty =
        SlidingWindowGraph::DrainDirty(parts, SIZE_MAX, SIZE_MAX);
    bool used_delta = false;
    auto delta = FreezeSnapshotDelta(parts, previous, dirty, projection,
                                     nullptr, force_delta, &used_delta);
    ASSERT_TRUE(delta.ok()) << delta.status();
    if (used_delta) ++delta_epochs;
    auto full = FreezeSnapshot(whole, projection);
    ASSERT_TRUE(full.ok());
    ExpectSnapshotsIdentical(*delta, *full);
    previous = std::move(*delta);
  }
  // The chain must actually exercise the patch path, not the fallback.
  EXPECT_GT(delta_epochs, static_cast<size_t>(epochs) * 9 / 10)
      << "delta fallback dominated; the test lost its teeth";
}

TEST(SnapshotDeltaTest, ThousandEpochBitIdentityGBasic) {
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    RunRandomizedEpochChain({}, 1000, 101, /*window_seconds=*/1800, shards);
  }
}

TEST(SnapshotDeltaTest, ThousandEpochBitIdentityGDay) {
  analysis::TemporalGraphOptions projection;
  projection.granularity = analysis::TemporalGranularity::kDay;
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    RunRandomizedEpochChain(projection, 1000, 202, /*window_seconds=*/1800,
                            shards);
  }
}

TEST(SnapshotDeltaTest, EpochChainBitIdentityGHourLandmark) {
  analysis::TemporalGraphOptions projection;
  projection.granularity = analysis::TemporalGranularity::kHour;
  projection.similarity_floor = 0.2;
  projection.contrast = 2.0;
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    RunRandomizedEpochChain(projection, 300, 303, /*window_seconds=*/0,
                            shards);
  }
}

TEST(SnapshotDeltaTest, FallsBackWithoutPreviousCompatibleSnapshot) {
  SlidingWindowGraph window({4, 0});
  ASSERT_TRUE(window.Ingest(Trip(0, 1, At(6, 8))).ok());
  // Incomplete dirty set (tracking not yet armed) -> full freeze.
  WindowDirtySet dirty = window.DrainDirty();
  ASSERT_FALSE(dirty.complete);
  WindowSnapshot prev = FreezeSnapshot(window).ValueOrDie();
  bool used_delta = true;
  auto snap = FreezeSnapshotDelta(window, prev, dirty, {}, nullptr, {},
                                  &used_delta);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(used_delta);
  ExpectSnapshotsIdentical(*snap, prev);

  // Projection mismatch against the previous epoch -> full freeze.
  ASSERT_TRUE(window.Ingest(Trip(1, 2, At(6, 9))).ok());
  dirty = window.DrainDirty();
  ASSERT_TRUE(dirty.complete);
  analysis::TemporalGraphOptions day;
  day.granularity = analysis::TemporalGranularity::kDay;
  auto mismatched = FreezeSnapshotDelta(window, prev, dirty, day, nullptr,
                                        {}, &used_delta);
  ASSERT_TRUE(mismatched.ok());
  EXPECT_FALSE(used_delta);
  auto full = FreezeSnapshot(window, day);
  ASSERT_TRUE(full.ok());
  ExpectSnapshotsIdentical(*mismatched, *full);
}

TEST(SnapshotDeltaTest, LargeDirtyFractionFallsBackAndStaysCorrect) {
  SlidingWindowGraph window({8, 0});
  ASSERT_TRUE(window.Ingest(Trip(0, 1, At(6, 8), 1)).ok());
  (void)window.DrainDirty();
  WindowSnapshot prev = FreezeSnapshot(window).ValueOrDie();
  // Touch many new pairs: far beyond the default 25% dirty budget of a
  // 1-edge base graph.
  CivilTime t = At(6, 9);
  for (int32_t u = 0; u < 8; ++u) {
    for (int32_t v = u; v < 8; ++v) {
      ASSERT_TRUE(window.Ingest(Trip(u, v, t, 10 + u * 8 + v)).ok());
      t = t.AddSeconds(10);
    }
  }
  const WindowDirtySet dirty = window.DrainDirty();
  bool used_delta = true;
  auto snap =
      FreezeSnapshotDelta(window, prev, dirty, {}, nullptr, {}, &used_delta);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(used_delta);  // the policy chose the full rebuild
  auto full = FreezeSnapshot(window);
  ASSERT_TRUE(full.ok());
  ExpectSnapshotsIdentical(*snap, *full);
}

// ---------------------------------------------------------------------------
// Engine wiring: delta-frozen epochs match an engine whose zero dirty
// fraction refuses every patch.
// ---------------------------------------------------------------------------

TEST(SnapshotDeltaTest, EngineDeltaEpochsMatchFullFreezeEngine) {
  const size_t stations = 24;
  const auto events = testing::PlantedStream(stations, 3, 6, 500, 11);

  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 2 * 86400;
  StreamEngine delta_engine(config);
  config.snapshot_delta.max_dirty_fraction = 0;
  StreamEngine full_engine(config);

  size_t count = 0;
  for (const TripEvent& e : events) {
    ASSERT_TRUE(delta_engine.Ingest(e).ok());
    ASSERT_TRUE(full_engine.Ingest(e).ok());
    if (++count % 31 == 0) {
      auto ds = delta_engine.Snapshot();
      auto fs = full_engine.Snapshot();
      ASSERT_TRUE(ds.ok());
      ASSERT_TRUE(fs.ok());
      ExpectSnapshotsIdentical(**ds, **fs);
    }
  }
  EXPECT_GT(delta_engine.delta_freeze_count(), 0u);
  EXPECT_EQ(full_engine.delta_freeze_count(), 0u);
  EXPECT_GT(full_engine.full_freeze_count(), 0u);
  // Unchanged window: Snapshot() reuses the epoch, no freeze of either
  // kind.
  const uint64_t deltas = delta_engine.delta_freeze_count();
  const uint64_t fulls = delta_engine.full_freeze_count();
  auto first = delta_engine.Snapshot();
  auto second = delta_engine.Snapshot();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(delta_engine.delta_freeze_count() +
                delta_engine.full_freeze_count(),
            deltas + fulls + 1);
}

TEST(SnapshotDeltaTest, ShardedEngineDeltaEpochsMatchSingleWriterFull) {
  // The sharded composition of both machineries: a 3-shard engine
  // freezing through merged dirty sets and the copy-on-write patcher
  // must stay bit-identical to a single-writer engine that full-rebuilds
  // every epoch, across a chain of mid-stream epochs.
  const size_t stations = 24;
  const auto events = testing::PlantedStream(stations, 3, 6, 500, 11);

  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 2 * 86400;
  config.shard_count = 3;
  StreamEngine sharded_delta(config);
  config.shard_count = 1;
  config.snapshot_delta.max_dirty_fraction = 0;
  StreamEngine single_full(config);

  size_t count = 0;
  for (const TripEvent& e : events) {
    ASSERT_TRUE(sharded_delta.Ingest(e).ok());
    ASSERT_TRUE(single_full.Ingest(e).ok());
    if (++count % 31 == 0) {
      auto ss = sharded_delta.Snapshot();
      auto fs = single_full.Snapshot();
      ASSERT_TRUE(ss.ok());
      ASSERT_TRUE(fs.ok());
      ExpectSnapshotsIdentical(**ss, **fs);
    }
  }
  // The merged dirty sets really drove the patch path (first freeze and
  // any large epochs aside).
  EXPECT_GT(sharded_delta.delta_freeze_count(), 0u);
  EXPECT_EQ(single_full.delta_freeze_count(), 0u);
}

TEST(SnapshotDeltaTest, DirtyLimitNeverTouchesAnEpochTheDeltaPathTakes) {
  // Snapshots alternate day-sized epochs, which dirty far more pairs
  // than the default cut-off and stop tracking at it, with small epochs
  // of a few trips. The default-policy engines, single-writer and
  // sharded, publish what a full-freeze engine publishes, and every
  // small epoch, and only those, is delta-frozen.
  const size_t stations = 24;
  constexpr int kTripsPerDay = 400;
  constexpr size_t kSmallEpoch = 4;
  const auto events = testing::PlantedStream(stations, 3, 8, kTripsPerDay, 5);

  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 2 * 86400;
  config.snapshot_delta.max_dirty_fraction = 0;
  StreamEngine full_engine(config);
  config.snapshot_delta = SnapshotDeltaPolicy{};
  StreamEngine single(config);
  config.shard_count = 3;
  StreamEngine sharded(config);

  size_t small_epochs = 0;
  size_t day_epochs = 0;
  size_t in_epoch = 0;
  bool small = false;
  for (const TripEvent& e : events) {
    ASSERT_TRUE(full_engine.Ingest(e).ok());
    ASSERT_TRUE(single.Ingest(e).ok());
    ASSERT_TRUE(sharded.Ingest(e).ok());
    if (++in_epoch < (small ? kSmallEpoch : size_t{kTripsPerDay})) continue;
    auto fs = full_engine.Snapshot();
    auto ss = single.Snapshot();
    auto hs = sharded.Snapshot();
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(ss.ok());
    ASSERT_TRUE(hs.ok());
    ExpectSnapshotsIdentical(**ss, **fs);
    ExpectSnapshotsIdentical(**hs, **fs);
    ++(small ? small_epochs : day_epochs);
    small = !small;
    in_epoch = 0;
  }
  ASSERT_GE(small_epochs, 5u);
  EXPECT_EQ(single.delta_freeze_count(), small_epochs);
  EXPECT_EQ(single.full_freeze_count(), day_epochs);
  EXPECT_EQ(sharded.delta_freeze_count(), small_epochs);
  EXPECT_EQ(sharded.full_freeze_count(), day_epochs);
}

}  // namespace
}  // namespace bikegraph::stream
