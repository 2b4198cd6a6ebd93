// SlidingWindowGraph: ingest/expiry delta bookkeeping, the expiry ring,
// and the window-profile edge cases the streaming path hits
// (zero-activity stations, single-trip windows, profiles that empty out
// on expiry).

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/civil_time.h"
#include "core/rng.h"
#include "stream/snapshot.h"
#include "stream/window_graph.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::stream {

/// Test-only backdoor (befriended by SlidingWindowGraph): forges the
/// desync the ApplyDelta guard defends against — an expiry reversal for a
/// pair with no live trip — which the public API cannot produce.
struct WindowGraphTestPeer {
  static void ForceReverseUnknownPair(SlidingWindowGraph* w) {
    SlidingWindowGraph::RingEntry entry;
    entry.start_seconds = 0;
    entry.from = 0;
    entry.to = 1;
    entry.day = 0;
    entry.hour = 0;
    w->ApplyDelta(entry, -1);
  }
};

namespace {

CivilTime At(int day, int hour, int minute = 0) {
  // Jan 2020; 2020-01-06 is a Monday, so `day` 6 = Monday.
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

TEST(SlidingWindowGraphTest, IngestAppliesDeltas) {
  SlidingWindowGraph w({/*station_count=*/4, /*window_seconds=*/86400});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());   // Monday 08:00
  ASSERT_TRUE(w.Ingest(Trip(1, 0, At(6, 9))).ok());
  ASSERT_TRUE(w.Ingest(Trip(2, 2, At(6, 13))).ok());  // loop trip

  EXPECT_EQ(w.trip_count(), 3u);
  EXPECT_EQ(w.TripsBetween(0, 1), 2);
  EXPECT_EQ(w.TripsBetween(1, 0), 2);  // unordered
  EXPECT_EQ(w.TripsBetween(2, 2), 1);
  EXPECT_EQ(w.TripsBetween(0, 2), 0);
  // An id outside [0, station_count), in either position, holds no trips.
  for (const auto& [u, v] : std::vector<std::pair<int32_t, int32_t>>{
           {-1, 0}, {0, -1}, {-1, -1}, {0, 4}, {4, 0}, {4, 4}, {3, 4},
           {INT32_MIN, 2}, {2, INT32_MAX}}) {
    EXPECT_EQ(w.TripsBetween(u, v), 0) << u << "," << v;
  }
  // Monday = day 0; both endpoints counted, loops twice.
  EXPECT_EQ(w.DayCounts(0)[0], 2);
  EXPECT_EQ(w.HourCounts(0)[8], 1);
  EXPECT_EQ(w.HourCounts(0)[9], 1);
  EXPECT_EQ(w.DayCounts(2)[0], 2);
  EXPECT_EQ(w.HourCounts(2)[13], 2);
  EXPECT_EQ(w.EndpointCount(2), 2);
  // Station 3 never traded: zero activity.
  EXPECT_EQ(w.EndpointCount(3), 0);
}

TEST(SlidingWindowGraphTest, RejectsBadEvents) {
  // A negative window is a misconfiguration, not a landmark window.
  SlidingWindowGraph negative({2, -3600});
  EXPECT_FALSE(negative.Ingest(Trip(0, 1, At(6, 8))).ok());

  SlidingWindowGraph w({2, 3600});
  EXPECT_FALSE(w.Ingest(Trip(-1, 0, At(6, 8))).ok());
  EXPECT_FALSE(w.Ingest(Trip(0, 2, At(6, 8))).ok());
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 9))).ok());
  // Time regression: the stream must be ordered by start time.
  EXPECT_FALSE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  // Equal timestamps are fine.
  EXPECT_TRUE(w.Ingest(Trip(1, 0, At(6, 9))).ok());
}

TEST(SlidingWindowGraphTest, WindowAtTheStationBoundIndexesItsLastPair) {
  const auto last = static_cast<int32_t>(kMaxWindowStations - 1);
  SlidingWindowGraph w({kMaxWindowStations, 0});
  ASSERT_TRUE(w.Ingest(Trip(last, last, At(6, 8))).ok());
  ASSERT_TRUE(w.Ingest(Trip(last - 1, last, At(6, 9))).ok());
  ASSERT_TRUE(w.Ingest(Trip(0, last, At(6, 10))).ok());
  EXPECT_EQ(w.TripsBetween(last, last), 1);
  EXPECT_EQ(w.TripsBetween(last, last - 1), 1);
  const std::vector<std::array<int64_t, 3>> expected = {
      {0, last, 1}, {last - 1, last, 1}, {last, last, 1}};
  std::vector<std::array<int64_t, 3>> seen;
  w.ForEachPair([&](int32_t u, int32_t v, int64_t trips) {
    seen.push_back({u, v, trips});
  });
  EXPECT_EQ(seen, expected);
}

TEST(SlidingWindowGraphTest, SingleTripWindowEmptiesOnExpiry) {
  SlidingWindowGraph w({3, /*window_seconds=*/3600});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  EXPECT_EQ(w.trip_count(), 1u);
  EXPECT_EQ(w.pair_count(), 1u);

  // Advance just inside the window: the trip survives.
  w.Advance(At(6, 8).AddSeconds(3599));
  EXPECT_EQ(w.trip_count(), 1u);
  // The boundary is inclusive of the window: at exactly start + window
  // the trip has fallen out of (watermark - window, watermark].
  w.Advance(At(6, 9));
  EXPECT_EQ(w.trip_count(), 0u);
  EXPECT_EQ(w.pair_count(), 0u);
  EXPECT_EQ(w.TripsBetween(0, 1), 0);
  // Profiles emptied out with it — no floating-point residue.
  for (int d = 0; d < 7; ++d) {
    EXPECT_EQ(w.DayCounts(0)[AsIndex(d)], 0);
    EXPECT_EQ(w.DayCounts(1)[AsIndex(d)], 0);
  }
  for (int h = 0; h < 24; ++h) EXPECT_EQ(w.HourCounts(0)[AsIndex(h)], 0);
  EXPECT_EQ(w.EndpointCount(0), 0);
  // Monotonic counters keep the history.
  EXPECT_EQ(w.ingested_count(), 1u);
  EXPECT_EQ(w.expired_count(), 1u);
}

TEST(SlidingWindowGraphTest, AdvanceNeverBlocksLaggingIngest) {
  // Live pattern: the caller advances to wall-clock time during a lull;
  // the next trip to arrive *ends* now but *started* earlier. Ordering
  // is only enforced between events, not against the advanced watermark.
  SlidingWindowGraph w({2, /*window_seconds=*/3600});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  w.Advance(At(6, 10));  // quiet stream: 08:00 trip expired
  EXPECT_EQ(w.trip_count(), 0u);

  // A trip that started at 09:40 (before the 10:00 watermark) ingests
  // fine and is live: it is inside (09:00, 10:00].
  ASSERT_TRUE(w.Ingest(Trip(1, 0, At(6, 9, 40))).ok());
  EXPECT_EQ(w.trip_count(), 1u);
  EXPECT_EQ(w.watermark(), At(6, 10));  // watermark never goes backwards

  // A straggler entirely outside the window is accepted and immediately
  // retired — counters stay consistent, nothing lingers.
  w.Advance(At(6, 12));
  ASSERT_TRUE(w.Ingest(Trip(0, 0, At(6, 10, 30))).ok());
  EXPECT_EQ(w.trip_count(), 0u);
  EXPECT_EQ(w.TripsBetween(0, 0), 0);
  EXPECT_EQ(w.EndpointCount(0), 0);
  // Events must still be ordered among themselves.
  EXPECT_FALSE(w.Ingest(Trip(0, 1, At(6, 10))).ok());
}

// Satellite regression (PR 4): the window is the half-open interval
// (watermark - W, watermark] and window_start() is its *exclusive* lower
// bound — an event starting exactly there is already outside. Locked at
// the cutoff and one second to either side.
TEST(SlidingWindowGraphTest, WindowBoundaryIsHalfOpenAtTheCutoff) {
  const int64_t window = 3600;
  const CivilTime mark = At(6, 12);
  const CivilTime cutoff = mark.AddSeconds(-window);
  struct Case {
    int64_t offset;
    bool inside;
  };
  for (const Case& c :
       {Case{-1, false}, Case{0, false}, Case{1, true}}) {
    SlidingWindowGraph w({2, window});
    w.Advance(mark);
    EXPECT_EQ(w.window_start(), cutoff);
    const CivilTime start = cutoff.AddSeconds(c.offset);
    ASSERT_TRUE(w.Ingest(Trip(0, 1, start)).ok()) << c.offset;
    EXPECT_EQ(w.trip_count(), c.inside ? 1u : 0u) << c.offset;
    EXPECT_EQ(w.Contains(start), c.inside) << c.offset;
    EXPECT_EQ(w.EndpointCount(0), c.inside ? 1 : 0) << c.offset;
  }
}

TEST(SlidingWindowGraphTest, ContainsMatchesTheWindowInterval) {
  SlidingWindowGraph w({2, 3600});
  // Before any event or Advance there is no window at all.
  EXPECT_FALSE(w.Contains(At(6, 8)));
  w.Advance(At(6, 12));
  EXPECT_FALSE(w.Contains(w.window_start()));              // exclusive
  EXPECT_TRUE(w.Contains(w.window_start().AddSeconds(1)))  // first inside
      << "window must include the instant after its exclusive start";
  EXPECT_TRUE(w.Contains(w.watermark()));                  // inclusive
  EXPECT_FALSE(w.Contains(w.watermark().AddSeconds(1)));

  // Landmark windows contain all of the past, none of the future.
  SlidingWindowGraph landmark({2, 0});
  ASSERT_TRUE(landmark.Ingest(Trip(0, 1, At(6, 8))).ok());
  EXPECT_TRUE(landmark.Contains(At(1, 0)));
  EXPECT_TRUE(landmark.Contains(At(6, 8)));
  EXPECT_FALSE(landmark.Contains(At(6, 9)));
}

// Satellite regression (PR 4): a negative-delta reversal for a pair the
// map has no record of must be a loud skip (counted, state untouched),
// not a dereference of end() — pre-guard this was undefined behaviour
// that ASan flagged as a container-overflow.
TEST(SlidingWindowGraphTest, ExpiryDesyncIsLoudNotSilentCorruption) {
  SlidingWindowGraph w({2, 3600});
  EXPECT_EQ(w.delta_desync_count(), 0u);
#ifdef NDEBUG
  WindowGraphTestPeer::ForceReverseUnknownPair(&w);
  EXPECT_EQ(w.delta_desync_count(), 1u);
  // The skipped reversal touched nothing: no phantom negative counts.
  EXPECT_EQ(w.TripsBetween(0, 1), 0);
  EXPECT_EQ(w.EndpointCount(0), 0);
  EXPECT_EQ(w.EndpointCount(1), 0);
  EXPECT_EQ(w.pair_count(), 0u);
#else
  // With assertions enabled the guard aborts instead, which is just as
  // loud.
  EXPECT_DEATH(WindowGraphTestPeer::ForceReverseUnknownPair(&w),
               "unknown station pair");
#endif
  // A healthy ingest/expiry cycle never trips the guard.
  SlidingWindowGraph healthy({3, 1800});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        healthy.Ingest(Trip(i % 3, (i + 1) % 3, At(6, 8).AddSeconds(i * 120),
                            i))
            .ok());
  }
  EXPECT_EQ(healthy.delta_desync_count(), 0u);
}

TEST(SlidingWindowGraphTest, LandmarkWindowNeverExpires) {
  SlidingWindowGraph w({2, /*window_seconds=*/0});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  w.Advance(At(20, 23));  // two weeks later
  ASSERT_TRUE(w.Ingest(Trip(1, 0, At(20, 23))).ok());
  EXPECT_EQ(w.trip_count(), 2u);
  EXPECT_EQ(w.TripsBetween(0, 1), 2);
  EXPECT_EQ(w.window_start().seconds_since_epoch(), INT64_MIN);
}

TEST(SlidingWindowGraphTest, ProfilesMatchCountersAndZeroActivity) {
  SlidingWindowGraph w({3, 86400});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 17))).ok());
  const auto frozen = FreezeSnapshot(w);
  ASSERT_TRUE(frozen.ok());
  const analysis::StationProfiles& p = frozen->profiles;
  ASSERT_EQ(p.day.size(), 3u);
  EXPECT_DOUBLE_EQ(p.day[0][0], 2.0);
  EXPECT_DOUBLE_EQ(p.hour[1][8], 1.0);
  EXPECT_DOUBLE_EQ(p.hour[1][17], 1.0);
  // Zero-activity station: all-zero profile, and the similarity
  // convention treats it as "no evidence of dissimilarity".
  for (int d = 0; d < 7; ++d) EXPECT_DOUBLE_EQ(p.day[2][AsIndex(d)], 0.0);
  EXPECT_DOUBLE_EQ(
      p.Similarity(2, 0, analysis::TemporalGranularity::kDay), 1.0);
  EXPECT_DOUBLE_EQ(
      p.Similarity(2, 2, analysis::TemporalGranularity::kHour), 1.0);
}

TEST(SlidingWindowGraphTest, ForEachPairIsSortedAndComplete) {
  SlidingWindowGraph w({5, 0});
  ASSERT_TRUE(w.Ingest(Trip(3, 1, At(6, 8))).ok());
  ASSERT_TRUE(w.Ingest(Trip(0, 4, At(6, 9))).ok());
  ASSERT_TRUE(w.Ingest(Trip(1, 3, At(6, 10))).ok());
  ASSERT_TRUE(w.Ingest(Trip(2, 2, At(6, 11))).ok());

  std::vector<std::array<int64_t, 3>> seen;
  w.ForEachPair([&](int32_t u, int32_t v, int64_t trips) {
    seen.push_back({u, v, trips});
  });
  const std::vector<std::array<int64_t, 3>> expected = {
      {0, 4, 1}, {1, 3, 2}, {2, 2, 1}};
  EXPECT_EQ(seen, expected);
}

// Drive many ingest/expiry cycles through a tiny ring and check the live
// state against a brute-force recomputation — the ring re-linearisation
// and delta reversal can't drift.
TEST(SlidingWindowGraphTest, RandomisedStreamMatchesBruteForce) {
  const int64_t window = 1800;
  const size_t stations = 6;
  SlidingWindowGraph w({stations, window});
  Rng rng(42);
  std::vector<TripEvent> all;
  CivilTime t = At(6, 0);
  for (int i = 0; i < 2000; ++i) {
    t = t.AddSeconds(static_cast<int64_t>(rng.NextBounded(120)));
    TripEvent e = Trip(static_cast<int32_t>(rng.NextBounded(stations)),
                       static_cast<int32_t>(rng.NextBounded(stations)), t,
                       i);
    all.push_back(e);
    ASSERT_TRUE(w.Ingest(e).ok());
  }
  // Brute force: trips with start in (t - window, t].
  const int64_t cutoff = t.seconds_since_epoch() - window;
  std::vector<std::vector<int64_t>> counts(stations,
                                           std::vector<int64_t>(stations, 0));
  std::vector<std::array<int64_t, 24>> hours(stations);
  for (auto& h : hours) h.fill(0);
  size_t live = 0;
  for (const TripEvent& e : all) {
    if (e.start_time.seconds_since_epoch() <= cutoff) continue;
    ++live;
    int32_t u = std::min(e.from_station, e.to_station);
    int32_t v = std::max(e.from_station, e.to_station);
    counts[AsIndex(u)][AsIndex(v)] += 1;
    hours[AsIndex(e.from_station)][AsIndex(e.hour())] += 1;
    hours[AsIndex(e.to_station)][AsIndex(e.hour())] += 1;
  }
  EXPECT_EQ(w.trip_count(), live);
  // 2000 ingest/expiry cycles through a tiny ring: the ring and pair map
  // never desynced (the ApplyDelta guard stayed silent).
  EXPECT_EQ(w.delta_desync_count(), 0u);
  for (size_t u = 0; u < stations; ++u) {
    for (size_t v = u; v < stations; ++v) {
      EXPECT_EQ(w.TripsBetween(static_cast<int32_t>(u),
                               static_cast<int32_t>(v)),
                counts[u][v])
          << u << "," << v;
    }
    EXPECT_EQ(w.HourCounts(static_cast<int32_t>(u)),
              hours[u]);
  }
}

// Satellite regression (PR 7): PairState::trips is int32_t, but a
// checkpointed landmark state carries int64_t counts. Pre-fix, restore
// narrowed with a bare static_cast, so a corrupt count of 2^32 + 1 came
// back as 1 trip — silently. It must be rejected as DataLoss instead.
TEST(SlidingWindowGraphTest, RestoreRejectsPairCountOverflowingInt32) {
  SlidingWindowGraph w({2, /*window_seconds=*/0});
  ASSERT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  WindowGraphState state = w.ExportState();
  ASSERT_EQ(state.pairs.size(), 1u);

  // Round trip of the untampered state still works.
  SlidingWindowGraph restored({2, 0});
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.TripsBetween(0, 1), 1);

  state.pairs[0].second = (int64_t{1} << 32) + 1;  // truncates to 1
  SlidingWindowGraph tampered({2, 0});
  const Status status = tampered.RestoreState(state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// A landmark state over 3 stations: trips (0, 1) twice and (1, 2)
// once, so pairs {(0, 1): 2, (1, 2): 1}, live_count 3 and endpoint
// counts {2, 3, 1}.
WindowGraphState LandmarkState() {
  SlidingWindowGraph w({3, /*window_seconds=*/0});
  EXPECT_TRUE(w.Ingest(Trip(0, 1, At(6, 8))).ok());
  EXPECT_TRUE(w.Ingest(Trip(1, 0, At(6, 9))).ok());
  EXPECT_TRUE(w.Ingest(Trip(1, 2, At(6, 10))).ok());
  return w.ExportState();
}

StatusCode RestoreCode(const WindowGraphState& state) {
  SlidingWindowGraph w({3, 0});
  return w.RestoreState(state).code();
}

// Satellite regression: each corrupted landmark state below used to
// restore OK. Each one keeps every other check satisfied, so the check
// under test is the only one that can reject it.
TEST(SlidingWindowGraphTest, RestoreAcceptsConsistentLandmarkState) {
  const WindowGraphState state = LandmarkState();
  ASSERT_EQ(state.pairs.size(), 2u);
  ASSERT_EQ(state.live_count, 3u);
  SlidingWindowGraph w({3, 0});
  ASSERT_TRUE(w.RestoreState(state).ok());
  EXPECT_EQ(w.TripsBetween(0, 1), 2);
  EXPECT_EQ(w.TripsBetween(1, 2), 1);
  EXPECT_EQ(w.trip_count(), 3u);
}

TEST(SlidingWindowGraphTest, RestoreRejectsRepeatedPairKey) {
  WindowGraphState state = LandmarkState();
  // (0, 1) twice with one trip each: the trip total is unchanged, but
  // the parent kept the last count and lost a trip.
  state.pairs = {{state.pairs[0].first, 1},
                 {state.pairs[0].first, 1},
                 state.pairs[1]};
  EXPECT_EQ(RestoreCode(state), StatusCode::kDataLoss);
}

TEST(SlidingWindowGraphTest, RestoreRejectsUnsortedPairKeys) {
  WindowGraphState state = LandmarkState();
  std::swap(state.pairs[0], state.pairs[1]);
  EXPECT_EQ(RestoreCode(state), StatusCode::kDataLoss);
}

TEST(SlidingWindowGraphTest, RestoreRejectsLiveCountOffPairTrips) {
  WindowGraphState state = LandmarkState();
  state.live_count = 7;
  EXPECT_EQ(RestoreCode(state), StatusCode::kDataLoss);
  // A pair count off by one with live_count intact: the endpoint counts
  // still sum to 2 × live_count, so only the pair-trip sum catches it.
  state = LandmarkState();
  state.pairs[1].second = 2;
  EXPECT_EQ(RestoreCode(state), StatusCode::kDataLoss);
}

TEST(SlidingWindowGraphTest, RestoreRejectsDayCountersOffEndpointCount) {
  WindowGraphState state = LandmarkState();
  state.day[1][3] += 1;
  EXPECT_EQ(RestoreCode(state), StatusCode::kDataLoss);
}

TEST(SlidingWindowGraphTest, RestoreRejectsHourCountersOffEndpointCount) {
  WindowGraphState state = LandmarkState();
  state.hour[2][23] += 1;
  EXPECT_EQ(RestoreCode(state), StatusCode::kDataLoss);
}

TEST(SlidingWindowGraphTest, RestoreRejectsEndpointTotalOffLiveCount) {
  WindowGraphState state = LandmarkState();
  // Station 0 stays self-consistent (its day and hour counters still sum
  // to its endpoint count); only the total breaks 2 × live_count.
  state.endpoint_count[0] += 1;
  state.day[0][0] += 1;
  state.hour[0][0] += 1;
  EXPECT_EQ(RestoreCode(state), StatusCode::kDataLoss);
}

using PairSequence = std::vector<std::array<int64_t, 3>>;

PairSequence ReadPairs(const SlidingWindowGraph& w) {
  PairSequence seen;
  w.ForEachPair([&](int32_t u, int32_t v, int64_t trips) {
    seen.push_back({u, v, trips});
  });
  return seen;
}

/// A std::map model of a window's live pair counts.
struct PairModel {
  int64_t window_seconds;
  std::deque<TripEvent> live;
  std::map<std::pair<int32_t, int32_t>, int64_t> trips;

  void Ingest(const TripEvent& e) {
    live.push_back(e);
    Add(e, +1);
    if (window_seconds == 0) return;
    const int64_t cutoff =
        e.start_time.seconds_since_epoch() - window_seconds;
    while (live.front().start_time.seconds_since_epoch() <= cutoff) {
      Add(live.front(), -1);
      live.pop_front();
    }
  }
  void Add(const TripEvent& e, int64_t delta) {
    const auto key = std::minmax(e.from_station, e.to_station);
    if ((trips[key] += delta) == 0) trips.erase(key);
  }
  PairSequence Expected() const {
    PairSequence out;
    for (const auto& [key, count] : trips) {
      out.push_back({key.first, key.second, count});
    }
    return out;
  }
};

// The ordered pair scan under churn: a short window over 6 stations, so
// pairs die and are re-created between reads. Every read, wherever it
// falls, must yield exactly the std::map model's (u, v, trips) sequence:
// two reads with no mutation between them, and reads after RestoreState
// of a sliding and of a landmark state.
TEST(SlidingWindowGraphTest, PairRunMatchesMapModelUnderChurn) {
  const size_t stations = 6;
  const int64_t window = 300;
  SlidingWindowGraph sliding({stations, window});
  SlidingWindowGraph landmark({stations, 0});
  PairModel sliding_model{window, {}, {}};
  PairModel landmark_model{0, {}, {}};
  Rng rng(1607);
  CivilTime t = At(6, 0);
  size_t reads = 0, restores = 0;
  for (int i = 0; i < 60000; ++i) {
    t = t.AddSeconds(static_cast<int64_t>(rng.NextBounded(120)));
    const TripEvent e =
        Trip(static_cast<int32_t>(rng.NextBounded(stations)),
             static_cast<int32_t>(rng.NextBounded(stations)), t, i);
    ASSERT_TRUE(sliding.Ingest(e).ok());
    ASSERT_TRUE(landmark.Ingest(e).ok());
    sliding_model.Ingest(e);
    landmark_model.Ingest(e);

    // Reads happen only in every other 10k-event phase.
    const bool quiet = (i / 10000) % 2 == 1;
    if (!quiet && rng.NextBounded(100) == 0) {
      ++reads;
      ASSERT_EQ(ReadPairs(sliding), sliding_model.Expected()) << i;
      ASSERT_EQ(ReadPairs(sliding), sliding_model.Expected()) << i;
      ASSERT_EQ(ReadPairs(landmark), landmark_model.Expected()) << i;
    }
    if (i % 7919 == 7918) {
      ++restores;
      SlidingWindowGraph restored({stations, window});
      ASSERT_TRUE(restored.RestoreState(sliding.ExportState()).ok());
      ASSERT_EQ(ReadPairs(restored), sliding_model.Expected()) << i;
      sliding = std::move(restored);
      SlidingWindowGraph restored_landmark({stations, 0});
      ASSERT_TRUE(
          restored_landmark.RestoreState(landmark.ExportState()).ok());
      ASSERT_EQ(ReadPairs(restored_landmark), landmark_model.Expected())
          << i;
      landmark = std::move(restored_landmark);
    }
  }
  EXPECT_GT(reads, 100u);
  EXPECT_GE(restores, 7u);
  EXPECT_EQ(ReadPairs(sliding), sliding_model.Expected());
  EXPECT_EQ(ReadPairs(landmark), landmark_model.Expected());
}

}  // namespace
}  // namespace bikegraph::stream
