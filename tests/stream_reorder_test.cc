// Out-of-order ingestion: the ReorderBuffer's ordering/lateness/duplicate
// contract, the StreamEngine wiring around it (watermark regression,
// buffered-event visibility, end-of-stream flush, surfaced stats), and the
// headline property — a jittered replay of the full synthetic dataset
// through the buffer reproduces the ordered replay's window graph,
// snapshot, and Louvain partition bit for bit.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "community/detector.h"
#include "core/civil_time.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "expansion/pipeline.h"
#include "stream/engine.h"
#include "stream/reorder_buffer.h"
#include "stream/replay.h"
#include "stream/testing.h"

#include <gtest/gtest.h>

#include "graph_test_util.h"

namespace bikegraph::stream {
namespace {

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

/// The one shared jitter model (stream::JitterArrivalOrder), arrival
/// order only — what the engine equivalence tests feed.
std::vector<TripEvent> JitterOrder(const std::vector<TripEvent>& events,
                                   int64_t lag_seconds, uint64_t seed) {
  return JitterArrivalOrder(events, lag_seconds, seed).events;
}

bool IsStartOrdered(const std::vector<TripEvent>& events) {
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].start_time < events[i - 1].start_time) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ReorderBuffer unit behaviour.
// ---------------------------------------------------------------------------

ReorderBufferOptions Opts(
    int64_t max_lateness_seconds = 0,
    LateEventPolicy late_policy = LateEventPolicy::kError,
    bool suppress_duplicates = false) {
  ReorderBufferOptions options;
  options.max_lateness_seconds = max_lateness_seconds;
  options.late_policy = late_policy;
  options.suppress_duplicates = suppress_duplicates;
  return options;
}

/// Everything the buffer releases right now, in release order.
std::vector<TripEvent> Drain(ReorderBuffer& buffer) {
  std::vector<TripEvent> released;
  const Status status = buffer.ForEachReady([&](const TripEvent& e) {
    released.push_back(e);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return released;
}

std::vector<int64_t> Ids(const std::vector<TripEvent>& events) {
  std::vector<int64_t> ids;
  for (const TripEvent& e : events) ids.push_back(e.rental_id);
  return ids;
}

TEST(ReorderBufferTest, StrictModeIsPassThrough) {
  ReorderBuffer buffer(Opts());  // max_lateness 0, kError: the pre-buffer
                                 // contract
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 1)).ok());
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{1}));
  // Equal start times are fine, a regression is not.
  ASSERT_TRUE(buffer.Push(Trip(1, 0, At(6, 8), 2)).ok());
  EXPECT_EQ(Drain(buffer).size(), 1u);
  auto late = buffer.Push(Trip(0, 1, At(6, 7), 3));
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(buffer.reordered_count(), 0u);
}

TEST(ReorderBufferTest, ReordersWithinHorizon) {
  ReorderBuffer buffer(Opts(3600));
  // Arrival order 10:00, 9:30, 10:20, 9:40 — all within an hour of the
  // running watermark.
  for (const TripEvent& e :
       {Trip(0, 1, At(6, 10, 0), 1), Trip(0, 1, At(6, 9, 30), 2),
        Trip(0, 1, At(6, 10, 20), 3), Trip(0, 1, At(6, 9, 40), 4)}) {
    ASSERT_TRUE(buffer.Push(e).ok());
  }
  EXPECT_EQ(buffer.reordered_count(), 2u);  // 9:30 and 9:40 arrived late
  EXPECT_EQ(buffer.buffered_count(), 4u);
  EXPECT_TRUE(Drain(buffer).empty());  // nothing is an hour behind 10:20 yet

  buffer.AdvanceWatermark(At(6, 11, 20));
  std::vector<int64_t> released;
  for (const TripEvent& e : Drain(buffer)) {
    released.push_back(e.start_time.seconds_since_epoch());
  }
  // Everything up to 10:20 is now safe, and comes out in start order.
  ASSERT_EQ(released.size(), 4u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(buffer.released_count(), 4u);
}

TEST(ReorderBufferTest, TiesReleaseInRentalIdOrder) {
  ReorderBuffer buffer(Opts(600));
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 9)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 3)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 7)).ok());
  buffer.Flush();
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{3, 7, 9}));
}

TEST(ReorderBufferTest, TiesReleaseInRentalIdOrderThroughTheDirectSlot) {
  // Strict mode: both events are releasable on arrival, so the first
  // occupies the direct slot. The smaller rental id arriving second must
  // still come out first.
  ReorderBuffer buffer(Opts());  // max_lateness 0
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 9)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 3)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 7)).ok());
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{3, 7, 9}));
}

TEST(JitterModelTest, HasBoundedNonDecreasingReportTimes) {
  const auto ordered = testing::PlantedStream(12, 2, 3, 200, 5);
  const int64_t lag = 1800;
  const JitteredStream jittered = JitterArrivalOrder(ordered, lag, 42);
  ASSERT_EQ(jittered.events.size(), ordered.size());
  ASSERT_EQ(jittered.report_seconds.size(), ordered.size());
  EXPECT_TRUE(std::is_sorted(jittered.report_seconds.begin(),
                             jittered.report_seconds.end()));
  for (size_t i = 0; i < jittered.events.size(); ++i) {
    const int64_t delay =
        jittered.report_seconds[i] -
        jittered.events[i].start_time.seconds_since_epoch();
    EXPECT_GE(delay, 0) << i;
    EXPECT_LE(delay, lag) << i;
  }
}

TEST(ReorderBufferTest, LateDropPolicyCountsAndDiscards) {
  ReorderBuffer buffer(Opts(600, LateEventPolicy::kDrop));
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), 1)).ok());
  // 20 minutes behind a 10-minute horizon: dropped, not an error.
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 9, 40), 2)).ok());
  EXPECT_EQ(buffer.late_dropped_count(), 1u);
  buffer.Flush();
  // The late event never releases.
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{1}));
}

TEST(ReorderBufferTest, LateErrorPolicyRefuses) {
  ReorderBuffer buffer(Opts(600, LateEventPolicy::kError));
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), 1)).ok());
  auto late = buffer.Push(Trip(0, 1, At(6, 9, 40), 2));
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(buffer.late_dropped_count(), 0u);
  // An event exactly at the horizon is still admissible.
  EXPECT_TRUE(buffer.Push(Trip(0, 1, At(6, 9, 50), 3)).ok());
}

TEST(ReorderBufferTest, DuplicateRentalIdsAreSuppressed) {
  ReorderBuffer buffer(Opts(3600, LateEventPolicy::kDrop, true));
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), 42)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), 42)).ok());  // redelivery
  EXPECT_EQ(buffer.duplicate_count(), 1u);
  EXPECT_EQ(buffer.buffered_count(), 1u);
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10, 5), 43)).ok());
  EXPECT_EQ(buffer.duplicate_count(), 1u);
  EXPECT_EQ(buffer.buffered_count(), 2u);

  // Once the id's start time leaves the horizon the redelivery is late
  // instead (that bound is what keeps the id set finite).
  buffer.AdvanceWatermark(At(6, 12));
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), 42)).ok());
  EXPECT_EQ(buffer.duplicate_count(), 1u);
  EXPECT_EQ(buffer.late_dropped_count(), 1u);
}

TEST(ReorderBufferTest, InvalidIdsAreNeverSuppressed) {
  ReorderBuffer buffer(Opts(3600, LateEventPolicy::kError, true));
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), data::kInvalidId)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), data::kInvalidId)).ok());
  EXPECT_EQ(buffer.duplicate_count(), 0u);
  EXPECT_EQ(buffer.buffered_count(), 2u);
}

TEST(ReorderBufferTest, FlushDrainsAndSealsTheStream) {
  ReorderBuffer buffer(Opts(7200));
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 10), 2)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 9), 1)).ok());
  EXPECT_TRUE(Drain(buffer).empty());
  buffer.Flush();
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(Drain(buffer).empty());
  // End of stream means end of stream.
  EXPECT_EQ(buffer.Push(Trip(0, 1, At(6, 11), 3)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReorderBufferTest, NegativeLatenessIsRejected) {
  ReorderBuffer buffer(Opts(-1));
  EXPECT_EQ(buffer.Push(Trip(0, 1, At(6, 10), 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ReorderBufferTest, HorizonBeyondTheWheelLimitIsRejected) {
  // The wheel holds one bucket per horizon second; 2^22 s (~48 days) is
  // the largest horizon it accepts.
  ReorderBuffer buffer(Opts((int64_t{1} << 22) + 1));
  EXPECT_EQ(buffer.Push(Trip(0, 1, At(6, 10), 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffer.buffered_count(), 0u);
}

// ---------------------------------------------------------------------------
// Wheel boundaries: stragglers after their second was walked, and
// watermark jumps past a whole wheel revolution.
// ---------------------------------------------------------------------------

TEST(ReorderBufferWheelTest, BoundaryStragglerAfterWalkReleasesInOrder) {
  ReorderBuffer buffer(Opts(600));
  const CivilTime t0 = At(6, 10);
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t0, 1)).ok());
  // Watermark to t0+600: t0 hits the horizon exactly and releases.
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t0.AddSeconds(600), 2)).ok());
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{1}));  // walks t0
  // A straggler at exactly the cutoff (== t0) is still admissible and
  // immediately releasable — its second was already walked, so it takes
  // the FIFO path, and must still precede everything younger.
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t0, 3)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t0.AddSeconds(1), 4)).ok());
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{3}));  // 4, 2 held
  buffer.Flush();
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{4, 2}));
}

TEST(ReorderBufferWheelTest, WatermarkJumpPastOneRevolutionStaysOrdered) {
  // Lateness 64 -> a 128-bucket wheel; an Advance of several thousand
  // seconds crosses many revolutions and must spill-and-release every
  // held second in order (the emergency drain path).
  ReorderBuffer buffer(Opts(64));
  const CivilTime t0 = At(6, 10);
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t0.AddSeconds(30), 2)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t0, 1)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t0.AddSeconds(60), 3)).ok());
  EXPECT_EQ(buffer.buffered_count(), 3u);
  buffer.AdvanceWatermark(t0.AddSeconds(10000));
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{1, 2, 3}));
  // New events deep into a later revolution still work (same buckets,
  // new seconds), including one landing exactly on the new cutoff.
  const CivilTime t1 = t0.AddSeconds(10000);
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t1.AddSeconds(-64), 4)).ok());  // edge
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t1.AddSeconds(-30), 5)).ok());
  ASSERT_TRUE(buffer.Push(Trip(0, 1, t1.AddSeconds(20), 6)).ok());
  buffer.Flush();
  EXPECT_EQ(Ids(Drain(buffer)), (std::vector<int64_t>{4, 5, 6}));
  EXPECT_EQ(buffer.late_dropped_count(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized check against a model written from the buffer's contract:
// any interleaving of pushes (in-horizon jitter, exact-boundary
// stragglers, hopeless latecomers, duplicate redeliveries), watermark
// advances (small and multi-revolution) and drains (complete, or cut
// short by a failing visitor) must release, drain by drain, exactly the
// model's sequence, with identical counters.
// ---------------------------------------------------------------------------

using ReleaseKey = std::pair<int64_t, int64_t>;  // (start, rental id)

/// The contract, stated directly over a plain list of held events. An
/// event is admitted unless it is late (older than the horizon) or, with
/// duplicate suppression, its id is in the id set. The set holds each
/// admitted id (data::kInvalidId aside) until its start falls below the
/// horizon or, when an insert would pass `max_duplicate_ids`, until the
/// cap evicts it, oldest (start, rental id) first. Admitted events raise
/// the watermark. Each drain hands out the held events at or below the
/// cutoff (all of them after Flush) in (start, rental id) order; a
/// visitor that fails on the k-th event consumes exactly k.
class ReorderModel {
 public:
  explicit ReorderModel(const ReorderBufferOptions& options)
      : lateness_(options.max_lateness_seconds),
        suppress_duplicates_(options.suppress_duplicates),
        max_ids_(options.max_duplicate_ids) {}

  void Push(const TripEvent& event) {
    const int64_t start = event.start_time.seconds_since_epoch();
    if (start < Cutoff()) {
      ++late_dropped_count;
      return;
    }
    if (suppress_duplicates_ && event.rental_id != data::kInvalidId) {
      if (seen_start_.count(event.rental_id) != 0) {
        ++duplicate_count;
        return;
      }
      while (max_ids_ > 0 && seen_start_.size() >= max_ids_) {
        seen_start_.erase(seen_by_start_.begin()->second);
        seen_by_start_.erase(seen_by_start_.begin());
        ++duplicate_ids_evicted;
      }
      seen_start_[event.rental_id] = start;
      seen_by_start_.emplace(start, event.rental_id);
      duplicate_ids_high_water =
          std::max<uint64_t>(duplicate_ids_high_water, seen_start_.size());
    }
    if (start < watermark) ++reordered_count;
    AdvanceWatermark(start);
    held_.emplace_back(start, event.rental_id);
  }

  void AdvanceWatermark(int64_t seconds) {
    if (seconds <= watermark) return;
    watermark = seconds;
    while (!seen_by_start_.empty() &&
           seen_by_start_.begin()->first < Cutoff()) {
      seen_start_.erase(seen_by_start_.begin()->second);
      seen_by_start_.erase(seen_by_start_.begin());
    }
  }

  void Flush() { flushed_ = true; }

  /// Releases the first `budget` releasable events in release order.
  std::vector<ReleaseKey> Drain(size_t budget) {
    std::vector<ReleaseKey> ready;
    std::vector<ReleaseKey> kept;
    for (const ReleaseKey& key : held_) {
      (flushed_ || key.first <= Cutoff() ? ready : kept).push_back(key);
    }
    std::sort(ready.begin(), ready.end());
    if (ready.size() > budget) {
      kept.insert(kept.end(), ready.begin() + static_cast<ptrdiff_t>(budget),
                  ready.end());
      ready.resize(budget);
    }
    held_ = std::move(kept);
    released_count += ready.size();
    return ready;
  }

  size_t buffered_count() const { return held_.size(); }

  int64_t watermark = INT64_MIN;
  uint64_t reordered_count = 0;
  uint64_t late_dropped_count = 0;
  uint64_t duplicate_count = 0;
  uint64_t released_count = 0;
  uint64_t duplicate_ids_high_water = 0;
  uint64_t duplicate_ids_evicted = 0;

 private:
  int64_t Cutoff() const {
    return watermark == INT64_MIN ? INT64_MIN : watermark - lateness_;
  }

  int64_t lateness_;
  bool suppress_duplicates_;
  size_t max_ids_;
  bool flushed_ = false;
  std::vector<ReleaseKey> held_;
  std::map<int64_t, int64_t> seen_start_;  // rental id -> start
  std::set<ReleaseKey> seen_by_start_;      // (start, rental id)
};

/// A rental id from a space of `space` (>= 8) values that holds both
/// ends of the int64 range, kInvalidId (never suppressed), other
/// negative ids and multiples of 2^40, which agree in their low bits.
int64_t DrawRentalId(Rng& rng, uint64_t space) {
  const uint64_t i = rng.NextBounded(space);
  switch (i) {
    case 0: return INT64_MIN;
    case 1: return INT64_MAX;
    case 2: return data::kInvalidId;
    case 3: return INT64_MIN + 1;
    default: break;
  }
  const auto k = static_cast<int64_t>(i);
  return i % 3 == 0 ? -k : i % 3 == 1 ? k * (int64_t{1} << 40) : k;
}

TEST(ReorderBufferModelTest, RandomizedReleaseMatchesContractModel) {
  Rng rng(0xC0FFEE);
  const int64_t base = At(6, 0).seconds_since_epoch();
  const int64_t lateness_choices[] = {0, 1, 7, 64, 600, 3600};
  for (int trial = 0; trial < 36; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    ReorderBufferOptions options;
    options.max_lateness_seconds = lateness_choices[rng.NextBounded(6)];
    options.late_policy = LateEventPolicy::kDrop;
    options.suppress_duplicates = rng.NextBounded(2) == 0;
    // A small id set cap, an hour's horizon with short watermark jumps
    // (so the set holds more ids than the cap) and a wider id space
    // drive the cap's oldest-first eviction; the default cap is never
    // reached here.
    const bool capped = options.suppress_duplicates && rng.NextBounded(2) == 0;
    if (capped) {
      options.max_lateness_seconds = 3600;
      options.max_duplicate_ids = 4 + rng.NextBounded(29);
    }
    const uint64_t id_space = capped ? 512 : 64;
    const int checkpoint_step = static_cast<int>(rng.NextBounded(500));
    SCOPED_TRACE("max_duplicate_ids " +
                 std::to_string(options.max_duplicate_ids) +
                 ", restored at step " + std::to_string(checkpoint_step));
    ReorderBuffer buffer(options);
    ReorderModel model(options);
    const int64_t lateness = options.max_lateness_seconds;

    // One drain on both sides; the visitor fails on the budget-th event.
    const auto drain_both = [&](size_t budget) {
      std::vector<ReleaseKey> released;
      const Status status = buffer.ForEachReady([&](const TripEvent& e) {
        released.emplace_back(e.start_time.seconds_since_epoch(),
                              e.rental_id);
        return released.size() < budget ? Status::OK()
                                        : Status::Internal("budget spent");
      });
      const std::vector<ReleaseKey> expected = model.Drain(budget);
      EXPECT_EQ(released, expected);
      EXPECT_EQ(status.ok(), expected.size() < budget);
    };

    int64_t now = base;
    for (int step = 0; step < 500; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step == checkpoint_step) {
        // The restored buffer must carry on exactly as the original.
        ReorderBuffer restored(options);
        ASSERT_TRUE(restored.RestoreState(buffer.ExportState()).ok());
        buffer = std::move(restored);
      }
      const uint64_t action = rng.NextBounded(100);
      if (action < 70) {
        now += static_cast<int64_t>(rng.NextBounded(40));
        int64_t start;
        const uint64_t kind = rng.NextBounded(12);
        const int64_t mark = buffer.watermark().seconds_since_epoch();
        if (kind == 0 && mark != INT64_MIN) {
          start = mark - lateness;  // exactly on the horizon edge
        } else if (kind == 1) {
          start = now - lateness - 1 -
                  static_cast<int64_t>(rng.NextBounded(120));  // hopeless
        } else {
          start = now - static_cast<int64_t>(
                            rng.NextBounded(
                                static_cast<uint64_t>(lateness) + 2));
        }
        // A small id space under duplicate suppression produces real
        // redeliveries.
        const int64_t id = options.suppress_duplicates
                               ? DrawRentalId(rng, id_space)
                               : step;
        const TripEvent e = Trip(0, 1, CivilTime(start), id);
        const Status status = buffer.Push(e);
        ASSERT_TRUE(status.ok()) << status.ToString();
        model.Push(e);
      } else if (action < 80) {
        // May cross several wheel revolutions.
        const int64_t jump =
            static_cast<int64_t>(rng.NextBounded(capped ? 500 : 5000));
        buffer.AdvanceWatermark(CivilTime(now + jump));
        model.AdvanceWatermark(now + jump);
        now += jump;
      } else {
        // Half the drains complete; the rest stop after 1-8 events.
        const size_t budget =
            rng.NextBounded(2) == 0 ? SIZE_MAX : 1 + rng.NextBounded(8);
        drain_both(budget);
      }
      ASSERT_EQ(buffer.buffered_count(), model.buffered_count());
      ASSERT_EQ(buffer.watermark().seconds_since_epoch(), model.watermark);
      ASSERT_EQ(buffer.duplicate_ids_high_water(),
                model.duplicate_ids_high_water);
      ASSERT_EQ(buffer.duplicate_ids_evicted(), model.duplicate_ids_evicted);
    }
    buffer.Flush();
    model.Flush();
    drain_both(SIZE_MAX);
    EXPECT_EQ(buffer.buffered_count(), 0u);
    EXPECT_EQ(buffer.released_count(), model.released_count);
    EXPECT_EQ(buffer.reordered_count(), model.reordered_count);
    EXPECT_EQ(buffer.late_dropped_count(), model.late_dropped_count);
    EXPECT_EQ(buffer.duplicate_count(), model.duplicate_count);
    if (capped) {
      EXPECT_GT(model.duplicate_ids_evicted, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpointing a busy buffer: ExportState/RestoreState round trips taken
// while held events sit in the direct slot, in the ready FIFO after a
// spill, and in a second that holds several events.
// ---------------------------------------------------------------------------

void ExpectSameCounters(const ReorderBuffer& a, const ReorderBuffer& b) {
  EXPECT_EQ(a.buffered_count(), b.buffered_count());
  EXPECT_EQ(a.watermark(), b.watermark());
  EXPECT_EQ(a.released_count(), b.released_count());
  EXPECT_EQ(a.reordered_count(), b.reordered_count());
  EXPECT_EQ(a.late_dropped_count(), b.late_dropped_count());
  EXPECT_EQ(a.duplicate_count(), b.duplicate_count());
  EXPECT_EQ(a.duplicate_ids_high_water(), b.duplicate_ids_high_water());
  EXPECT_EQ(a.duplicate_ids_evicted(), b.duplicate_ids_evicted());
}

std::vector<ReleaseKey> Keys(const std::vector<TripEvent>& events) {
  std::vector<ReleaseKey> keys;
  for (const TripEvent& e : events) {
    keys.emplace_back(e.start_time.seconds_since_epoch(), e.rental_id);
  }
  return keys;
}

TEST(ReorderBufferCheckpointTest, RestoredBuffersReleaseLikeTheOriginal) {
  // Lateness 64: a 128-bucket wheel, so a 128 s watermark jump spills.
  const ReorderBufferOptions options =
      Opts(64, LateEventPolicy::kDrop, /*suppress_duplicates=*/true);
  // buffers[0] is exported at every checkpoint and buffers[1] never is;
  // each checkpoint restores into a fresh buffer appended to the list.
  // Every later call goes to all of them, and every drain must agree.
  std::vector<ReorderBuffer> buffers(2, ReorderBuffer(options));
  const auto push = [&](CivilTime start, int64_t id) {
    for (ReorderBuffer& buffer : buffers) {
      ASSERT_TRUE(buffer.Push(Trip(0, 1, start, id)).ok());
    }
  };
  const auto advance = [&](CivilTime to) {
    for (ReorderBuffer& buffer : buffers) buffer.AdvanceWatermark(to);
  };
  const auto drain = [&]() {
    const std::vector<TripEvent> released = Drain(buffers[0]);
    for (size_t i = 1; i < buffers.size(); ++i) {
      SCOPED_TRACE("buffer " + std::to_string(i));
      EXPECT_EQ(Keys(Drain(buffers[i])), Keys(released));
      ExpectSameCounters(buffers[i], buffers[0]);
    }
    return Ids(released);
  };
  const auto checkpoint = [&]() {
    const ReorderBufferState state = buffers[0].ExportState();
    EXPECT_EQ(state.buffered.size(), buffers[0].buffered_count());
    // Exporting again sees the same state: the first export changed
    // nothing.
    const ReorderBufferState again = buffers[0].ExportState();
    EXPECT_EQ(Keys(again.buffered), Keys(state.buffered));
    EXPECT_EQ(again.seen, state.seen);
    ReorderBuffer restored(options);
    ASSERT_TRUE(restored.RestoreState(state).ok());
    ExpectSameCounters(restored, buffers[0]);
    buffers.push_back(std::move(restored));
  };
  const CivilTime t = At(6, 10);

  // Direct slot: everything up to the cutoff t+36 is released, then an
  // exact-boundary straggler arrives into an otherwise empty buffer.
  push(t, 1);
  advance(t.AddSeconds(100));
  EXPECT_EQ(drain(), (std::vector<int64_t>{1}));
  push(t.AddSeconds(36), 20);
  checkpoint();
  push(t.AddSeconds(36), 10);  // same second, smaller id: released first
  push(t.AddSeconds(36), 20);  // redelivery: suppressed everywhere
  EXPECT_EQ(drain(), (std::vector<int64_t>{10, 20}));

  // Ready FIFO after a spill: a jump of one whole revolution moves the
  // held seconds up to the new cutoff t+200 into the FIFO, and t+210
  // stays in the wheel.
  push(t.AddSeconds(200), 31);
  push(t.AddSeconds(150), 30);
  push(t.AddSeconds(210), 32);
  advance(t.AddSeconds(264));
  checkpoint();
  push(t.AddSeconds(200), 29);  // exact-boundary straggler, smaller id
  EXPECT_EQ(drain(), (std::vector<int64_t>{30, 29, 31}));

  // A second holding several events.
  push(t.AddSeconds(300), 43);
  push(t.AddSeconds(300), 41);
  push(t.AddSeconds(300), 42);
  checkpoint();
  push(t.AddSeconds(300), 41);  // redelivery: suppressed everywhere
  push(t.AddSeconds(300), 40);
  advance(t.AddSeconds(364));
  EXPECT_EQ(drain(), (std::vector<int64_t>{32, 40, 41, 42, 43}));

  ASSERT_EQ(buffers.size(), 5u);
  push(t.AddSeconds(400), 51);
  push(t.AddSeconds(380), 50);
  for (ReorderBuffer& buffer : buffers) buffer.Flush();
  EXPECT_EQ(drain(), (std::vector<int64_t>{50, 51}));
  EXPECT_EQ(buffers[0].duplicate_count(), 2u);
  EXPECT_EQ(buffers[0].released_count(), 13u);
}

// ---------------------------------------------------------------------------
// StreamEngine wiring.
// ---------------------------------------------------------------------------

using testing::PlantedStream;

TEST(StreamEngineReorderTest, BufferedEventsBecomeVisibleOnRelease) {
  StreamEngineConfig config;
  config.station_count = 4;
  config.window_seconds = 0;
  config.max_lateness_seconds = 3600;
  StreamEngine engine(config);

  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 10), 1)).ok());
  // Held: the event could still be preceded by an admissible straggler.
  EXPECT_EQ(engine.buffered_count(), 1u);
  EXPECT_EQ(engine.window().trip_count(), 0u);

  // An event an hour later makes the first one safe to release.
  ASSERT_TRUE(engine.Ingest(Trip(2, 3, At(6, 11), 2)).ok());
  EXPECT_EQ(engine.window().trip_count(), 1u);
  EXPECT_EQ(engine.buffered_count(), 1u);

  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.window().trip_count(), 2u);
  EXPECT_EQ(engine.buffered_count(), 0u);
  // A flushed engine refuses further events rather than reordering them
  // against an already-drained buffer.
  EXPECT_FALSE(engine.Ingest(Trip(0, 1, At(6, 12), 3)).ok());
}

TEST(StreamEngineReorderTest, WatermarkNeverRegressesThroughAdvance) {
  StreamEngineConfig config;
  config.station_count = 2;
  config.window_seconds = 3600;
  config.max_lateness_seconds = 600;
  config.late_policy = LateEventPolicy::kDrop;
  StreamEngine engine(config);

  ASSERT_TRUE(engine.Advance(At(6, 12)).ok());
  EXPECT_EQ(engine.watermark(), At(6, 12));
  // Advancing backwards is a no-op on both the window and the buffer.
  ASSERT_TRUE(engine.Advance(At(6, 9)).ok());
  EXPECT_EQ(engine.watermark(), At(6, 12));
  EXPECT_EQ(engine.reorder().watermark(), At(6, 12));

  // Lateness is judged against the non-regressed watermark: an event from
  // 9:00 is three hours behind a 10-minute horizon.
  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 9), 1)).ok());
  EXPECT_EQ(engine.late_dropped_count(), 1u);
  EXPECT_EQ(engine.window().trip_count(), 0u);
}

TEST(StreamEngineReorderTest, LateAndDuplicateStatsSurface) {
  StreamEngineConfig config;
  config.station_count = 2;
  config.window_seconds = 0;
  config.max_lateness_seconds = 600;
  config.late_policy = LateEventPolicy::kDrop;
  config.suppress_duplicate_rentals = true;
  StreamEngine engine(config);

  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 10), 1)).ok());
  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 10), 1)).ok());   // redelivery
  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 9), 2)).ok());    // too late
  ASSERT_TRUE(engine.Ingest(Trip(0, 1, At(6, 10, 5), 3)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.duplicate_count(), 1u);
  EXPECT_EQ(engine.late_dropped_count(), 1u);
  EXPECT_EQ(engine.window().trip_count(), 2u);
  // Out-of-range endpoints fail at arrival, not a horizon later.
  StreamEngine fresh(config);
  EXPECT_EQ(fresh.Ingest(Trip(0, 5, At(6, 10), 9)).code(),
            StatusCode::kInvalidArgument);
}

using bikegraph::ExpectGraphsIdentical;  // tests/graph_test_util.h

TEST(StreamEngineReorderTest, JitteredPlantedStreamMatchesOrdered) {
  const size_t stations = 24;
  const auto ordered = PlantedStream(stations, 3, 10, 300, 7);
  const auto jittered = JitterOrder(ordered, /*lag_seconds=*/1800, 99);
  ASSERT_FALSE(IsStartOrdered(jittered));

  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 3 * 86400;
  StreamEngine ordered_engine(config);
  config.max_lateness_seconds = 1800;
  StreamEngine jittered_engine(config);

  for (const TripEvent& e : ordered) {
    ASSERT_TRUE(ordered_engine.Ingest(e).ok());
  }
  for (const TripEvent& e : jittered) {
    ASSERT_TRUE(jittered_engine.Ingest(e).ok());
  }
  ASSERT_TRUE(ordered_engine.Flush().ok());
  ASSERT_TRUE(jittered_engine.Flush().ok());
  EXPECT_GT(jittered_engine.reordered_count(), 0u);
  EXPECT_EQ(jittered_engine.late_dropped_count(), 0u);
  EXPECT_EQ(jittered_engine.ingested_count(),
            ordered_engine.ingested_count());
  EXPECT_EQ(jittered_engine.watermark(), ordered_engine.watermark());

  auto ordered_snap = ordered_engine.Snapshot();
  auto jittered_snap = jittered_engine.Snapshot();
  ASSERT_TRUE(ordered_snap.ok());
  ASSERT_TRUE(jittered_snap.ok());
  EXPECT_EQ((*jittered_snap)->trip_count, (*ordered_snap)->trip_count);
  EXPECT_EQ((*jittered_snap)->window_start, (*ordered_snap)->window_start);
  EXPECT_EQ((*jittered_snap)->profiles.day, (*ordered_snap)->profiles.day);
  EXPECT_EQ((*jittered_snap)->profiles.hour, (*ordered_snap)->profiles.hour);
  ExpectGraphsIdentical((*jittered_snap)->graph, (*ordered_snap)->graph);
}

// ---------------------------------------------------------------------------
// Headline acceptance: jittered replay of the full synthetic dataset.
// ---------------------------------------------------------------------------

class JitteredReplayEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig synth;  // the full synthetic Moby dataset
    auto raw = data::GenerateSyntheticMoby(synth);
    ASSERT_TRUE(raw.ok());
    auto pipeline = expansion::RunExpansionPipeline(*raw);
    ASSERT_TRUE(pipeline.ok());
    pipeline_ = new expansion::PipelineResult(std::move(*pipeline));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static expansion::PipelineResult* pipeline_;
};

expansion::PipelineResult* JitteredReplayEquivalenceTest::pipeline_ = nullptr;

/// Runs ordered and jittered replays of the whole cleaned dataset through
/// two engines with the given window, then requires the final window
/// graphs, snapshots, and Louvain partitions to match bit for bit. The
/// jittered engine additionally ingests through `shard_count` shards
/// (1 = the single-writer engine), so the sharded variants lock the
/// merge-at-freeze path against the same ordered single-writer oracle.
void ExpectJitteredReplayEquivalent(const expansion::PipelineResult& pipeline,
                                    int64_t window_seconds,
                                    size_t shard_count = 1) {
  const expansion::FinalNetwork& net = pipeline.final_network;
  const int64_t lag = 3600;  // an hour of report jitter, paper-trip scale

  StreamEngineConfig config;
  config.station_count = net.stations.size();
  config.window_seconds = window_seconds;
  StreamEngine ordered_engine(config);
  config.max_lateness_seconds = lag;
  config.shard_count = shard_count;
  StreamEngine jittered_engine(config);
  ASSERT_EQ(jittered_engine.shard_count(), shard_count);

  ReplaySource ordered = ReplaySource::FromFinalNetwork(pipeline.cleaned, net);
  ReplayOptions jitter;
  jitter.shuffle_seconds = lag;
  jitter.shuffle_seed = 2024;
  ReplaySource jittered =
      ReplaySource::FromFinalNetwork(pipeline.cleaned, net, jitter);

  // The jittered stream really is out of start-time order, and is a
  // permutation of the ordered one.
  ASSERT_EQ(jittered.events().size(), ordered.events().size());
  ASSERT_FALSE(IsStartOrdered(jittered.events()));

  ASSERT_TRUE(ordered.ReplayInto(&ordered_engine).ok());
  ASSERT_TRUE(jittered.ReplayInto(&jittered_engine).ok());
  EXPECT_GT(jittered_engine.reordered_count(), 0u);
  EXPECT_EQ(jittered_engine.late_dropped_count(), 0u);
  EXPECT_EQ(jittered_engine.buffered_count(), 0u);
  EXPECT_EQ(jittered_engine.ingested_count(), ordered.events().size());
  EXPECT_EQ(jittered_engine.watermark(), ordered_engine.watermark());

  auto ordered_snap = ordered_engine.Snapshot();
  auto jittered_snap = jittered_engine.Snapshot();
  ASSERT_TRUE(ordered_snap.ok());
  ASSERT_TRUE(jittered_snap.ok());
  EXPECT_EQ((*jittered_snap)->trip_count, (*ordered_snap)->trip_count);
  EXPECT_EQ((*jittered_snap)->window_start, (*ordered_snap)->window_start);
  EXPECT_EQ((*jittered_snap)->window_end, (*ordered_snap)->window_end);
  EXPECT_EQ((*jittered_snap)->profiles.day, (*ordered_snap)->profiles.day);
  EXPECT_EQ((*jittered_snap)->profiles.hour,
            (*ordered_snap)->profiles.hour);
  ExpectGraphsIdentical((*jittered_snap)->graph, (*ordered_snap)->graph);

  auto ordered_detect = ordered_engine.DetectCurrent();
  auto jittered_detect = jittered_engine.DetectCurrent();
  ASSERT_TRUE(ordered_detect.ok());
  ASSERT_TRUE(jittered_detect.ok());
  EXPECT_EQ(jittered_detect->result.partition.assignment,
            ordered_detect->result.partition.assignment);
  EXPECT_EQ(jittered_detect->result.modularity,
            ordered_detect->result.modularity);  // bitwise
}

TEST_F(JitteredReplayEquivalenceTest, SlidingWindowBitForBit) {
  ExpectJitteredReplayEquivalent(*pipeline_, /*window_seconds=*/7 * 86400);
}

TEST_F(JitteredReplayEquivalenceTest, LandmarkWindowBitForBit) {
  ExpectJitteredReplayEquivalent(*pipeline_, /*window_seconds=*/0);
}

// Sharded acceptance: the same full-dataset jittered replay through 2-
// and 4-shard engines must still reproduce the ordered single-writer
// result bit for bit — window graph, snapshot, and Louvain partition.
TEST_F(JitteredReplayEquivalenceTest, SlidingWindowBitForBitTwoShards) {
  ExpectJitteredReplayEquivalent(*pipeline_, /*window_seconds=*/7 * 86400,
                                 /*shard_count=*/2);
}

TEST_F(JitteredReplayEquivalenceTest, SlidingWindowBitForBitFourShards) {
  ExpectJitteredReplayEquivalent(*pipeline_, /*window_seconds=*/7 * 86400,
                                 /*shard_count=*/4);
}

TEST_F(JitteredReplayEquivalenceTest, LandmarkWindowBitForBitTwoShards) {
  ExpectJitteredReplayEquivalent(*pipeline_, /*window_seconds=*/0,
                                 /*shard_count=*/2);
}

TEST_F(JitteredReplayEquivalenceTest, LandmarkWindowBitForBitFourShards) {
  ExpectJitteredReplayEquivalent(*pipeline_, /*window_seconds=*/0,
                                 /*shard_count=*/4);
}

// ---------------------------------------------------------------------------
// Duplicate-suppression memory bound (max_duplicate_ids).
// ---------------------------------------------------------------------------

// The pre-fix failure mode: with the cap disabled, a long-lateness stream
// of distinct rental ids grows the suppression set without bound — the
// high-water mark tracks the stream length, not any horizon.
TEST(ReorderBufferTest, DuplicateIdSetGrowsUnboundedWithoutCap) {
  ReorderBufferOptions options =
      Opts(/*max_lateness_seconds=*/86400, LateEventPolicy::kDrop,
           /*suppress_duplicates=*/true);
  options.max_duplicate_ids = 0;  // unbounded (the pre-fix behaviour)
  ReorderBuffer buffer(options);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        buffer.Push(Trip(0, 1, At(6, 8).AddSeconds(i), 1000 + i)).ok());
  }
  // One live set entry per distinct id: nothing aged out (the horizon is
  // a day) and nothing was evicted (no cap).
  EXPECT_EQ(buffer.duplicate_ids_high_water(), 500u);
  EXPECT_EQ(buffer.duplicate_ids_evicted(), 0u);
}

TEST(ReorderBufferTest, DuplicateIdCapEvictsOldestStartsFirst) {
  ReorderBufferOptions options =
      Opts(/*max_lateness_seconds=*/86400, LateEventPolicy::kDrop,
           /*suppress_duplicates=*/true);
  options.max_duplicate_ids = 64;
  ReorderBuffer buffer(options);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        buffer.Push(Trip(0, 1, At(6, 8).AddSeconds(i), 1000 + i)).ok());
  }
  // Eviction happens before insertion, so the set never exceeds the cap.
  EXPECT_EQ(buffer.duplicate_ids_high_water(), 64u);
  EXPECT_EQ(buffer.duplicate_ids_evicted(), 436u);

  // A redelivery of a *recent* id is still suppressed...
  const uint64_t duplicates_before = buffer.duplicate_count();
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8).AddSeconds(499), 1499)).ok());
  EXPECT_EQ(buffer.duplicate_count(), duplicates_before + 1);

  // ...but a redelivery of an *evicted* id (oldest start, well inside the
  // lateness horizon) is re-admitted — the documented price of the bound.
  ASSERT_TRUE(buffer.Push(Trip(0, 1, At(6, 8), 1000)).ok());
  EXPECT_EQ(buffer.duplicate_count(), duplicates_before + 1);
  EXPECT_EQ(buffer.late_dropped_count(), 0u);
}

}  // namespace
}  // namespace bikegraph::stream
