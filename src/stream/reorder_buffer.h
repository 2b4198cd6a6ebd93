#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/civil_time.h"
#include "core/result.h"
#include "stream/event.h"

namespace bikegraph::stream {

/// \brief What to do with an event that arrives later than the reorder
/// horizon allows (its start time is more than `max_lateness_seconds`
/// behind the buffer's watermark).
enum class LateEventPolicy {
  /// Drop the event and count it (`late_dropped_count`). The right choice
  /// for live feeds, where one pathological straggler must not stall a
  /// dashboard.
  kDrop,
  /// Return FailedPrecondition from Push. The right choice for replays,
  /// where a too-late event means the configured horizon is wrong and the
  /// run would silently diverge from the batch pipeline.
  kError,
};

/// \brief Options for a ReorderBuffer.
struct ReorderBufferOptions {
  /// The reorder horizon: an arriving event may start at most this many
  /// seconds before the newest start time seen so far. 0 means strict
  /// order (any regression of start time is late) with pass-through
  /// release — the pre-buffer contract. At most 2^22 s (~48 days): the
  /// timing wheel keeps one bucket per horizon second.
  int64_t max_lateness_seconds = 0;
  /// Applied to events older than the horizon.
  LateEventPolicy late_policy = LateEventPolicy::kError;
  /// When true, an event whose `rental_id` was already admitted within
  /// the horizon is suppressed and counted (`duplicate_count`) — real
  /// feeds redeliver. Events with `rental_id == data::kInvalidId` are
  /// never suppressed (there is nothing to match on). A redelivery
  /// arriving after its original's start time has left the horizon is
  /// handled by the late policy instead, which is the only reason the
  /// id set stays bounded.
  bool suppress_duplicates = false;
  /// Hard cap on the duplicate-suppression id set (0 = unbounded).
  ///
  /// The eviction contract: watermark advance already evicts ids whose
  /// start left the horizon, so the set normally holds one horizon of
  /// events. But the horizon itself is unbounded in *events* — a
  /// duplicate storm that floods distinct ids into one horizon would
  /// grow the set (and its memory) without limit. When an insert would
  /// exceed the cap, the ids with the *oldest start times* are evicted
  /// first (they are the closest to aging out anyway, and a redelivery
  /// of an old event is the most likely to be rejected as late
  /// regardless). Consequence: under a storm deeper than the cap, a
  /// redelivery of an evicted id is re-admitted instead of suppressed —
  /// bounded memory is bought with exactness at the storm's tail.
  /// `duplicate_ids_high_water()` and `duplicate_ids_evicted()` expose
  /// when that trade actually happened.
  size_t max_duplicate_ids = size_t{1} << 20;
};

/// \brief A ReorderBuffer's complete logical state, for checkpointing.
/// `buffered` lists the held events in release order, independent of
/// where inside the buffer each one sits.
struct ReorderBufferState {
  int64_t watermark_seconds = INT64_MIN;
  bool flushed = false;
  uint64_t reordered_count = 0;
  uint64_t late_dropped_count = 0;
  uint64_t duplicate_count = 0;
  uint64_t released_count = 0;
  uint64_t duplicate_ids_high_water = 0;
  uint64_t duplicate_ids_evicted = 0;
  /// Held (admitted, unreleased) events in release order.
  std::vector<TripEvent> buffered;
  /// Duplicate-suppression set entries: (start_seconds, rental_id).
  std::vector<std::pair<int64_t, int64_t>> seen;
};

/// \brief A bounded buffer that re-sorts a nearly-ordered TripEvent
/// stream back into non-decreasing start-time order.
///
/// The paper's temporal graphs key trips by *start* time, but a live feed
/// reports a trip when it *ends* — so arrivals are start-time-ordered only
/// up to the longest trip duration. The buffer absorbs that: events are
/// held in a hashed timing wheel (Varghese & Lauck) with one bucket per
/// second of the horizon, and released once the watermark (the newest
/// start time seen, or an explicit `AdvanceWatermark`) has moved at least
/// `max_lateness_seconds` past them — at that point no admissible future
/// arrival can precede them, so the released order equals the fully
/// sorted order. Ties release in rental-id order, keeping a jittered
/// replay deterministic. Insert and release are amortized O(1).
///
/// An event older than the horizon at arrival is late: depending on
/// `LateEventPolicy` it is dropped-and-counted or refused. `Flush()`
/// marks end-of-stream and makes every held event releasable.
///
/// The buffer holds at most the events of one horizon (plus, with
/// duplicate suppression, one id per event in the horizon), so event
/// memory is bounded by the feed rate times `max_lateness_seconds`; the
/// wheel additionally keeps one (mostly empty) bucket per horizon second.
class ReorderBuffer {
 public:
  /// Validates the options once and allocates the wheel; invalid options
  /// leave the buffer refusing every Push with InvalidArgument.
  explicit ReorderBuffer(const ReorderBufferOptions& options = {});

  /// Admits one event. Returns InvalidArgument when the options were
  /// invalid, FailedPrecondition for a too-late event under
  /// LateEventPolicy::kError and after Flush(); OK otherwise (late drops
  /// and duplicate suppressions are OK — check the counters). Admitted
  /// events advance the watermark to their start time.
  Status Push(const TripEvent& event);

  /// Raises the watermark without an event (e.g. wall-clock time on a
  /// quiet stream), making older buffered events releasable. Watermarks
  /// in the past are a no-op.
  void AdvanceWatermark(CivilTime watermark);

  /// Marks end-of-stream: every buffered event becomes releasable (in
  /// order), and further Push calls fail.
  void Flush();

  /// Releases every currently-releasable event in release order — the
  /// only way events leave the buffer. An event is releasable once its
  /// start time is at least `max_lateness_seconds` behind the watermark
  /// (or after Flush). `visit(const TripEvent&)` is called with a
  /// reference into the buffer's storage, so a released event is copied
  /// at most once (by the visitor); it must return a Status and must not
  /// re-enter the buffer. Iteration stops at the first non-OK status
  /// (that event is already consumed) and returns it; the remaining
  /// events stay buffered. Push only parks events in their second's
  /// bucket, and this walk visits the releasable seconds straight out of
  /// the buckets.
  template <typename Visitor>
  Status ForEachReady(Visitor&& visit) {
    if (has_direct_) {
      has_direct_ = false;
      ++released_count_;
      Status status = visit(static_cast<const TripEvent&>(direct_));
      if (!status.ok()) return status;
    }
    // Leftover stragglers first (they predate every bucketed second),
    // then the bucket walk.
    while (ready_head_ < ready_.size()) {
      ++released_count_;
      Status status =
          visit(static_cast<const TripEvent&>(ready_[ready_head_++]));
      if (!status.ok()) return status;
    }
    ready_.clear();  // keeps capacity: steady state never reallocates
    ready_head_ = 0;
    if (wheel_count_ > 0) {
      const int64_t limit = WheelReleaseLimit();
      if (limit > drained_upto_) {
        return WalkWheel(limit, std::forward<Visitor>(visit));
      }
    }
    return Status::OK();
  }

  /// Events currently held (admitted but not yet handed out).
  size_t buffered_count() const {
    return wheel_count_ + (ready_.size() - ready_head_) +
           (has_direct_ ? 1 : 0);
  }

  /// Newest start time seen (or explicit advance); CivilTime(INT64_MIN)
  /// before the first.
  CivilTime watermark() const { return CivilTime(watermark_seconds_); }

  const ReorderBufferOptions& options() const { return options_; }

  /// Admitted events that arrived out of start-time order (start older
  /// than the watermark at arrival) and were re-sorted by the buffer.
  uint64_t reordered_count() const { return reordered_count_; }
  /// Events older than the horizon dropped under LateEventPolicy::kDrop.
  uint64_t late_dropped_count() const { return late_dropped_count_; }
  /// Redelivered events suppressed by duplicate detection.
  uint64_t duplicate_count() const { return duplicate_count_; }
  /// Events released so far via ForEachReady.
  uint64_t released_count() const { return released_count_; }
  /// Peak size the duplicate-suppression id set ever reached — the
  /// memory high-water mark of the storm-exposed structure. Bounded by
  /// `options().max_duplicate_ids` when that cap is set.
  uint64_t duplicate_ids_high_water() const {
    return duplicate_ids_high_water_;
  }
  /// Ids evicted by the `max_duplicate_ids` cap (not by ordinary horizon
  /// aging). Non-zero means a storm was deep enough that some
  /// redeliveries may have been re-admitted; see the cap's contract.
  uint64_t duplicate_ids_evicted() const { return duplicate_ids_evicted_; }

  /// Copies out the buffer's complete logical state (checkpointing).
  /// The buffer itself is not disturbed.
  ReorderBufferState ExportState() const;

  /// Replaces this buffer's contents with `state` (recovery). The
  /// options stay as constructed. Returns the constructor's
  /// InvalidArgument for invalid options, and DataLoss for internally
  /// inconsistent state (unsorted or beyond-watermark buffered events,
  /// duplicate seen ids, a seen data::kInvalidId).
  Status RestoreState(const ReorderBufferState& state);

 private:
  /// End-of-chain marker for the overflow node links.
  static constexpr uint32_t kNilNode = 0xFFFFFFFFu;

  /// Oldest start an arriving event may have and still be admitted; also
  /// the newest start a held event may have and be released. The two
  /// meet at equality, which is harmless: an event admitted exactly at
  /// the horizon is immediately releasable, and no younger event can
  /// still arrive before it.
  int64_t HorizonCutoff() const {
    // Before the first event (or advance) nothing is late and nothing is
    // releasable; INT64_MIN encodes both without underflowing the
    // subtraction.
    if (watermark_seconds_ == INT64_MIN) return INT64_MIN;
    return watermark_seconds_ - options_.max_lateness_seconds;
  }
  void EvictExpiredIds(int64_t cutoff);

  size_t WheelBucket(int64_t second) const {
    // Power-of-two mask; two's-complement & handles negative seconds.
    return static_cast<size_t>(static_cast<uint64_t>(second) &
                               (primary_.size() - 1));
  }
  /// The newest second the wheel may release: everything after Flush,
  /// otherwise the horizon cutoff.
  int64_t WheelReleaseLimit() const {
    return flushed_ ? watermark_seconds_ : HorizonCutoff();
  }
  /// Parks an event in its second's bucket.
  void PushToWheel(const TripEvent& event);
  /// Parks a releasable-on-arrival event: in its bucket when that second
  /// has not been walked yet, otherwise into the ready FIFO at its
  /// sorted position.
  void ParkWheelReleasable(const TripEvent& event);
  /// Collects an *overflowing* bucket's events into scratch_ in release
  /// order (one bucket == one second, so rental id is the whole
  /// tie-break; stable, so same-id redeliveries keep arrival order) and
  /// clears the bucket.
  void GatherOverflowBucket(int64_t second, size_t bucket);
  /// Moves one bucket's events into the ready FIFO in release order and
  /// clears it.
  void DrainBucketToReady(int64_t second, size_t bucket);
  /// Moves every bucket with second <= `upto` (inclusive) into the ready
  /// FIFO in second order — the rare big-jump fallback that keeps held
  /// seconds within one wheel revolution; releases normally happen
  /// straight off the buckets in WalkWheel.
  void DrainWheelUpTo(int64_t upto);
  /// Inserts an immediately-releasable event into the ready FIFO at its
  /// sorted position (only same-second ties at the tail ever shift).
  void FifoInsertSorted(const TripEvent& event);

  /// The one occupied-second iteration both wheel walks share: calls
  /// `fn(second, bucket)` for each occupied second in
  /// (drained_upto_, limit] in ascending order, advancing one occupancy
  /// word (64 seconds) per probe and iterating only the set bits inside
  /// it (read once per word, so `fn` may clear the bit it is handed).
  /// `fn` returns false to stop early. The wheel is whole words, so one
  /// word's bits map onto 64 consecutive seconds with no mid-word wrap.
  template <typename Fn>
  void ForEachOccupiedSecond(int64_t limit, Fn&& fn) {
    int64_t second = drained_upto_ + 1;
    while (second <= limit) {
      const size_t bucket = WheelBucket(second);
      const auto bit = static_cast<unsigned>(bucket & 63);
      const int64_t word_last = second + (63 - static_cast<int64_t>(bit));
      const int64_t span_last = word_last < limit ? word_last : limit;
      uint64_t bits = occupancy_[bucket >> 6] >> bit;
      const auto nbits = static_cast<unsigned>(span_last - second + 1);
      if (nbits < 64) bits &= (uint64_t{1} << nbits) - 1;
      while (bits != 0) {
        const auto offset = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        if (!fn(second + static_cast<int64_t>(offset), bucket + offset)) {
          return;
        }
      }
      second = span_last + 1;
    }
  }

  /// The hot release path: visits every bucketed event with second in
  /// (drained_upto_, limit] in (second, rental id) order, consuming
  /// them in place — no FIFO round trip. On visitor error the
  /// unconsumed remainder stays parked and the walk stops.
  template <typename Visitor>
  Status WalkWheel(int64_t limit, Visitor&& visit) {
    Status status = Status::OK();
    ForEachOccupiedSecond(
        limit, [&](int64_t second, size_t bucket) {
          const uint64_t occ_bit = uint64_t{1} << (bucket & 63);
          if (overflow_count_ == 0 ||
              (overflow_occupancy_[bucket >> 6] & occ_bit) == 0) {
            // The overwhelmingly common one-event second: visit straight
            // out of the flat primary slot.
            occupancy_[bucket >> 6] &= ~occ_bit;
            --wheel_count_;
            ++released_count_;
            status = visit(static_cast<const TripEvent&>(primary_[bucket]));
            if (!status.ok()) {
              drained_upto_ = second;
              return false;
            }
            return wheel_count_ > 0;
          }
          GatherOverflowBucket(second, bucket);
          for (size_t i = 0; i < scratch_.size(); ++i) {
            ++released_count_;
            --wheel_count_;
            status = visit(static_cast<const TripEvent&>(scratch_[i]));
            if (!status.ok()) {
              // The unconsumed tail is already in release order; it
              // goes to the FIFO (empty by now — ForEachReady drained
              // it before walking), which the next release reads first.
              for (size_t j = i + 1; j < scratch_.size(); ++j) {
                ready_.push_back(scratch_[j]);
              }
              wheel_count_ -= scratch_.size() - i - 1;
              drained_upto_ = second;
              return false;
            }
          }
          return wheel_count_ > 0;
        });
    if (!status.ok()) return status;
    drained_upto_ = limit;
    return Status::OK();
  }

  ReorderBufferOptions options_;
  /// The constructor's verdict on `options_`, returned by every Push.
  Status options_status_;
  int64_t watermark_seconds_ = INT64_MIN;
  bool flushed_ = false;

  /// Wheel state, sized for the common one-event-per-second case: one
  /// flat inline event slot per horizon second (`primary_`), occupancy
  /// bitmaps so release walks skip 64 empty buckets per word, and a
  /// small shared `overflow_` list for the rare seconds carrying more
  /// than one event (`overflow_occupancy_` marks them). The flat layout
  /// keeps the buffer's cache footprint to the slots actually touched —
  /// per-bucket vectors measurably slowed the *window's* delta
  /// bookkeeping through cache pressure. All vectors keep their
  /// capacity across drains, so the steady state allocates nothing.
  std::vector<TripEvent> primary_;
  std::vector<uint64_t> occupancy_;
  std::vector<uint64_t> overflow_occupancy_;
  /// Overflow storage: a node pool (`overflow_` events, `overflow_next_`
  /// links, `overflow_free_` recycling) of per-bucket chains headed by
  /// `overflow_head_` (allocated on the first overflow ever), newest
  /// first. A gather touches only its own second's chain, so release
  /// stays O(that second's events) no matter how many other seconds
  /// overflow.
  std::vector<TripEvent> overflow_;
  std::vector<uint32_t> overflow_next_;
  std::vector<uint32_t> overflow_head_;
  std::vector<uint32_t> overflow_free_;
  size_t overflow_count_ = 0;
  /// Reused gather buffer for overflowing seconds.
  std::vector<TripEvent> scratch_;
  size_t wheel_count_ = 0;
  /// The release walk's cursor: every second <= this has been released
  /// (or spilled to the ready FIFO), so buckets only hold seconds in
  /// (drained_upto_, watermark] — less than one wheel revolution, which
  /// is what makes one bucket one second. Never beyond the release
  /// limit, so a releasable-on-arrival straggler at an already-walked
  /// second takes the FIFO path instead of stranding in a bucket.
  int64_t drained_upto_ = INT64_MIN;
  /// Releasable events parked outside the buckets, in release order; all
  /// at seconds <= drained_upto_. Normally empty — ForEachReady visits
  /// buckets directly — it carries spills after big watermark jumps,
  /// exact-boundary stragglers, a failed visitor's unconsumed remainder,
  /// and restored events that are already releasable.
  std::vector<TripEvent> ready_;
  size_t ready_head_ = 0;

  /// One-event bypass: an event that is releasable the moment it arrives
  /// (every in-order event in strict max_lateness = 0 mode) skips the
  /// wheel entirely and is handed straight to the next ForEachReady,
  /// keeping the strict configuration pass-through-cheap.
  TripEvent direct_;
  bool has_direct_ = false;

  /// The duplicate-suppression id set: open addressing with linear
  /// probing over a power-of-two table of raw ids, at most half full.
  /// data::kInvalidId marks an empty slot (such ids are never suppressed,
  /// so never stored; every other int64_t is a key). Erase shifts the
  /// rest of the probe run back into the hole, so no tombstones build up
  /// as the horizon evicts. Once grown it allocates nothing per id.
  class IdSet {
   public:
    size_t size() const { return size_; }
    bool Contains(int64_t id) const;
    /// Adds `id`; false when it was already present.
    bool Insert(int64_t id);
    /// Removes `id` if present.
    void Erase(int64_t id);

   private:
    size_t Home(int64_t id) const;
    void Grow();

    std::vector<int64_t> slots_;
    size_t size_ = 0;
    unsigned shift_ = 64;
  };

  // Duplicate suppression: ids admitted whose start is still within the
  // horizon, plus an eviction heap so the set shrinks as the watermark
  // advances.
  IdSet seen_ids_;
  std::priority_queue<std::pair<int64_t, int64_t>,
                      std::vector<std::pair<int64_t, int64_t>>,
                      std::greater<std::pair<int64_t, int64_t>>>
      seen_expiry_;

  uint64_t reordered_count_ = 0;
  uint64_t late_dropped_count_ = 0;
  uint64_t duplicate_count_ = 0;
  uint64_t released_count_ = 0;
  uint64_t duplicate_ids_high_water_ = 0;
  uint64_t duplicate_ids_evicted_ = 0;
};

}  // namespace bikegraph::stream
