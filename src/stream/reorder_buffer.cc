#include "stream/reorder_buffer.h"

#include <cassert>

namespace bikegraph::stream {

namespace {

/// Wheel memory is one bucket per horizon second; past ~48 days of
/// horizon that is >100 MB of (mostly empty) buckets.
constexpr int64_t kMaxWheelHorizonSeconds = int64_t{1} << 22;

}  // namespace

ReorderBuffer::ReorderBuffer(const ReorderBufferOptions& options)
    : options_(options) {
  if (options_.max_lateness_seconds < 0) {
    options_status_ =
        Status::InvalidArgument("max_lateness_seconds must be >= 0");
    return;
  }
  if (options_.max_lateness_seconds > kMaxWheelHorizonSeconds) {
    options_status_ = Status::InvalidArgument(
        "max_lateness_seconds " +
        std::to_string(options_.max_lateness_seconds) +
        " exceeds the timing wheel's horizon limit (" +
        std::to_string(kMaxWheelHorizonSeconds) + "s)");
    return;
  }
  // Held events span at most the max_lateness seconds in
  // (cutoff, watermark] plus the current walk second, so the next power
  // of two above that guarantees no two live seconds ever share a
  // bucket — each bucket is one second's events, sortable by rental id
  // alone. At least 64 so the wheel is whole occupancy words: a release
  // walk then maps one word's bits onto 64 consecutive seconds with no
  // mid-word wrap.
  size_t size = 64;
  const auto span = static_cast<uint64_t>(options_.max_lateness_seconds) + 2;
  while (size < span) size <<= 1;
  primary_.resize(size);
  occupancy_.assign(size / 64, 0);
  overflow_occupancy_.assign(size / 64, 0);
}

Status ReorderBuffer::Push(const TripEvent& event) {
  if (!options_status_.ok()) return options_status_;
  if (flushed_) {
    return Status::FailedPrecondition(
        "ReorderBuffer was flushed (end of stream); no further events may "
        "be pushed");
  }
  const int64_t start = event.start_time.seconds_since_epoch();
  const int64_t cutoff = HorizonCutoff();
  if (start < cutoff) {
    if (options_.late_policy == LateEventPolicy::kDrop) {
      ++late_dropped_count_;
      return Status::OK();
    }
    return Status::FailedPrecondition(
        "trip event at " + event.start_time.ToString() + " is " +
        std::to_string(cutoff - start) +
        "s older than the reorder horizon (watermark " +
        CivilTime(watermark_seconds_).ToString() + " - max_lateness " +
        std::to_string(options_.max_lateness_seconds) + "s)");
  }
  if (options_.suppress_duplicates && event.rental_id != data::kInvalidId) {
    // Cap first, then insert: under a duplicate storm deeper than the
    // cap, the oldest-started ids are dropped to make room (see the
    // option's eviction contract), keeping the set — and its memory —
    // at most max_duplicate_ids entries.
    if (options_.max_duplicate_ids > 0 &&
        seen_ids_.size() >= options_.max_duplicate_ids &&
        !seen_ids_.Contains(event.rental_id)) {
      while (seen_ids_.size() >= options_.max_duplicate_ids &&
             !seen_expiry_.empty()) {
        seen_ids_.Erase(seen_expiry_.top().second);
        seen_expiry_.pop();
        ++duplicate_ids_evicted_;
      }
    }
    if (!seen_ids_.Insert(event.rental_id)) {
      ++duplicate_count_;
      return Status::OK();
    }
    seen_expiry_.emplace(start, event.rental_id);
    if (seen_ids_.size() > duplicate_ids_high_water_) {
      duplicate_ids_high_water_ = seen_ids_.size();
    }
  }
  if (start < watermark_seconds_) ++reordered_count_;
  const bool advances = start > watermark_seconds_;
  // Releasable on arrival? Only when the (possibly just-advanced)
  // watermark is already max_lateness past the start: every in-order
  // event in strict mode (max_lateness 0), or an exact-boundary straggler
  // otherwise.
  const bool releasable =
      start <= (advances ? start : watermark_seconds_) -
                   options_.max_lateness_seconds;
  if (advances) {
    watermark_seconds_ = start;
    if (!seen_expiry_.empty()) EvictExpiredIds(HorizonCutoff());
    if (wheel_count_ > 0 && watermark_seconds_ - drained_upto_ >=
                                static_cast<int64_t>(primary_.size())) {
      // A watermark jump of a whole revolution would let a new second
      // collide with a not-yet-walked older one in the same bucket;
      // spilling the releasable seconds to the FIFO first keeps every
      // bucket single-second. Rare — ordinary advances stay well within
      // one revolution.
      DrainWheelUpTo(HorizonCutoff());
    }
  }
  if (releasable) {
    if (!has_direct_ && ready_head_ == ready_.size() && wheel_count_ == 0) {
      direct_ = event;
      has_direct_ = true;
      return Status::OK();
    }
    if (has_direct_) {
      // Two releasable events pending: keep the smaller (start, rental
      // id) key in the direct slot so ties still release in rental-id
      // order — the direct slot is always released first. The displaced
      // event is parked where it is immediately releasable. A new
      // arrival can never be *older* than the direct event (both are
      // >= the cutoff the direct event was <= of), so only the tie
      // case ever swaps.
      const int64_t direct_start = direct_.start_time.seconds_since_epoch();
      if (start < direct_start ||
          (start == direct_start && event.rental_id < direct_.rental_id)) {
        const TripEvent displaced = direct_;
        direct_ = event;
        ParkWheelReleasable(displaced);
        return Status::OK();
      }
    }
    ParkWheelReleasable(event);
    return Status::OK();
  }
  PushToWheel(event);
  return Status::OK();
}

void ReorderBuffer::PushToWheel(const TripEvent& event) {
  const int64_t start = event.start_time.seconds_since_epoch();
  if (wheel_count_ == 0) {
    // Nothing is parked below this event, so fast-forward the walk
    // cursor: release walks never re-scan the gap. Never past the
    // event itself (it may already be releasable) and never past the
    // cutoff (future admissible arrivals start at or after it).
    const int64_t cutoff = HorizonCutoff();
    const int64_t upto = start - 1 < cutoff ? start - 1 : cutoff;
    if (upto > drained_upto_) drained_upto_ = upto;
  }
  assert(start > drained_upto_ && "wheel insert into a walked second");
  const size_t bucket = WheelBucket(start);
  const uint64_t bit = uint64_t{1} << (bucket & 63);
  if ((occupancy_[bucket >> 6] & bit) == 0) {
    occupancy_[bucket >> 6] |= bit;
    primary_[bucket] = event;
  } else {
    // Second event of this second: chain it onto the bucket's overflow
    // list (newest first; the gather restores arrival order).
    if (overflow_head_.empty()) {
      overflow_head_.assign(primary_.size(), kNilNode);
    }
    overflow_occupancy_[bucket >> 6] |= bit;
    uint32_t node;
    if (overflow_free_.empty()) {
      node = static_cast<uint32_t>(overflow_.size());
      overflow_.push_back(event);
      overflow_next_.push_back(overflow_head_[bucket]);
    } else {
      node = overflow_free_.back();
      overflow_free_.pop_back();
      overflow_[node] = event;
      overflow_next_[node] = overflow_head_[bucket];
    }
    overflow_head_[bucket] = node;
    ++overflow_count_;
  }
  ++wheel_count_;
}

void ReorderBuffer::GatherOverflowBucket(int64_t second, size_t bucket) {
  (void)second;  // one bucket == one second; only asserts need it
  // Arrival order is the primary slot first, then the chain reversed
  // (it is linked newest-first); the stable sort then makes rental id
  // the tie-break while same-id redeliveries keep arrival order.
  scratch_.clear();
  scratch_.push_back(primary_[bucket]);
  const size_t chain_begin = scratch_.size();
  for (uint32_t node = overflow_head_[bucket]; node != kNilNode;) {
    assert(overflow_[node].start_time.seconds_since_epoch() == second);
    scratch_.push_back(overflow_[node]);
    const uint32_t next = overflow_next_[node];
    overflow_free_.push_back(node);
    node = next;
  }
  overflow_count_ -= scratch_.size() - chain_begin;
  overflow_head_[bucket] = kNilNode;
  std::reverse(scratch_.begin() + static_cast<ptrdiff_t>(chain_begin),
               scratch_.end());
  std::stable_sort(scratch_.begin(), scratch_.end(),
                   [](const TripEvent& a, const TripEvent& b) {
                     return a.rental_id < b.rental_id;
                   });
  const uint64_t bit = uint64_t{1} << (bucket & 63);
  occupancy_[bucket >> 6] &= ~bit;
  overflow_occupancy_[bucket >> 6] &= ~bit;
}

void ReorderBuffer::DrainBucketToReady(int64_t second, size_t bucket) {
  const uint64_t bit = uint64_t{1} << (bucket & 63);
  if ((overflow_occupancy_[bucket >> 6] & bit) == 0) {
    ready_.push_back(primary_[bucket]);
    occupancy_[bucket >> 6] &= ~bit;
    --wheel_count_;
    return;
  }
  GatherOverflowBucket(second, bucket);
  for (const TripEvent& e : scratch_) ready_.push_back(e);
  wheel_count_ -= scratch_.size();
}

void ReorderBuffer::ParkWheelReleasable(const TripEvent& event) {
  if (event.start_time.seconds_since_epoch() > drained_upto_) {
    // Its second has not been walked yet: the normal bucket path keeps
    // it ordered against the other parked events for free.
    PushToWheel(event);
  } else {
    FifoInsertSorted(event);
  }
}

void ReorderBuffer::DrainWheelUpTo(int64_t upto) {
  if (upto <= drained_upto_) return;
  if (wheel_count_ == 0) {
    drained_upto_ = upto;
    return;
  }
  // Same walk as WalkWheel, but spilling into the ready FIFO instead of
  // a visitor — the big-jump fallback.
  ForEachOccupiedSecond(upto, [&](int64_t second, size_t bucket) {
    DrainBucketToReady(second, bucket);
    return wheel_count_ > 0;
  });
  drained_upto_ = upto;
}

void ReorderBuffer::FifoInsertSorted(const TripEvent& event) {
  const int64_t start = event.start_time.seconds_since_epoch();
  size_t pos = ready_.size();
  while (pos > ready_head_) {
    const TripEvent& prev = ready_[pos - 1];
    const int64_t prev_start = prev.start_time.seconds_since_epoch();
    if (prev_start < start ||
        (prev_start == start && prev.rental_id <= event.rental_id)) {
      break;
    }
    --pos;
  }
  ready_.insert(ready_.begin() + static_cast<ptrdiff_t>(pos), event);
}

void ReorderBuffer::AdvanceWatermark(CivilTime watermark) {
  const int64_t seconds = watermark.seconds_since_epoch();
  if (seconds <= watermark_seconds_) return;
  watermark_seconds_ = seconds;
  if (!seen_expiry_.empty()) EvictExpiredIds(HorizonCutoff());
  if (wheel_count_ > 0 && watermark_seconds_ - drained_upto_ >=
                              static_cast<int64_t>(primary_.size())) {
    DrainWheelUpTo(HorizonCutoff());  // see Push: keeps buckets one-second
  }
}

void ReorderBuffer::Flush() {
  // Raises WheelReleaseLimit() to the watermark; the next release walk
  // hands the remaining events out in order.
  flushed_ = true;
}

ReorderBufferState ReorderBuffer::ExportState() const {
  ReorderBufferState state;
  state.watermark_seconds = watermark_seconds_;
  state.flushed = flushed_;
  state.reordered_count = reordered_count_;
  state.late_dropped_count = late_dropped_count_;
  state.duplicate_count = duplicate_count_;
  state.released_count = released_count_;
  state.duplicate_ids_high_water = duplicate_ids_high_water_;
  state.duplicate_ids_evicted = duplicate_ids_evicted_;
  // The expiry heap and the id set always hold the same ids (inserts and
  // evictions touch both together), so draining a copy of the heap
  // exports the whole suppression state with the start times attached.
  state.seen.reserve(seen_expiry_.size());
  for (auto heap = seen_expiry_; !heap.empty(); heap.pop()) {
    state.seen.push_back(heap.top());
  }
  // Release order without disturbing the live buffer: flush a *copy* and
  // drain it. Checkpoints are seconds apart; the copy is the simple way
  // to reuse the one authoritative ordering implementation.
  ReorderBuffer drain(*this);
  drain.flushed_ = true;
  state.buffered.reserve(buffered_count());
  // The visitor never fails, so neither does the drain.
  (void)drain.ForEachReady([&state](const TripEvent& event) {
    state.buffered.push_back(event);
    return Status::OK();
  });
  return state;
}

Status ReorderBuffer::RestoreState(const ReorderBufferState& state) {
  BIKEGRAPH_RETURN_NOT_OK(options_status_);
  *this = ReorderBuffer(ReorderBufferOptions(options_));
  watermark_seconds_ = state.watermark_seconds;
  flushed_ = state.flushed;
  reordered_count_ = state.reordered_count;
  late_dropped_count_ = state.late_dropped_count;
  duplicate_count_ = state.duplicate_count;
  released_count_ = state.released_count;
  duplicate_ids_high_water_ = state.duplicate_ids_high_water;
  duplicate_ids_evicted_ = state.duplicate_ids_evicted;
  for (const auto& [start, id] : state.seen) {
    if (id == data::kInvalidId) {
      return Status::DataLoss(
          "checkpointed duplicate-suppression set holds the invalid id");
    }
    if (!seen_ids_.Insert(id)) {
      return Status::DataLoss(
          "checkpointed duplicate-suppression set repeats rental id " +
          std::to_string(id));
    }
    seen_expiry_.emplace(start, id);
  }
  // Re-park the held events. They arrive in release order, ascending
  // (start, rental id) — exactly what the wheel's one-second-per-bucket
  // invariant accepts.
  const int64_t cutoff = HorizonCutoff();
  int64_t prev_start = INT64_MIN;
  int64_t prev_id = INT64_MIN;
  for (const TripEvent& event : state.buffered) {
    const int64_t start = event.start_time.seconds_since_epoch();
    if (start < prev_start || (start == prev_start && event.rental_id < prev_id)) {
      return Status::DataLoss(
          "checkpointed reorder buffer is not in release order");
    }
    prev_start = start;
    prev_id = event.rental_id;
    // A held event may lie below the cutoff (a spill, a failed
    // visitor's remainder, or an advance with no drain since), but never
    // beyond the watermark.
    if (start > watermark_seconds_) {
      return Status::DataLoss(
          "checkpointed buffered event at " + event.start_time.ToString() +
          " lies beyond the watermark");
    }
    if (flushed_ || start <= cutoff) {
      // Already releasable: the FIFO drains before the bucket walk, and
      // the events arrive here in release order. Moving the walk cursor
      // to them sends a same-second straggler through FifoInsertSorted,
      // so it still releases in rental-id order.
      ready_.push_back(event);
      drained_upto_ = start;
    } else {
      PushToWheel(event);
    }
  }
  return Status::OK();
}

void ReorderBuffer::EvictExpiredIds(int64_t cutoff) {
  // Ids whose event start has fallen strictly below the horizon can never
  // match an admissible redelivery (it would be late), so dropping them
  // keeps the set bounded by one horizon of events.
  while (!seen_expiry_.empty() && seen_expiry_.top().first < cutoff) {
    seen_ids_.Erase(seen_expiry_.top().second);
    seen_expiry_.pop();
  }
}

size_t ReorderBuffer::IdSet::Home(int64_t id) const {
  // Fibonacci hashing: the top bits of id × 2^64/φ spread sequential
  // and strided ids alike.
  return static_cast<size_t>(
      (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
}

bool ReorderBuffer::IdSet::Contains(int64_t id) const {
  if (size_ == 0) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(id);; i = (i + 1) & mask) {
    if (slots_[i] == id) return true;
    if (slots_[i] == data::kInvalidId) return false;
  }
}

bool ReorderBuffer::IdSet::Insert(int64_t id) {
  assert(id != data::kInvalidId && "the empty-slot marker is not a key");
  if (size_ + 1 > slots_.size() / 2) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = Home(id);
  for (; slots_[i] != data::kInvalidId; i = (i + 1) & mask) {
    if (slots_[i] == id) return false;
  }
  slots_[i] = id;
  ++size_;
  return true;
}

void ReorderBuffer::IdSet::Erase(int64_t id) {
  if (size_ == 0) return;
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(id);
  for (; slots_[hole] != id; hole = (hole + 1) & mask) {
    if (slots_[hole] == data::kInvalidId) return;
  }
  // Backward shift: a later member of the probe run moves into the hole
  // when its probe path passes through it (its home lies cyclically at
  // or before the hole), so every member stays reachable from its home.
  for (size_t j = (hole + 1) & mask; slots_[j] != data::kInvalidId;
       j = (j + 1) & mask) {
    if (((j - Home(slots_[j])) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = data::kInvalidId;
  --size_;
}

void ReorderBuffer::IdSet::Grow() {
  std::vector<int64_t> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), data::kInvalidId);
  shift_ = 64u - static_cast<unsigned>(std::countr_zero(slots_.size()));
  const size_t mask = slots_.size() - 1;
  for (const int64_t id : old) {
    if (id == data::kInvalidId) continue;
    size_t i = Home(id);
    while (slots_[i] != data::kInvalidId) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

}  // namespace bikegraph::stream
