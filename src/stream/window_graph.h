#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/civil_time.h"
#include "core/result.h"
#include "stream/event.h"

#include "core/checked_cast.h"

namespace bikegraph::stream {

/// The most stations a window holds. Its pair counts are one dense
/// upper triangle of n(n+1)/2 int32 entries, 32 MiB at this bound.
inline constexpr size_t kMaxWindowStations = 4096;

/// \brief Options for a sliding-window graph maintainer.
struct WindowGraphOptions {
  /// Size of the station universe; event endpoints must be < station_count.
  /// At most kMaxWindowStations.
  size_t station_count = 0;
  /// Window length in seconds. The window covers the half-open interval
  /// (watermark - window_seconds, watermark]; 0 means a landmark window
  /// that never expires (the batch semantics). Must be >= 0.
  int64_t window_seconds = 7 * 86400;
};

/// \brief OK when a SlidingWindowGraph can hold `options`: window_seconds
/// >= 0 and station_count <= kMaxWindowStations. InvalidArgument naming
/// the broken rule otherwise. A window built from such options refuses
/// Ingest and RestoreState with this status, and both freezes refuse it.
Status CheckWindowOptions(const WindowGraphOptions& options);

/// \brief Everything that changed in a SlidingWindowGraph since the last
/// `DrainDirty()` call: the station pairs whose live trip count moved and
/// the stations whose day/hour profile counters moved. The delta snapshot
/// freeze patches exactly these entries of the previous epoch's CSR and
/// profiles (see snapshot.h).
struct WindowDirtySet {
  /// True when the set is an exhaustive record of the changes since the
  /// last drain. False on the first drain (tracking arms lazily, so
  /// pure-ingest workloads that never freeze pay nothing) and after an
  /// epoch overflowed its pair list (see DrainDirty) — both force the
  /// caller back to a full freeze.
  bool complete = false;
  /// Touched pair keys, `SlidingWindowGraph::PairKey` packed
  /// (u << 32 | v with u <= v; self pairs included), sorted ascending,
  /// deduplicated.
  std::vector<uint64_t> pairs;
  /// Stations whose profile counters changed, sorted ascending.
  std::vector<int32_t> stations;
};

/// \brief A SlidingWindowGraph's complete logical state, for
/// checkpointing. A sliding window serializes its expiry ring (the live
/// events) and rebuilds counters by re-applying them; a landmark window
/// has no ring, so it serializes the aggregates directly.
struct WindowGraphState {
  int64_t watermark_seconds = INT64_MIN;
  int64_t last_event_seconds = INT64_MIN;
  uint64_t ingested_count = 0;
  uint64_t delta_desync_count = 0;
  uint64_t live_count = 0;
  /// One live event per entry, oldest first (sliding windows only).
  struct RingEvent {
    int64_t start_seconds;
    int32_t from, to;
  };
  std::vector<RingEvent> ring;
  /// Landmark windows only: the aggregates themselves.
  /// (PairKey, trips), keys strictly ascending.
  std::vector<std::pair<uint64_t, int64_t>> pairs;
  std::vector<std::array<int64_t, 7>> day;
  std::vector<std::array<int64_t, 24>> hour;
  std::vector<int64_t> endpoint_count;
};

/// \brief Maintains the weighted station graph of a sliding time window
/// over a TripEvent stream, with O(1) amortized deltas per ingest/expiry.
///
/// State per window: trip counts per unordered station pair (self pairs
/// included), per-station day-of-week / hour-of-day endpoint counters
/// (each trip contributes its start time to *both* endpoints — twice to
/// one station for a loop trip — exactly the `ExtractStationProfiles`
/// convention), and an expiry ring of the live events keyed by event
/// time. Events must be ingested in non-decreasing start-time order
/// (relative to each other); the watermark is the max of the newest
/// event's start time and the latest explicit `Advance`, and events
/// whose start time falls out of the window are retired by reversing
/// their deltas. Advancing past wall-clock time never blocks later
/// events whose start times lag it — a trip is reported when it ends.
///
/// Counters are integral, so a window that drains back to empty returns
/// to exactly its initial state (no floating-point residue), and the
/// final landmark window over a whole dataset reproduces the batch
/// pipeline's graph bit for bit when frozen (see snapshot.h).
///
/// Pair counts live in one dense upper triangle indexed by (u, v), u <= v,
/// row-major, with an occupancy bitmap over it: index order is PairKey
/// order, so the live pairs are read in key order by scanning the bitmap.
/// The triangle grows with n²: 148 KB at 272 stations, 274 KB at 370, and
/// 32 MiB at kMaxWindowStations, past which the window allocates none and
/// refuses every event (see CheckWindowOptions).
class SlidingWindowGraph {
 public:
  explicit SlidingWindowGraph(const WindowGraphOptions& options);

  /// Applies one event's deltas and advances the watermark to its start
  /// time if newer (expiring older events). Returns InvalidArgument for
  /// options CheckWindowOptions refuses and for out-of-range stations,
  /// and FailedPrecondition when the event is older than the previously
  /// ingested event (an explicit Advance never blocks ingestion).
  Status Ingest(const TripEvent& event);

  /// Advances the watermark without ingesting (e.g. on a quiet stream so
  /// stale trips still expire). Watermarks in the past are a no-op.
  void Advance(CivilTime watermark);

  const WindowGraphOptions& options() const { return options_; }
  size_t station_count() const { return options_.station_count; }

  /// Number of trips currently inside the window.
  size_t trip_count() const { return live_count_; }
  /// Total events ever ingested (monotonic).
  size_t ingested_count() const { return ingested_count_; }
  /// Events retired so far (monotonic).
  size_t expired_count() const { return ingested_count_ - live_count_; }

  /// Stream time: the start time of the newest event seen (or the last
  /// explicit Advance, whichever is later).
  CivilTime watermark() const { return watermark_; }
  /// *Exclusive* lower bound of the half-open window
  /// `(watermark - window_seconds, watermark]`: an event starting exactly
  /// at this instant is already outside the window (`ExpireOlderThan`
  /// retires `start <= watermark - window_seconds`), so
  /// `Contains(window_start())` is false — the first instant inside the
  /// window is one second later. Equal to CivilTime(INT64_MIN) for a
  /// landmark window (and before any event or Advance).
  CivilTime window_start() const;
  /// The authoritative membership predicate for the window's half-open
  /// interval: true iff `window_start() < t <= watermark()` (for a
  /// landmark window: `t <= watermark()`). False before any event or
  /// Advance. An event is live exactly while its start time satisfies
  /// this — locked at the boundary (cutoff, cutoff ± 1) by
  /// stream_window_graph_test.cc.
  bool Contains(CivilTime t) const;

  /// Trips currently recorded between stations `u` and `v` (unordered;
  /// u == v counts loop trips). Zero when absent, and for any id outside
  /// [0, station_count).
  int64_t TripsBetween(int32_t u, int32_t v) const {
    const auto n = static_cast<int64_t>(station_count());
    if (u < 0 || v < 0 || u >= n || v >= n || trips_.empty()) return 0;
    return trips_[PairIndex(u, v)];
  }

  /// Live per-station endpoint counters at the two temporal
  /// granularities (integral; see class comment for the convention).
  const std::array<int64_t, 7>& DayCounts(int32_t station) const {
    return day_[AsIndex(station)];
  }
  const std::array<int64_t, 24>& HourCounts(int32_t station) const {
    return hour_[AsIndex(station)];
  }
  /// Trip endpoints currently touching `station` (2x for loop trips).
  int64_t EndpointCount(int32_t station) const {
    return endpoint_count_[AsIndex(station)];
  }

  /// Visits every pair with a live trip count, ordered by (u, v)
  /// ascending: `visit(u, v, trips)` with u <= v. Deterministic, so
  /// snapshot freezes are reproducible.
  template <typename Visitor>
  void ForEachPair(Visitor&& visit) const {
    const SlidingWindowGraph* self = this;
    ForEachPairIn(std::span(&self, 1), visit);
  }

  /// The one pair scan: visits the live pairs of `windows`, which share
  /// one station_count and hold disjoint pairs (the shards of one
  /// stream), in (u, v) ascending order. It walks the OR of their
  /// occupancy bitmaps a word at a time and reads each count from the
  /// window that holds it. A lone window runs the scan's one-window
  /// instantiation, in which the OR and the holder search compile away.
  template <typename Visitor>
  static void ForEachPairIn(std::span<const SlidingWindowGraph* const> windows,
                            Visitor&& visit) {
    if (windows.size() == 1) {
      ScanPairs(windows.first<1>(), visit);
    } else {
      ScanPairs(windows, visit);
    }
  }

  /// The packed pair key used by WindowDirtySet::pairs:
  /// (min(u,v) << 32) | max(u,v).
  static uint64_t PairKey(int32_t u, int32_t v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
           static_cast<uint32_t>(v);
  }

  /// Number of distinct station pairs (self pairs included) with at least
  /// one live trip.
  size_t pair_count() const { return pair_count_; }

  /// Drains the record of changes since the previous drain and starts a
  /// new epoch whose pair list holds at most `next_limit` distinct pairs.
  /// The first call arms change tracking (and therefore returns
  /// `complete = false`): ingest-only consumers that never freeze
  /// snapshots pay nothing for tracking they do not use. An epoch that
  /// would list more than `next_limit` pairs overflows: it tracks
  /// nothing more, and its drain reports `complete = false` without
  /// sorting, forcing the next freeze down the full path. The engine
  /// passes MaxDeltaDirtyPairs (snapshot.h), so tracking stops where the
  /// delta freeze would reject the epoch anyway. Each pair and station
  /// is listed at most once per epoch (a "listed" flag, cleared through
  /// the lists at every drain), so with no limit the list never outgrows
  /// the triangle. The one-window case of the drain below.
  WindowDirtySet DrainDirty(size_t next_limit = SIZE_MAX) {
    SlidingWindowGraph* self = this;
    return DrainDirty(std::span(&self, 1), SIZE_MAX, next_limit);
  }

  /// The one drain: drains the change records of `windows`, the shards
  /// of one stream (disjoint pairs, one station_count), into the one set
  /// a delta freeze over all of them patches, and starts each window's
  /// next epoch under `next_limit`. Pairs come out as a sorted union,
  /// stations as a sorted deduplicated union (a station's counters can
  /// move in several windows). The set is complete only when every
  /// window's record is and together they list at most `limit` pairs:
  /// one overflowed or unarmed window, or an epoch past the cut-off the
  /// windows tracked under, drops every record unsorted, forcing the
  /// full freeze, never a silent partial patch. No window: incomplete.
  static WindowDirtySet DrainDirty(std::span<SlidingWindowGraph* const> windows,
                                   size_t limit, size_t next_limit);

  /// Distinct pairs the current epoch's change record lists so far;
  /// never more than the epoch's limit.
  size_t dirty_pair_count() const { return dirty_pairs_.size(); }

  /// Forces the next DrainDirty() to report `complete = false` (one
  /// drain only; tracking re-arms as usual). For callers whose freeze
  /// failed *after* draining: those changes are gone from tracking, so
  /// patching an older snapshot later would silently miss them — the
  /// next freeze must rebuild instead.
  void MarkDirtyTrackingIncomplete() { dirty_tracking_ = false; }

  /// Times an expiry reversal referenced a station pair with no live
  /// trip — always 0 unless the ring and the pair counts desync (a
  /// library bug). The guard skips the reversal instead of driving a
  /// count negative; tests assert this stays 0 so any desync surfaces
  /// as a test failure rather than silent corruption.
  size_t delta_desync_count() const { return delta_desync_count_; }

  /// Copies out the window's complete logical state (checkpointing).
  WindowGraphState ExportState() const;

  /// Replaces this window's contents with `state` (recovery): a sliding
  /// window re-applies the serialized ring events (recomputing the
  /// day/hour fields from their start times), a landmark window adopts
  /// the serialized aggregates. Dirty tracking restarts unarmed, exactly
  /// as on a fresh graph. Returns InvalidArgument for options
  /// CheckWindowOptions refuses, and DataLoss for internally inconsistent
  /// state: an unsorted ring, out-of-range stations, pair keys not
  /// strictly ascending, or counters that disagree with each other
  /// (pair trips vs live_count, a station's day or hour counters vs its
  /// endpoint count, endpoint counts vs 2 × live_count).
  Status RestoreState(const WindowGraphState& state);

 private:
  friend struct WindowGraphTestPeer;
  /// Ring entry: the fields needed to reverse an event's deltas. day/hour
  /// are precomputed so expiry never re-does calendar math.
  struct RingEntry {
    int64_t start_seconds;
    int32_t from, to;
    uint8_t day, hour;
  };

  /// ForEachPairIn's body, for a span of static or dynamic extent.
  template <size_t Extent, typename Visitor>
  static void ScanPairs(
      std::span<const SlidingWindowGraph* const, Extent> windows,
      Visitor& visit) {
    const SlidingWindowGraph& first = *windows.front();
    const auto others = windows.template subspan<1>();
    const size_t n = first.station_count();
    // Row u of the triangle holds (u, u) .. (u, n - 1) at indices
    // [row_begin, row_end); bits arrive in ascending index order.
    size_t u = 0, row_begin = 0, row_end = n;
    const size_t words = first.live_.size();
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = first.live_[w];
      for (const SlidingWindowGraph* window : others) bits |= window->live_[w];
      for (; bits != 0; bits &= bits - 1) {
        const size_t index =
            w * 64 + static_cast<size_t>(std::countr_zero(bits));
        while (index >= row_end) {
          row_begin = row_end;
          row_end += n - ++u;
        }
        const SlidingWindowGraph* holder = &first;
        for (const SlidingWindowGraph* window : others) {
          if ((window->live_[w] & Bit(index)) != 0) holder = window;
        }
        visit(static_cast<int32_t>(u),
              static_cast<int32_t>(u + index - row_begin),
              int64_t{holder->trips_[index]});
      }
    }
  }

  // delta is exactly +1 (ingest) or -1 (expiry); the narrow type keeps
  // the pair-counter arithmetic inside int32_t by construction instead
  // of narrowing an int64_t at the accumulation site.
  void ApplyDelta(const RingEntry& e, int32_t delta);
  void MarkPairDirty(int32_t u, int32_t v, size_t index);
  void ExpireOlderThan(int64_t cutoff_seconds);
  void PushRing(const RingEntry& e);

  /// Index of the unordered pair (u, v), u <= v, in the row-major upper
  /// triangle: row u starts at u·n − u(u−1)/2 and holds v = u .. n − 1,
  /// so (u, v) sits at u(2n − u − 1)/2 + v.
  size_t PairIndex(int32_t u, int32_t v) const {
    if (u > v) std::swap(u, v);
    const auto a = static_cast<size_t>(u);
    return a * (2 * options_.station_count - a - 1) / 2 +
           static_cast<size_t>(v);
  }
  /// The bit of triangle index `index` within its bitmap word.
  static uint64_t Bit(size_t index) { return uint64_t{1} << (index % 64); }

  WindowGraphOptions options_;
  /// CheckWindowOptions(options_), computed once.
  Status options_status_;
  CivilTime watermark_{INT64_MIN};
  /// Start time of the newest ingested event (the ordering bound; the
  /// watermark can run ahead of it via Advance).
  int64_t last_event_seconds_ = INT64_MIN;

  /// Live trips per pair, n(n+1)/2 entries (none past the bound), and
  /// the occupancy bitmap over them: bit i is set iff trips_[i] > 0.
  std::vector<int32_t> trips_;
  std::vector<uint64_t> live_;
  size_t pair_count_ = 0;
  std::vector<std::array<int64_t, 7>> day_;
  std::vector<std::array<int64_t, 24>> hour_;
  std::vector<int64_t> endpoint_count_;

  // Change tracking for delta snapshot freezes. On from each
  // DrainDirty() until the epoch's record overflows (or is marked
  // incomplete); while off, ApplyDelta skips it entirely, so consumers
  // that never freeze, and epochs the delta freeze would reject, pay
  // nothing for it.
  bool dirty_tracking_ = false;
  size_t dirty_pair_limit_ = SIZE_MAX;
  std::vector<uint64_t> dirty_pairs_;
  std::vector<int32_t> dirty_stations_;
  /// The "listed" flags that keep both lists duplicate-free: a bitmap
  /// over the triangle and one byte per station.
  std::vector<uint64_t> pair_listed_;
  std::vector<uint8_t> station_listed_;

  // Expiry ring: a circular buffer of the live events in time order
  // (head = oldest). Grows by re-linearising into a larger buffer.
  // Unused (empty) in landmark mode, where nothing ever expires.
  std::vector<RingEntry> ring_;
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;
  size_t live_count_ = 0;
  size_t ingested_count_ = 0;
  size_t delta_desync_count_ = 0;
};

}  // namespace bikegraph::stream
