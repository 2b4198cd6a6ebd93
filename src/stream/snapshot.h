#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/civil_time.h"
#include "core/result.h"
#include "analysis/temporal_graph.h"
#include "geo/grid_index.h"
#include "geo/latlon.h"
#include "graphdb/weighted_graph.h"
#include "stream/window_graph.h"

namespace bikegraph::stream {

/// \brief An immutable, epoch-stamped freeze of one window: the flat CSR
/// station graph readers query, plus the per-station profiles and a shared
/// spatial index over the stations.
///
/// A snapshot never changes after publication, so benches, dashboards and
/// detection all read a consistent graph while ingestion keeps mutating
/// the live window. Readers hold it via `std::shared_ptr`; publishing a
/// newer epoch never invalidates an older one.
struct WindowSnapshot {
  /// Publication sequence number (1, 2, ...; stamped by SnapshotPublisher;
  /// 0 = not yet published).
  uint64_t epoch = 0;
  /// The frozen window's bounds: (window_start, window_end], with
  /// window_start = CivilTime(INT64_MIN) for a landmark window.
  CivilTime window_start;
  CivilTime window_end;
  /// Trips inside the window when it was frozen.
  size_t trip_count = 0;
  /// The projection that produced `graph` (granularity, floor, contrast).
  analysis::TemporalGraphOptions projection;
  /// The window's station graph in the batch pipeline's format: for kNull
  /// edge weight = trip count, for kDay/kHour weights are modulated by
  /// profile similarity exactly as `BuildTemporalGraph` does, so a
  /// landmark window over a full dataset freezes to a bit-identical
  /// graph.
  graphdb::WeightedGraph graph;
  /// Per-station day/hour profiles of the window.
  analysis::StationProfiles profiles;
  /// Spatial index over the station positions, or nullptr when none
  /// were given. Ids are station ids. Station positions never change
  /// between windows, so consecutive snapshots share one immutable
  /// index instead of rebuilding it per epoch.
  std::shared_ptr<const geo::GridIndex> station_index;
};

/// \brief Builds the station index snapshots share: one entry per
/// station id (positions must cover ids 0..station_count-1). Build once,
/// hand to every FreezeSnapshot call; its queries are pure reads, so
/// every reader of every snapshot can share it. Returns nullptr for an
/// empty positions vector.
std::shared_ptr<const geo::GridIndex> BuildFrozenStationIndex(
    const std::vector<geo::LatLon>& station_positions);

/// \brief Freezes the live window into an immutable snapshot (epoch 0;
/// publish it to stamp one). `station_index` (optional, typically from
/// BuildFrozenStationIndex) is shared into the snapshot. Rejects invalid
/// projection options and a window past kMaxWindowStations
/// (InvalidArgument). The one-shard case of the overload below.
Result<WindowSnapshot> FreezeSnapshot(
    const SlidingWindowGraph& window,
    const analysis::TemporalGraphOptions& projection = {},
    std::shared_ptr<const geo::GridIndex> station_index = nullptr);

/// \brief Freezes the shards of one stream (disjoint pairs and one
/// station_count; see ShardRouter in stream/shard.h) as one window:
/// trips, pairs and the per-station counters are summed over the shards
/// before any float math, and the window ends at their newest watermark.
/// Bit-identical to freezing a single window that ingested the union
/// stream. The shards must be quiescent and watermark-aligned (the
/// engine's freeze barrier). No shard at all is InvalidArgument.
Result<WindowSnapshot> FreezeSnapshot(
    std::span<const SlidingWindowGraph* const> shards,
    const analysis::TemporalGraphOptions& projection = {},
    std::shared_ptr<const geo::GridIndex> station_index = nullptr);

/// \brief When FreezeSnapshotDelta patches instead of rebuilding.
struct SnapshotDeltaPolicy {
  /// Full rebuild when the patched-edge estimate (dirty pairs, plus —
  /// under a temporal projection — every previous edge incident to a
  /// profile-dirty station) exceeds this fraction of the previous
  /// graph's edges: past that point the patch writes most of the CSR
  /// anyway and the full freeze's single sort-free pass wins. A fraction
  /// <= 0 forces every freeze down the full-rebuild path; NaN never
  /// falls back on size.
  double max_dirty_fraction = 0.25;
};

/// \brief The most dirty pairs an epoch can list and still pass
/// FreezeSnapshotDelta's size test against a previous graph holding
/// `live_pairs` edges and self-loops: floor(max_dirty_fraction ×
/// (live_pairs + 1)), the cut-off that test compares against (a count
/// exceeds a product exactly when it exceeds its floor). SIZE_MAX when
/// the fraction sets no finite cut-off, 0 when it is not positive. The
/// engine hands it to SlidingWindowGraph::DrainDirty, so an epoch the
/// delta freeze would reject stops tracking instead of sorting its
/// record.
size_t MaxDeltaDirtyPairs(const SnapshotDeltaPolicy& policy,
                          size_t live_pairs);

/// \brief Freezes the live window by copy-on-write patching of the
/// previous epoch's snapshot: only the station pairs and profiles in
/// `changes` (drained from the window via
/// `SlidingWindowGraph::DrainDirty`, covering exactly the epochs since
/// `previous` was frozen) are recomputed; everything else is
/// block-copied. The result is bit-identical to a full FreezeSnapshot of
/// the same window — locked by stream_snapshot_delta_test.cc across
/// randomized epoch sequences.
///
/// Falls back to a full freeze (reported via `used_delta`) when the
/// change record is incomplete (first drain, overflow), the previous
/// snapshot is incompatible (different station universe or projection),
/// or the dirty fraction exceeds `policy.max_dirty_fraction`. The
/// one-shard case of the overload below.
Result<WindowSnapshot> FreezeSnapshotDelta(
    const SlidingWindowGraph& window, const WindowSnapshot& previous,
    const WindowDirtySet& changes,
    const analysis::TemporalGraphOptions& projection = {},
    std::shared_ptr<const geo::GridIndex> station_index = nullptr,
    const SnapshotDeltaPolicy& policy = {}, bool* used_delta = nullptr);

/// \brief The delta freeze of the shards of one stream, with `changes`
/// their drain (the static SlidingWindowGraph::DrainDirty). Same read
/// rules as the shards FreezeSnapshot, same fallback and bit-identity
/// contract as the one-window overload.
Result<WindowSnapshot> FreezeSnapshotDelta(
    std::span<const SlidingWindowGraph* const> shards,
    const WindowSnapshot& previous, const WindowDirtySet& changes,
    const analysis::TemporalGraphOptions& projection = {},
    std::shared_ptr<const geo::GridIndex> station_index = nullptr,
    const SnapshotDeltaPolicy& policy = {}, bool* used_delta = nullptr);

/// \brief Hands immutable snapshots from the ingestion side to readers.
///
/// `Publish` stamps the next epoch and atomically replaces the current
/// snapshot; `Current` returns the latest (possibly nullptr before the
/// first publish). Readers keep their shared_ptr for as long as they need
/// a consistent view — old epochs stay alive until the last reader drops
/// them.
///
/// Thread safety: the RCU-style hand-off point between the single
/// ingestion thread and any number of reader threads. `Current()` and
/// `epoch()` are safe to call concurrently with `Publish()` from any
/// thread — the snapshot pointer is an atomic shared_ptr, so a reader
/// either sees the previous epoch or the new one, never a torn state,
/// and the returned handle pins its epoch alive regardless of later
/// publishes (locked under TSan by tests/stream_publisher_test.cc).
/// `Publish()` and `RestoreEpoch()` themselves are writer-side: exactly
/// one publishing thread at a time (the StreamEngine's contract — its
/// mutating API is single-threaded).
class SnapshotPublisher {
 public:
  /// Stamps `snapshot` with the next epoch, publishes it, and returns it.
  /// Writer-side (one publisher thread); readers may Current()
  /// concurrently.
  std::shared_ptr<const WindowSnapshot> Publish(WindowSnapshot snapshot);

  /// The most recently published snapshot; nullptr before any publish.
  /// Safe from any thread, never blocks the publisher.
  /// (libstdc++ 12 implements the atomic shared_ptr with an embedded
  /// spinlock whose load path unlocks relaxed; the exclusion is real but
  /// TSan flags the library internals — see tools/tsan_suppressions.txt.)
  std::shared_ptr<const WindowSnapshot> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Epoch of the latest published snapshot, read off Current() itself so
  /// the two never disagree: an epoch() read after a Current() is at
  /// least that snapshot's epoch, and one read before it at most. While
  /// nothing is published it is the epoch last stamped or restored (0 on
  /// a fresh publisher). Safe from any thread.
  uint64_t epoch() const;

  /// Recovery only (writer-side, no concurrent readers yet): rewinds the
  /// epoch counter so the next Publish stamps `epoch + 1`, and drops the
  /// current snapshot (a recovered engine rebuilds and republishes it, or
  /// lets the next freeze do so). Epoch numbering then continues exactly
  /// where the crashed run left off.
  void RestoreEpoch(uint64_t epoch);

 private:
  std::atomic<std::shared_ptr<const WindowSnapshot>> current_;
  /// The epoch last stamped by Publish or set by RestoreEpoch. Only the
  /// writer stores it, after the snapshot it stamps; readers consult it
  /// only while no snapshot is published.
  std::atomic<uint64_t> stamped_{0};
};

}  // namespace bikegraph::stream
