#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/civil_time.h"
#include "analysis/temporal_graph.h"
#include "stream/window_graph.h"

namespace bikegraph::stream {

/// \brief Hash-partitions the station universe across N engine shards.
///
/// A pair's owner is the shard of its *canonical* endpoint — the smaller
/// station id — so `OwnerOfPair(u, v) == OwnerOfPair(v, u)` and every
/// trip between the same two stations lands on the same shard no matter
/// the direction. Ownership is exclusive: a pair's live trip count lives
/// on exactly one shard, which is what makes the freeze-time merge a
/// disjoint union instead of a reconciliation.
///
/// The hash is the splitmix64 finalizer — a fixed bit-mixing function,
/// NOT std::hash — because routing must be stable across processes and
/// platforms: WAL replay and checkpoint recovery reconstruct each
/// shard's event stream by re-routing the merged log, so a run recovered
/// on a different stdlib must route every event to the same shard the
/// crashed run did (locked by the sharded kill-point tests in
/// tests/stream_durability_test.cc).
class ShardRouter {
 public:
  /// `shard_count` of 0 is treated as 1 (the unsharded engine).
  explicit ShardRouter(size_t shard_count)
      : shard_count_(shard_count == 0 ? 1 : shard_count) {}

  size_t shard_count() const { return shard_count_; }

  /// The fixed 64-bit finalizer (splitmix64): stable across runs,
  /// platforms and standard libraries.
  static uint64_t Mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// The shard owning `station` (station ids are dense and
  /// non-negative; negative ids are rejected upstream by the engine's
  /// endpoint validation).
  size_t OwnerOf(int32_t station) const {
    return static_cast<size_t>(
        Mix(static_cast<uint64_t>(static_cast<uint32_t>(station))) %
        static_cast<uint64_t>(shard_count_));
  }

  /// The shard owning the unordered pair (u, v): the owner of the
  /// canonical (smaller) endpoint, so both orientations agree.
  size_t OwnerOfPair(int32_t u, int32_t v) const {
    return OwnerOf(u < v ? u : v);
  }

 private:
  size_t shard_count_;
};

/// \brief A read-only merged view over N shards' window graphs,
/// presenting the same query surface `FreezeSnapshot` /
/// `FreezeSnapshotDelta` read from a single `SlidingWindowGraph`.
///
/// Pair trip counts are disjoint across shards (exclusive pair
/// ownership), so `TripsBetween` and `ForEachPair` are disjoint unions;
/// the per-station day/hour/endpoint counters are each shard's integral
/// contribution, so `DayCounts`/`HourCounts`/`Profiles` are exact
/// element-wise sums — integer addition is associative, which is why the
/// merged freeze is bit-identical to the single-writer freeze no matter
/// how events were distributed (locked by tests/stream_shard_test.cc).
///
/// The view must only be constructed over *quiescent* shards whose
/// windows share a common watermark (the engine's two-phase barrier
/// guarantees both before every freeze — see stream/engine.h).
class ShardedWindowView {
 public:
  explicit ShardedWindowView(std::vector<const SlidingWindowGraph*> shards);

  size_t station_count() const;
  /// Trips currently inside the merged window (sum of shard counts;
  /// pairs are disjoint so nothing is counted twice).
  size_t trip_count() const;
  /// Distinct live station pairs across all shards (disjoint union).
  size_t pair_count() const;

  /// The merged stream time: the newest watermark across shards. After
  /// the engine's phase-2 barrier every shard sits at this value.
  CivilTime watermark() const;
  /// Exclusive lower bound of the merged half-open window, mirroring
  /// `SlidingWindowGraph::window_start()` exactly (CivilTime(INT64_MIN)
  /// for a landmark window or before any event).
  CivilTime window_start() const;

  /// Merged live trips between `u` and `v`: only the owning shard holds
  /// a nonzero count, so the sum is its value.
  int64_t TripsBetween(int32_t u, int32_t v) const;

  /// Element-wise sums of the shards' integral endpoint counters
  /// (by value — the merged row does not exist in any one shard).
  std::array<int64_t, 7> DayCounts(int32_t station) const;
  std::array<int64_t, 24> HourCounts(int32_t station) const;

  /// Merged per-station profiles in the batch pipeline's format: summed
  /// integer counters converted to double, exactly as a single window
  /// over the union stream would produce.
  analysis::StationProfiles Profiles() const;

  /// Visits every live pair ordered by (u, v) ascending, exactly like
  /// `SlidingWindowGraph::ForEachPair`, through the same scan: over the
  /// OR of the shards' occupancy bitmaps, each count read from the one
  /// shard that holds it.
  template <typename Visitor>
  void ForEachPair(Visitor&& visit) const {
    SlidingWindowGraph::ForEachPairIn(shards_, visit);
  }

  const std::vector<const SlidingWindowGraph*>& shards() const {
    return shards_;
  }

 private:
  std::vector<const SlidingWindowGraph*> shards_;
};

/// \brief Merges per-shard dirty sets (each from that shard's
/// `DrainDirty()`) into the one `WindowDirtySet` the delta freeze
/// patches: pairs are a disjoint sorted union (exclusive ownership),
/// stations a sorted deduplicated union (one station's profile can be
/// touched from several shards), and the result is complete only when
/// every shard's record is (one overflowed or unarmed shard poisons the
/// merge, forcing the full-freeze path — never a silent partial patch).
/// `inputs` must be in shard order so the merge is deterministic.
WindowDirtySet MergeDirtySets(const std::vector<WindowDirtySet>& inputs);

}  // namespace bikegraph::stream
