#pragma once

#include <cstddef>
#include <cstdint>

namespace bikegraph::stream {

/// \brief Hash-partitions the station universe across N engine shards.
///
/// A pair's owner is the shard of its *canonical* endpoint — the smaller
/// station id — so `OwnerOfPair(u, v) == OwnerOfPair(v, u)` and every
/// trip between the same two stations lands on the same shard no matter
/// the direction. Ownership is exclusive: a pair's live trip count lives
/// on exactly one shard, which is what lets the freeze read the shards'
/// pairs as a disjoint union instead of a reconciliation (the shards
/// FreezeSnapshot in stream/snapshot.h).
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

}  // namespace bikegraph::stream
