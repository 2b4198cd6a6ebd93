#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "community/detector.h"
#include "core/result.h"
#include "query/epoch_memo.h"
#include "query/query.h"
#include "stream/snapshot.h"

namespace bikegraph::stream {
class StreamEngine;
}  // namespace bikegraph::stream

namespace bikegraph::query {

/// \brief Tuning knobs of a QueryService.
struct QueryServiceOptions {
  /// The detection the memoized partition runs (once per epoch).
  community::DetectSpec detection;
  /// Length of the memoized top-pairs ranking. TopPairs queries with
  /// k <= this limit are served from the memo; larger k recomputes the
  /// full ranking per query (correct, just unmemoized).
  size_t top_pairs_limit = 256;
  /// Memo cells kept alive at once (LRU by epoch: the oldest epoch's
  /// cell is evicted first). Pinned handles keep their cell via
  /// shared_ptr, so eviction never invalidates an in-flight reader.
  size_t memo_epochs = 4;
};

/// \brief Monotonic serving counters, readable from any thread.
struct QueryServiceStats {
  uint64_t pins = 0;
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t query_errors = 0;
  uint64_t community_memo_hits = 0;
  uint64_t community_memo_misses = 0;
  uint64_t pairs_memo_hits = 0;
  uint64_t pairs_memo_misses = 0;
};

/// \brief The concurrent snapshot query-serving layer: epoch-pinned reads
/// over a live `stream::SnapshotPublisher`, with per-epoch memoization of
/// the expensive derived artifacts (community partition, top-pair
/// ranking).
///
/// Thread model (the repo's single-writer / many-reader contract):
///  - the ingestion thread keeps mutating its StreamEngine and publishing
///    epochs; the service never touches the engine's mutating API;
///  - any number of reader threads call Pin() / ExecuteBatch() / the
///    Pinned query methods concurrently, with no reader-side locking on
///    the query path: Pin() is one short memo-map critical section
///    around an atomic snapshot load, and the queries themselves run on
///    the pinned immutable snapshot.
///
/// Pinning semantics: a `Pinned` handle is a consistent view of exactly
/// one epoch. Every query through it answers from that epoch — bit-
/// identical to the direct computation on the same snapshot — no matter
/// how many newer epochs are published meanwhile. The handle's
/// shared_ptrs keep both the snapshot and its memo cell alive past any
/// publisher hand-off or memo eviction.
class QueryService {
 public:
  /// Serves from `publisher`, which must outlive the service. The
  /// publisher may be empty now and publish later — Pin() reports
  /// FailedPrecondition until the first epoch lands.
  explicit QueryService(const stream::SnapshotPublisher& publisher,
                        QueryServiceOptions options = {});

  /// Serves from `engine.publisher()`; the engine must outlive the
  /// service. Only the publisher hand-off point is touched — safe while
  /// the ingestion thread keeps feeding the engine.
  explicit QueryService(const stream::StreamEngine& engine,
                        QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// \brief An epoch-pinned read handle: one snapshot, one memo cell.
  ///
  /// Cheap to copy (two shared_ptrs + a back-pointer) and safe to use
  /// from the thread that pinned it; distinct handles are safe on
  /// distinct threads concurrently (all queries are const reads of the
  /// immutable snapshot; memo computation is call_once-guarded).
  /// Must not outlive the service.
  class Pinned {
   public:
    /// The pinned epoch (stable for the handle's lifetime).
    uint64_t epoch() const { return snapshot_->epoch; }
    /// The pinned snapshot itself, for direct reads next to the typed
    /// queries.
    const stream::WindowSnapshot& snapshot() const { return *snapshot_; }
    /// The underlying handle, shareable beyond this Pinned.
    const std::shared_ptr<const stream::WindowSnapshot>& handle() const {
      return snapshot_;
    }

    /// Community label + context for `station` in the epoch's memoized
    /// partition. InvalidArgument for an out-of-range station.
    Result<CommunityOfStationResult> CommunityOf(int32_t station) const;
    /// Communities in the epoch's memoized partition.
    Result<size_t> CommunityCount() const;
    /// The k nearest stations through the snapshot's shared GridIndex.
    /// FailedPrecondition when the snapshot carries no station index;
    /// InvalidArgument when the index holds no position for `station`.
    Result<KNearestStationsResult> KNearest(int32_t station, size_t k) const;
    /// Inter-community flow between two labels of the memoized
    /// partition. InvalidArgument for out-of-range labels.
    Result<InterCommunityFlowResult> Flow(int32_t community_a,
                                          int32_t community_b) const;
    /// The k busiest station pairs of the pinned epoch.
    Result<TopPairsResult> TopPairs(size_t k) const;
    /// Day/hour usage profile of `station` in the pinned window.
    Result<StationProfileResult> Profile(int32_t station) const;

    /// Dispatches any vocabulary query to the methods above.
    Result<QueryAnswer> Execute(const Query& q) const;

   private:
    friend class QueryService;
    Pinned(const QueryService* service,
           std::shared_ptr<const stream::WindowSnapshot> snapshot,
           std::shared_ptr<EpochMemo> memo)
        : service_(service),
          snapshot_(std::move(snapshot)),
          memo_(std::move(memo)) {}

    Result<const CommunityArtifacts*> Communities() const;

    const QueryService* service_;
    std::shared_ptr<const stream::WindowSnapshot> snapshot_;
    std::shared_ptr<EpochMemo> memo_;
  };

  /// Pins the publisher's current epoch. FailedPrecondition before the
  /// first publish. Safe from any thread, concurrently with the writer.
  Result<Pinned> Pin() const;

  /// One batch's answers: every query answered from the same pinned
  /// epoch, slot i answering queries[i] (per-slot errors stay in their
  /// slot; the batch itself only fails when there is nothing to pin).
  struct BatchOutcome {
    uint64_t epoch = 0;
    std::vector<Result<QueryAnswer>> answers;
  };

  /// Pins the current epoch once and executes the whole batch against
  /// it — the one-acquire-many-queries path readers should prefer.
  Result<BatchOutcome> ExecuteBatch(std::span<const Query> queries) const;

  /// Executes a batch against an existing pin (same per-slot semantics).
  BatchOutcome ExecuteBatchOn(const Pinned& pinned,
                              std::span<const Query> queries) const;

  /// Point-in-time copy of the serving counters. Safe from any thread.
  QueryServiceStats stats() const;

  /// Memo cells currently retained (<= options().memo_epochs).
  size_t memo_size() const;

  const QueryServiceOptions& options() const { return options_; }

 private:
  const stream::SnapshotPublisher* publisher_;
  QueryServiceOptions options_;

  mutable std::mutex memo_mutex_;
  mutable std::map<uint64_t, std::shared_ptr<EpochMemo>> memos_;

  mutable std::atomic<uint64_t> stat_pins_{0};
  mutable std::atomic<uint64_t> stat_batches_{0};
  mutable std::atomic<uint64_t> stat_queries_{0};
  mutable std::atomic<uint64_t> stat_query_errors_{0};
  mutable std::atomic<uint64_t> stat_community_hits_{0};
  mutable std::atomic<uint64_t> stat_community_misses_{0};
  mutable std::atomic<uint64_t> stat_pairs_hits_{0};
  mutable std::atomic<uint64_t> stat_pairs_misses_{0};
};

}  // namespace bikegraph::query
