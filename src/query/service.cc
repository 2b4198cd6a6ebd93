#include "query/service.h"

#include <algorithm>
#include <utility>

#include "core/checked_cast.h"
#include "stream/engine.h"

namespace bikegraph::query {

namespace {

/// Wraps a typed query result into the variant answer, propagating errors.
template <typename T>
Result<QueryAnswer> ToAnswer(Result<T> r) {
  if (!r.ok()) return r.status();
  return QueryAnswer(std::move(r).ValueOrDie());
}

}  // namespace

QueryService::QueryService(const stream::SnapshotPublisher& publisher,
                           QueryServiceOptions options)
    : publisher_(&publisher), options_(std::move(options)) {}

QueryService::QueryService(const stream::StreamEngine& engine,
                           QueryServiceOptions options)
    : QueryService(engine.publisher(), std::move(options)) {}

Result<QueryService::Pinned> QueryService::Pin() const {
  // The snapshot is loaded while the memo lock is held. Published epochs
  // only grow, so loads made in lock order see non-decreasing epochs: a
  // cell is only ever created for the newest epoch seen so far, and an
  // epoch whose cell was evicted can never get a second one (which would
  // run its detection twice).
  std::lock_guard<std::mutex> lock(memo_mutex_);
  auto snapshot = publisher_->Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        "nothing published yet: pin after the first snapshot epoch");
  }
  stat_pins_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<EpochMemo> cell;
  auto it = memos_.find(snapshot->epoch);
  if (it != memos_.end()) {
    cell = it->second;
  } else {
    cell = std::make_shared<EpochMemo>();
    memos_.emplace(snapshot->epoch, cell);
    // Bound the map by evicting the oldest epochs. A cell evicted while a
    // Pinned handle still holds it stays alive through that shared_ptr —
    // eviction only stops NEW pins from sharing it.
    while (memos_.size() > options_.memo_epochs && !memos_.empty()) {
      memos_.erase(memos_.begin());
    }
  }
  return Pinned(this, std::move(snapshot), std::move(cell));
}

Result<const CommunityArtifacts*> QueryService::Pinned::Communities() const {
  bool computed = false;
  auto result =
      memo_->Communities(*snapshot_, service_->options_.detection, &computed);
  (computed ? service_->stat_community_misses_
            : service_->stat_community_hits_)
      .fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<CommunityOfStationResult> QueryService::Pinned::CommunityOf(
    int32_t station) const {
  BIKEGRAPH_ASSIGN_OR_RETURN(const CommunityArtifacts* art, Communities());
  const auto& assignment = art->detection.partition.assignment;
  if (station < 0 || AsIndex(station) >= assignment.size()) {
    return Status::InvalidArgument("station out of range");
  }
  CommunityOfStationResult result;
  result.community = assignment[AsIndex(station)];
  result.community_size = art->sizes[AsIndex(result.community)];
  result.community_count = art->community_count;
  result.modularity = art->detection.modularity;
  return result;
}

Result<size_t> QueryService::Pinned::CommunityCount() const {
  BIKEGRAPH_ASSIGN_OR_RETURN(const CommunityArtifacts* art, Communities());
  return art->community_count;
}

Result<KNearestStationsResult> QueryService::Pinned::KNearest(
    int32_t station, size_t k) const {
  const geo::GridIndex* index = snapshot_->station_index.get();
  if (index == nullptr) {
    return Status::FailedPrecondition(
        "snapshot carries no station index (engine without "
        "station_positions)");
  }
  const geo::LatLon position = index->PointOf(station);
  if (!position.IsValid()) {
    return Status::InvalidArgument("station " + std::to_string(station) +
                                   " is not in the station index");
  }
  KNearestStationsResult result;
  result.neighbors = index->KNearest(position, k, /*exclude_id=*/station);
  return result;
}

Result<InterCommunityFlowResult> QueryService::Pinned::Flow(
    int32_t community_a, int32_t community_b) const {
  BIKEGRAPH_ASSIGN_OR_RETURN(const CommunityArtifacts* art, Communities());
  const size_t c = art->community_count;
  if (community_a < 0 || community_b < 0 || AsIndex(community_a) >= c ||
      AsIndex(community_b) >= c) {
    return Status::InvalidArgument("community label out of range");
  }
  InterCommunityFlowResult result;
  result.flow = art->flow[AsIndex(community_a) * c + AsIndex(community_b)];
  return result;
}

Result<TopPairsResult> QueryService::Pinned::TopPairs(size_t k) const {
  TopPairsResult result;
  if (k <= service_->options_.top_pairs_limit) {
    bool computed = false;
    const auto& ranked = memo_->TopPairs(
        *snapshot_, service_->options_.top_pairs_limit, &computed);
    (computed ? service_->stat_pairs_misses_ : service_->stat_pairs_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    result.pairs.assign(
        ranked.begin(),
        ranked.begin() +
            static_cast<std::ptrdiff_t>(std::min(k, ranked.size())));
    return result;
  }
  // k beyond the memoized limit: compute the ranking for this query
  // alone (counted as a miss — a ranking computation happened).
  service_->stat_pairs_misses_.fetch_add(1, std::memory_order_relaxed);
  result.pairs = ComputeTopPairs(snapshot_->graph, k);
  return result;
}

Result<StationProfileResult> QueryService::Pinned::Profile(
    int32_t station) const {
  const auto& profiles = snapshot_->profiles;
  if (station < 0 || AsIndex(station) >= profiles.day.size()) {
    return Status::InvalidArgument("station out of range");
  }
  StationProfileResult result;
  result.day = profiles.day[AsIndex(station)];
  result.hour = profiles.hour[AsIndex(station)];
  for (double d : result.day) result.endpoint_total += d;
  return result;
}

Result<QueryAnswer> QueryService::Pinned::Execute(const Query& q) const {
  service_->stat_queries_.fetch_add(1, std::memory_order_relaxed);
  auto answer = std::visit(
      [this](const auto& typed) -> Result<QueryAnswer> {
        using Q = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<Q, CommunityOfStationQuery>) {
          return ToAnswer(CommunityOf(typed.station));
        } else if constexpr (std::is_same_v<Q, KNearestStationsQuery>) {
          return ToAnswer(KNearest(typed.station, typed.k));
        } else if constexpr (std::is_same_v<Q, InterCommunityFlowQuery>) {
          return ToAnswer(Flow(typed.community_a, typed.community_b));
        } else if constexpr (std::is_same_v<Q, TopPairsQuery>) {
          return ToAnswer(TopPairs(typed.k));
        } else {
          static_assert(std::is_same_v<Q, StationProfileQuery>);
          return ToAnswer(Profile(typed.station));
        }
      },
      q);
  if (!answer.ok()) {
    service_->stat_query_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return answer;
}

Result<QueryService::BatchOutcome> QueryService::ExecuteBatch(
    std::span<const Query> queries) const {
  BIKEGRAPH_ASSIGN_OR_RETURN(Pinned pinned, Pin());
  return ExecuteBatchOn(pinned, queries);
}

QueryService::BatchOutcome QueryService::ExecuteBatchOn(
    const Pinned& pinned, std::span<const Query> queries) const {
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  BatchOutcome outcome;
  outcome.epoch = pinned.epoch();
  outcome.answers.reserve(queries.size());
  for (const Query& q : queries) outcome.answers.push_back(pinned.Execute(q));
  return outcome;
}

QueryServiceStats QueryService::stats() const {
  QueryServiceStats s;
  s.pins = stat_pins_.load(std::memory_order_relaxed);
  s.batches = stat_batches_.load(std::memory_order_relaxed);
  s.queries = stat_queries_.load(std::memory_order_relaxed);
  s.query_errors = stat_query_errors_.load(std::memory_order_relaxed);
  s.community_memo_hits = stat_community_hits_.load(std::memory_order_relaxed);
  s.community_memo_misses =
      stat_community_misses_.load(std::memory_order_relaxed);
  s.pairs_memo_hits = stat_pairs_hits_.load(std::memory_order_relaxed);
  s.pairs_memo_misses = stat_pairs_misses_.load(std::memory_order_relaxed);
  return s;
}

size_t QueryService::memo_size() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return memos_.size();
}

}  // namespace bikegraph::query
