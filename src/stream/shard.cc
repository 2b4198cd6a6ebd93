#include "stream/shard.h"

#include <algorithm>
#include <cassert>

namespace bikegraph::stream {

ShardedWindowView::ShardedWindowView(
    std::vector<const SlidingWindowGraph*> shards)
    : shards_(std::move(shards)) {
  assert(!shards_.empty() && "a view needs at least one shard");
}

size_t ShardedWindowView::station_count() const {
  return shards_[0]->station_count();
}

size_t ShardedWindowView::trip_count() const {
  size_t total = 0;
  for (const SlidingWindowGraph* shard : shards_) {
    total += shard->trip_count();
  }
  return total;
}

size_t ShardedWindowView::pair_count() const {
  size_t total = 0;
  for (const SlidingWindowGraph* shard : shards_) {
    total += shard->pair_count();
  }
  return total;
}

CivilTime ShardedWindowView::watermark() const {
  CivilTime newest(INT64_MIN);
  for (const SlidingWindowGraph* shard : shards_) {
    if (shard->watermark() > newest) newest = shard->watermark();
  }
  return newest;
}

CivilTime ShardedWindowView::window_start() const {
  // Mirrors SlidingWindowGraph::window_start() over the merged
  // watermark: INT64_MIN for a landmark window (window_seconds <= 0) or
  // before any event, else the exclusive bound watermark - window.
  const int64_t window_seconds = shards_[0]->options().window_seconds;
  const CivilTime mark = watermark();
  if (window_seconds <= 0 || mark == CivilTime(INT64_MIN)) {
    return CivilTime(INT64_MIN);
  }
  return mark.AddSeconds(-window_seconds);
}

int64_t ShardedWindowView::TripsBetween(int32_t u, int32_t v) const {
  // Exclusive pair ownership: at most one shard holds a nonzero count,
  // so the sum needs no router — and stays correct even if routing
  // policy changes.
  int64_t total = 0;
  for (const SlidingWindowGraph* shard : shards_) {
    total += shard->TripsBetween(u, v);
  }
  return total;
}

std::array<int64_t, 7> ShardedWindowView::DayCounts(int32_t station) const {
  std::array<int64_t, 7> merged{};
  for (const SlidingWindowGraph* shard : shards_) {
    const std::array<int64_t, 7>& counts = shard->DayCounts(station);
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += counts[i];
  }
  return merged;
}

std::array<int64_t, 24> ShardedWindowView::HourCounts(
    int32_t station) const {
  std::array<int64_t, 24> merged{};
  for (const SlidingWindowGraph* shard : shards_) {
    const std::array<int64_t, 24>& counts = shard->HourCounts(station);
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += counts[i];
  }
  return merged;
}

analysis::StationProfiles ShardedWindowView::Profiles() const {
  // Sum the *integral* shard counters and convert once: integer addition
  // is exact and order-independent, so the merged profile is bit-equal
  // to the profile a single window over the union stream would export.
  analysis::StationProfiles profiles;
  const size_t n = station_count();
  profiles.day.assign(n, {});
  profiles.hour.assign(n, {});
  for (size_t s = 0; s < n; ++s) {
    const auto station = static_cast<int32_t>(s);
    const std::array<int64_t, 7> day = DayCounts(station);
    const std::array<int64_t, 24> hour = HourCounts(station);
    for (size_t i = 0; i < day.size(); ++i) {
      profiles.day[s][i] = static_cast<double>(day[i]);
    }
    for (size_t i = 0; i < hour.size(); ++i) {
      profiles.hour[s][i] = static_cast<double>(hour[i]);
    }
  }
  return profiles;
}

WindowDirtySet MergeDirtySets(const std::vector<WindowDirtySet>& inputs) {
  WindowDirtySet merged;
  merged.complete = !inputs.empty();
  size_t pair_total = 0;
  size_t station_total = 0;
  for (const WindowDirtySet& in : inputs) {
    merged.complete = merged.complete && in.complete;
    pair_total += in.pairs.size();
    station_total += in.stations.size();
  }
  merged.pairs.reserve(pair_total);
  merged.stations.reserve(station_total);
  for (const WindowDirtySet& in : inputs) {
    merged.pairs.insert(merged.pairs.end(), in.pairs.begin(),
                        in.pairs.end());
    merged.stations.insert(merged.stations.end(), in.stations.begin(),
                           in.stations.end());
  }
  // Pairs are disjoint across shards (exclusive ownership), so sorting
  // alone yields the deduplicated union; stations can be dirtied from
  // several shards and need the unique pass.
  std::sort(merged.pairs.begin(), merged.pairs.end());
  std::sort(merged.stations.begin(), merged.stations.end());
  merged.stations.erase(
      std::unique(merged.stations.begin(), merged.stations.end()),
      merged.stations.end());
  return merged;
}

}  // namespace bikegraph::stream
