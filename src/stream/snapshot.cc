#include "stream/snapshot.h"

#include <array>

#include "core/checked_cast.h"

namespace bikegraph::stream {

namespace {

/// Sum of `count` copies of `w`, added one at a time. The batch builder
/// accumulates each trip's weight individually, so a snapshot that wants
/// bit-identical weights must round the same way — `count * w` is not the
/// same double once count * w needs more than one rounding step.
double RepeatedSum(double w, int64_t count) {
  double total = 0.0;
  for (int64_t i = 0; i < count; ++i) total += w;
  return total;
}

/// The one per-pair edge weight formula both freeze paths share — the
/// delta path's bit-identity to the full path holds by construction,
/// not by keeping two copies in sync. Trip count for kNull; otherwise
/// the batch builder's repeated per-trip sum.
double PairWeight(const analysis::StationProfiles& profiles, int32_t u,
                  int32_t v, const analysis::TemporalGraphOptions& projection,
                  int64_t trips) {
  if (projection.granularity == analysis::TemporalGranularity::kNull) {
    return static_cast<double>(trips);
  }
  return RepeatedSum(
      analysis::PerTripWeight(profiles, static_cast<size_t>(u),
                              static_cast<size_t>(v), projection),
      trips);
}

/// Input validation shared by both freeze paths, run before either
/// reads the window.
Status ValidateFreezeInputs(size_t station_count,
                            const analysis::TemporalGraphOptions& projection) {
  // A window past kMaxWindowStations holds no pair triangle to read (the
  // landmark length leaves the station bound as the only rule to fail).
  BIKEGRAPH_RETURN_NOT_OK(CheckWindowOptions({station_count, 0}));
  if (projection.similarity_floor < 0.0 || projection.similarity_floor > 1.0) {
    return Status::InvalidArgument("similarity_floor must be in [0, 1]");
  }
  return Status::OK();
}

using Shards = std::span<const SlidingWindowGraph* const>;

/// The fields both freeze paths take from the window as a whole: its
/// bounds are those of the newest shard (an idle shard may not have
/// seen a trip yet), its trips their sum.
WindowSnapshot FrameOf(Shards shards,
                       const analysis::TemporalGraphOptions& projection) {
  WindowSnapshot snap;
  const SlidingWindowGraph* newest = shards.front();
  for (const SlidingWindowGraph* shard : shards) {
    if (shard->watermark() > newest->watermark()) newest = shard;
    snap.trip_count += shard->trip_count();
  }
  snap.window_start = newest->window_start();
  snap.window_end = newest->watermark();
  snap.projection = projection;
  return snap;
}

/// Writes `station`'s profile row from the shards' integral counters,
/// summed before the one conversion to double: integer addition is exact
/// and order-independent, so the row is bit-equal to the one a single
/// window over the union stream would export.
void FreezeProfileRow(Shards shards, int32_t station,
                      analysis::StationProfiles& profiles) {
  std::array<int64_t, 7> day = shards.front()->DayCounts(station);
  std::array<int64_t, 24> hour = shards.front()->HourCounts(station);
  for (const SlidingWindowGraph* shard : shards.subspan(1)) {
    const std::array<int64_t, 7>& d = shard->DayCounts(station);
    const std::array<int64_t, 24>& h = shard->HourCounts(station);
    for (size_t i = 0; i < day.size(); ++i) day[i] += d[i];
    for (size_t i = 0; i < hour.size(); ++i) hour[i] += h[i];
  }
  std::array<double, 7>& day_row = profiles.day[AsIndex(station)];
  std::array<double, 24>& hour_row = profiles.hour[AsIndex(station)];
  for (size_t i = 0; i < day.size(); ++i) {
    day_row[i] = static_cast<double>(day[i]);
  }
  for (size_t i = 0; i < hour.size(); ++i) {
    hour_row[i] = static_cast<double>(hour[i]);
  }
}

/// Live trips between `u` and `v`: only the owning shard holds a
/// nonzero count, so the sum is its value and needs no router.
int64_t TripsBetween(Shards shards, int32_t u, int32_t v) {
  int64_t total = 0;
  for (const SlidingWindowGraph* shard : shards) {
    total += shard->TripsBetween(u, v);
  }
  return total;
}

}  // namespace

size_t MaxDeltaDirtyPairs(const SnapshotDeltaPolicy& policy,
                          size_t live_pairs) {
  const double cut_off =
      policy.max_dirty_fraction * static_cast<double>(live_pairs + 1);
  // NaN, infinite and past-size_t products never bind.
  if (!(cut_off < static_cast<double>(SIZE_MAX))) return SIZE_MAX;
  if (cut_off <= 0.0) return 0;
  return static_cast<size_t>(cut_off);
}

std::shared_ptr<const geo::GridIndex> BuildFrozenStationIndex(
    const std::vector<geo::LatLon>& station_positions) {
  if (station_positions.empty()) return nullptr;
  auto index = std::make_shared<geo::GridIndex>();
  for (size_t s = 0; s < station_positions.size(); ++s) {
    index->Add(static_cast<int64_t>(s), station_positions[s]);
  }
  return index;
}

Result<WindowSnapshot> FreezeSnapshot(
    const SlidingWindowGraph& window,
    const analysis::TemporalGraphOptions& projection,
    std::shared_ptr<const geo::GridIndex> station_index) {
  const SlidingWindowGraph* shard = &window;
  return FreezeSnapshot(Shards(&shard, 1), projection,
                        std::move(station_index));
}

Result<WindowSnapshot> FreezeSnapshot(
    Shards shards, const analysis::TemporalGraphOptions& projection,
    std::shared_ptr<const geo::GridIndex> station_index) {
  if (shards.empty()) {
    return Status::InvalidArgument("a freeze needs at least one shard");
  }
  const size_t n = shards.front()->station_count();
  BIKEGRAPH_RETURN_NOT_OK(ValidateFreezeInputs(n, projection));

  WindowSnapshot snap = FrameOf(shards, projection);
  snap.profiles.day.assign(n, {});
  snap.profiles.hour.assign(n, {});
  for (size_t s = 0; s < n; ++s) {
    FreezeProfileRow(shards, static_cast<int32_t>(s), snap.profiles);
  }

  // ForEachPairIn visits the pairs strictly ascending with u <= v, which
  // is exactly the order the sort-free CSR writer takes.
  size_t pair_count = 0;
  for (const SlidingWindowGraph* shard : shards) {
    pair_count += shard->pair_count();
  }
  std::vector<graphdb::WeightedGraph::Edge> edges;
  edges.reserve(pair_count);
  SlidingWindowGraph::ForEachPairIn(
      shards, [&](int32_t u, int32_t v, int64_t trips) {
        edges.push_back(
            {u, v, PairWeight(snap.profiles, u, v, projection, trips)});
      });
  BIKEGRAPH_ASSIGN_OR_RETURN(snap.graph,
                             graphdb::WeightedGraph::FromSortedEdges(n, edges));
  snap.station_index = std::move(station_index);
  return snap;
}

Result<WindowSnapshot> FreezeSnapshotDelta(
    const SlidingWindowGraph& window, const WindowSnapshot& previous,
    const WindowDirtySet& changes,
    const analysis::TemporalGraphOptions& projection,
    std::shared_ptr<const geo::GridIndex> station_index,
    const SnapshotDeltaPolicy& policy, bool* used_delta) {
  const SlidingWindowGraph* shard = &window;
  return FreezeSnapshotDelta(Shards(&shard, 1), previous, changes,
                             projection, std::move(station_index), policy,
                             used_delta);
}

Result<WindowSnapshot> FreezeSnapshotDelta(
    Shards shards, const WindowSnapshot& previous,
    const WindowDirtySet& changes,
    const analysis::TemporalGraphOptions& projection,
    std::shared_ptr<const geo::GridIndex> station_index,
    const SnapshotDeltaPolicy& policy, bool* used_delta) {
  if (used_delta != nullptr) *used_delta = false;
  if (shards.empty()) {
    return Status::InvalidArgument("a freeze needs at least one shard");
  }
  const size_t n = shards.front()->station_count();
  const bool temporal =
      projection.granularity != analysis::TemporalGranularity::kNull;
  // A fraction <= 0 refuses every patch; NaN compares false and so
  // never falls back on size.
  bool delta_applicable = !(policy.max_dirty_fraction <= 0.0) &&
                          changes.complete &&
                          previous.graph.node_count() == n &&
                          previous.profiles.day.size() == n &&
                          previous.profiles.hour.size() == n &&
                          previous.projection.granularity ==
                              projection.granularity &&
                          previous.projection.similarity_floor ==
                              projection.similarity_floor &&
                          previous.projection.contrast == projection.contrast;
  if (delta_applicable) {
    // Patched-edge estimate: every dirty pair, plus (temporal only —
    // profile changes reweight whole rows) the previous edges incident
    // to each profile-dirty station.
    size_t affected = changes.pairs.size();
    if (temporal) {
      for (int32_t s : changes.stations) {
        affected += previous.graph.degree(s) + 1;  // +1: the self-loop
      }
    }
    const size_t base_edges =
        previous.graph.edge_count() + previous.graph.self_loop_count() + 1;
    if (static_cast<double>(affected) >
        policy.max_dirty_fraction * static_cast<double>(base_edges)) {
      delta_applicable = false;
    }
  }
  if (!delta_applicable) {
    return FreezeSnapshot(shards, projection, std::move(station_index));
  }
  BIKEGRAPH_RETURN_NOT_OK(ValidateFreezeInputs(n, projection));

  WindowSnapshot snap = FrameOf(shards, projection);

  // Profiles: copy-on-write — block-copy the previous epoch's arrays,
  // re-derive only the profile-dirty stations from the live counters.
  snap.profiles = previous.profiles;
  for (int32_t s : changes.stations) {
    FreezeProfileRow(shards, s, snap.profiles);
  }

  // Edge updates: absolute new weights for every dirty pair (absence =
  // removal), recomputed with the shared PairWeight formula so a patched
  // edge is bit-identical to its rebuilt counterpart.
  const auto weight_of = [&](int32_t u, int32_t v, int64_t trips) {
    return PairWeight(snap.profiles, u, v, projection, trips);
  };
  std::vector<graphdb::WeightedGraphPatcher::EdgeUpdate> updates;
  updates.reserve(changes.pairs.size());
  for (uint64_t key : changes.pairs) {
    const auto u = static_cast<int32_t>(key >> 32);
    const auto v = static_cast<int32_t>(key & 0xFFFFFFFFu);
    const int64_t trips = TripsBetween(shards, u, v);
    updates.push_back({u, v, trips == 0 ? 0.0 : weight_of(u, v, trips),
                       trips == 0});
  }
  if (temporal) {
    // A dirty profile reweights every surviving edge at that station,
    // not just the pairs whose trip count moved. Pairs covered twice
    // (both endpoints dirty, or also trip-dirty) are deduplicated by
    // the patcher; the recomputed weights agree bit for bit.
    for (int32_t s : changes.stations) {
      for (const auto& nb : previous.graph.neighbors(s)) {
        const int64_t trips = TripsBetween(shards, s, nb.node);
        updates.push_back(
            {s, nb.node, trips == 0 ? 0.0 : weight_of(s, nb.node, trips),
             trips == 0});
      }
      const int64_t self_trips = TripsBetween(shards, s, s);
      // lint: float-eq-ok: a station with no self trips has an
      // exactly-0.0 self weight by construction; this detects a
      // stale nonzero entry that must be patched away.
      if (self_trips > 0 || previous.graph.self_weight(s) != 0.0) {
        updates.push_back({s, s,
                           self_trips == 0 ? 0.0 : weight_of(s, s, self_trips),
                           self_trips == 0});
      }
    }
  }
  BIKEGRAPH_ASSIGN_OR_RETURN(
      snap.graph,
      graphdb::WeightedGraphPatcher::Apply(previous.graph,
                                           std::move(updates)));
  snap.station_index = std::move(station_index);
  if (used_delta != nullptr) *used_delta = true;
  return snap;
}

std::shared_ptr<const WindowSnapshot> SnapshotPublisher::Publish(
    WindowSnapshot snapshot) {
  // Single-writer: only the publishing thread stores stamped_.
  const uint64_t next = stamped_.load(std::memory_order_relaxed) + 1;
  snapshot.epoch = next;
  auto published =
      std::make_shared<const WindowSnapshot>(std::move(snapshot));
  current_.store(published, std::memory_order_release);
  // After the snapshot: a reader that sees no snapshot yet and reads
  // `next` here (acquire) also sees the snapshot in its next Current().
  stamped_.store(next, std::memory_order_release);
  return published;
}

uint64_t SnapshotPublisher::epoch() const {
  const auto snapshot = current_.load(std::memory_order_acquire);
  return snapshot != nullptr ? snapshot->epoch
                             : stamped_.load(std::memory_order_acquire);
}

void SnapshotPublisher::RestoreEpoch(uint64_t epoch) {
  current_.store(nullptr, std::memory_order_release);
  stamped_.store(epoch, std::memory_order_release);
}

}  // namespace bikegraph::stream
