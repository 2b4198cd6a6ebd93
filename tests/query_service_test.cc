// QueryService bit-identity and semantics: every vocabulary query through
// an epoch-pinned handle answers bit-identically to the direct computation
// on the same WindowSnapshot (sliding and landmark windows, GBasic and
// temporal projections); pinned handles keep answering from their epoch
// while newer epochs publish; the per-epoch memo computes once, is shared
// across pins of one epoch, and stays bounded; batches answer per slot.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/temporal_graph.h"
#include "community/detector.h"
#include "core/status.h"
#include "geo/latlon.h"
#include "query/query.h"
#include "query/service.h"
#include "stream/engine.h"
#include "stream/snapshot.h"
#include "stream/testing.h"
#include "stream/window_graph.h"

#include <gtest/gtest.h>

namespace bikegraph::query {
namespace {

using stream::StreamEngine;
using stream::StreamEngineConfig;
using stream::WindowSnapshot;

std::vector<geo::LatLon> GridPositions(size_t n) {
  std::vector<geo::LatLon> positions;
  positions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    positions.emplace_back(53.33 + 0.002 * static_cast<double>(i % 6),
                           -6.30 + 0.003 * static_cast<double>(i / 6));
  }
  return positions;
}

/// Feeds a planted stream into a fresh engine, publishing an epoch every
/// `snapshot_every` events, and returns the engine (flushed, with a final
/// published epoch).
std::unique_ptr<StreamEngine> ServeStream(StreamEngineConfig config,
                                          size_t stations, uint64_t seed,
                                          size_t snapshot_every = 100) {
  auto engine = std::make_unique<StreamEngine>(std::move(config));
  const auto events = stream::testing::PlantedStream(
      stations, 4, /*days=*/3, /*trips_per_day=*/120, seed);
  size_t i = 0;
  for (const auto& e : events) {
    EXPECT_TRUE(engine->Ingest(e).ok());
    if (++i % snapshot_every == 0) {
      EXPECT_TRUE(engine->Snapshot().ok());
    }
  }
  EXPECT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(engine->Snapshot().ok());
  return engine;
}

/// The test's own top-pairs reference: full enumeration + full sort with
/// the documented order (weight desc, ties (u, v) asc, self pairs
/// included) — independent of ComputeTopPairs' partial_sort.
std::vector<TopPair> ReferenceTopPairs(const graphdb::WeightedGraph& graph,
                                       size_t k) {
  std::vector<TopPair> all;
  for (size_t u = 0; u < graph.node_count(); ++u) {
    const auto iu = static_cast<int32_t>(u);
    if (graph.self_weight(iu) > 0.0) {
      all.push_back({iu, iu, graph.self_weight(iu)});
    }
    for (const auto& nb : graph.neighbors(iu)) {
      if (nb.node > iu) all.push_back({iu, nb.node, nb.weight});
    }
  }
  std::sort(all.begin(), all.end(), [](const TopPair& a, const TopPair& b) {
    if (a.weight > b.weight) return true;
    if (b.weight > a.weight) return false;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

/// The test's own inter-community flow reference, accumulated in the
/// documented (u ascending, neighbor ascending, canonical community pair)
/// order so the doubles match bit for bit.
std::vector<double> ReferenceFlowMatrix(const graphdb::WeightedGraph& graph,
                                        const std::vector<int32_t>& assignment,
                                        size_t communities) {
  std::vector<double> flow(communities * communities, 0.0);
  for (size_t u = 0; u < graph.node_count(); ++u) {
    const auto iu = static_cast<int32_t>(u);
    const auto cu = static_cast<size_t>(assignment[u]);
    flow[cu * communities + cu] += graph.self_weight(iu);
    for (const auto& nb : graph.neighbors(iu)) {
      if (nb.node <= iu) continue;
      const auto cv = static_cast<size_t>(assignment[static_cast<size_t>(nb.node)]);
      flow[std::min(cu, cv) * communities + std::max(cu, cv)] += nb.weight;
    }
  }
  for (size_t a = 0; a < communities; ++a) {
    for (size_t b = a + 1; b < communities; ++b) {
      flow[b * communities + a] = flow[a * communities + b];
    }
  }
  return flow;
}

struct Scenario {
  const char* name;
  int64_t window_seconds;
  analysis::TemporalGranularity granularity;
  uint64_t seed;
};

TEST(QueryServiceBitMatch, AnswersMatchDirectComputation) {
  constexpr size_t kStations = 24;
  const Scenario scenarios[] = {
      {"sliding_gbasic", 2 * 86400, analysis::TemporalGranularity::kNull, 11},
      {"landmark_gbasic", 0, analysis::TemporalGranularity::kNull, 22},
      {"sliding_gday", 2 * 86400, analysis::TemporalGranularity::kDay, 33},
  };
  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    StreamEngineConfig config;
    config.station_count = kStations;
    config.window_seconds = sc.window_seconds;
    config.projection.granularity = sc.granularity;
    config.station_positions = GridPositions(kStations);
    auto engine = ServeStream(std::move(config), kStations, sc.seed);

    QueryService service(*engine);
    auto pinned = service.Pin();
    ASSERT_TRUE(pinned.ok());
    const QueryService::Pinned& pin = *pinned;
    const WindowSnapshot& snap = pin.snapshot();
    ASSERT_GT(snap.graph.node_count(), 0u);

    // Direct detection on the same snapshot graph: deterministic given
    // the seeded spec, so the memoized run must agree exactly.
    auto direct = community::Detect(snap.graph, service.options().detection);
    ASSERT_TRUE(direct.ok());
    const auto& assignment = direct->partition.assignment;
    const auto sizes = direct->partition.CommunitySizes();

    for (size_t s = 0; s < kStations; ++s) {
      const auto station = static_cast<int32_t>(s);

      auto community_of = pin.CommunityOf(station);
      ASSERT_TRUE(community_of.ok());
      EXPECT_EQ(community_of->community, assignment[s]);
      EXPECT_EQ(community_of->community_size,
                sizes[static_cast<size_t>(assignment[s])]);
      EXPECT_EQ(community_of->community_count, sizes.size());
      EXPECT_EQ(community_of->modularity, direct->modularity);

      auto profile = pin.Profile(station);
      ASSERT_TRUE(profile.ok());
      EXPECT_EQ(profile->day, snap.profiles.day[s]);
      EXPECT_EQ(profile->hour, snap.profiles.hour[s]);
      double endpoint_total = 0.0;
      for (double d : snap.profiles.day[s]) endpoint_total += d;
      EXPECT_EQ(profile->endpoint_total, endpoint_total);

      auto knearest = pin.KNearest(station, 4);
      ASSERT_TRUE(knearest.ok());
      const auto reference = snap.station_index->KNearest(
          snap.station_index->PointOf(station), 4, station);
      ASSERT_EQ(knearest->neighbors.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(knearest->neighbors[i].id, reference[i].id);
        EXPECT_EQ(knearest->neighbors[i].distance_m,
                  reference[i].distance_m);
      }
    }

    // Top pairs: the full ranking and a short prefix.
    const size_t all_pairs =
        snap.graph.edge_count() + snap.graph.self_loop_count();
    for (size_t k : {size_t{3}, all_pairs}) {
      auto top = pin.TopPairs(k);
      ASSERT_TRUE(top.ok());
      const auto reference = ReferenceTopPairs(snap.graph, k);
      ASSERT_EQ(top->pairs.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(top->pairs[i].u, reference[i].u);
        EXPECT_EQ(top->pairs[i].v, reference[i].v);
        EXPECT_EQ(top->pairs[i].weight, reference[i].weight);
      }
    }

    // Inter-community flow, every label pair.
    auto count = pin.CommunityCount();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, sizes.size());
    const auto flow_ref =
        ReferenceFlowMatrix(snap.graph, assignment, sizes.size());
    for (size_t a = 0; a < sizes.size(); ++a) {
      for (size_t b = 0; b < sizes.size(); ++b) {
        auto flow = pin.Flow(static_cast<int32_t>(a), static_cast<int32_t>(b));
        ASSERT_TRUE(flow.ok());
        EXPECT_EQ(flow->flow, flow_ref[a * sizes.size() + b]);
      }
    }
  }
}

TEST(QueryServiceTest, PinnedHandleKeepsAnsweringFromItsEpoch) {
  constexpr size_t kStations = 24;
  StreamEngineConfig config;
  config.station_count = kStations;
  config.window_seconds = 0;  // landmark: later trips only add weight
  config.station_positions = GridPositions(kStations);
  StreamEngine engine(std::move(config));
  const auto events =
      stream::testing::PlantedStream(kStations, 4, 2, 150, 44);

  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.Ingest(events[i]).ok());
  }
  ASSERT_TRUE(engine.Snapshot().ok());

  QueryService service(engine);
  auto old_pin = service.Pin();
  ASSERT_TRUE(old_pin.ok());
  const uint64_t old_epoch = old_pin->epoch();
  const size_t old_trips = old_pin->snapshot().trip_count;
  auto old_top = old_pin->TopPairs(5);
  ASSERT_TRUE(old_top.ok());

  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE(engine.Ingest(events[i]).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Snapshot().ok());

  auto new_pin = service.Pin();
  ASSERT_TRUE(new_pin.ok());
  EXPECT_GT(new_pin->epoch(), old_epoch);
  EXPECT_GT(new_pin->snapshot().trip_count, old_trips);

  // The old handle still answers from its epoch, bit for bit.
  EXPECT_EQ(old_pin->epoch(), old_epoch);
  EXPECT_EQ(old_pin->snapshot().trip_count, old_trips);
  auto old_top_again = old_pin->TopPairs(5);
  ASSERT_TRUE(old_top_again.ok());
  ASSERT_EQ(old_top_again->pairs.size(), old_top->pairs.size());
  for (size_t i = 0; i < old_top->pairs.size(); ++i) {
    EXPECT_EQ(old_top_again->pairs[i].u, old_top->pairs[i].u);
    EXPECT_EQ(old_top_again->pairs[i].v, old_top->pairs[i].v);
    EXPECT_EQ(old_top_again->pairs[i].weight, old_top->pairs[i].weight);
  }
  // The publisher has moved on regardless.
  EXPECT_EQ(engine.publisher().epoch(), new_pin->epoch());
}

TEST(QueryServiceTest, MemoComputesOncePerEpochAndStaysBounded) {
  constexpr size_t kStations = 12;
  StreamEngineConfig config;
  config.station_count = kStations;
  config.window_seconds = 0;
  StreamEngine engine(std::move(config));
  const auto events =
      stream::testing::PlantedStream(kStations, 3, 2, 120, 55);

  QueryServiceOptions options;
  options.memo_epochs = 2;
  QueryService service(engine, options);

  // Before anything is published, pinning must fail cleanly.
  auto early = service.Pin();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  constexpr size_t kEpochs = 4;
  const size_t chunk = events.size() / kEpochs;
  size_t fed = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    for (size_t i = 0; i < chunk; ++i) {
      ASSERT_TRUE(engine.Ingest(events[fed++]).ok());
    }
    ASSERT_TRUE(engine.Snapshot().ok());

    auto pin = service.Pin();
    ASSERT_TRUE(pin.ok());
    // First community query of the epoch computes; the second hits.
    ASSERT_TRUE(pin->CommunityOf(0).ok());
    ASSERT_TRUE(pin->CommunityOf(1).ok());
    ASSERT_TRUE(pin->TopPairs(3).ok());
    ASSERT_TRUE(pin->TopPairs(5).ok());

    // A second pin of the SAME epoch shares the memo cell.
    auto again = service.Pin();
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->epoch(), pin->epoch());
    ASSERT_TRUE(again->CommunityOf(2).ok());

    EXPECT_LE(service.memo_size(), options.memo_epochs);
  }

  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.community_memo_misses, kEpochs);
  EXPECT_EQ(stats.community_memo_hits, 2 * kEpochs);
  EXPECT_EQ(stats.pairs_memo_misses, kEpochs);
  EXPECT_EQ(stats.pairs_memo_hits, kEpochs);
  EXPECT_EQ(stats.pins, 2 * kEpochs + 0u);
  EXPECT_EQ(service.memo_size(), options.memo_epochs);
}

TEST(QueryServiceTest, BatchAnswersPerSlotAndMatchesIndividualExecution) {
  constexpr size_t kStations = 24;
  StreamEngineConfig config;
  config.station_count = kStations;
  config.station_positions = GridPositions(kStations);
  auto engine = ServeStream(std::move(config), kStations, 66);
  QueryService service(*engine);

  const std::vector<Query> batch = {
      StationProfileQuery{3},
      CommunityOfStationQuery{-1},            // invalid station
      KNearestStationsQuery{5, 3},
      TopPairsQuery{4},
      InterCommunityFlowQuery{0, 1 << 20},    // label out of range
      CommunityOfStationQuery{7},
      StationProfileQuery{1 << 20},           // invalid station
      InterCommunityFlowQuery{0, 0},
  };
  auto outcome = service.ExecuteBatch(batch);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->answers.size(), batch.size());

  EXPECT_FALSE(outcome->answers[1].ok());
  EXPECT_EQ(outcome->answers[1].status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(outcome->answers[4].ok());
  EXPECT_FALSE(outcome->answers[6].ok());

  // Valid slots agree with individual execution against a pin of the
  // same (only) epoch.
  auto pin = service.Pin();
  ASSERT_TRUE(pin.ok());
  ASSERT_EQ(pin->epoch(), outcome->epoch);
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}, size_t{5}, size_t{7}}) {
    ASSERT_TRUE(outcome->answers[i].ok()) << "slot " << i;
    auto individual = pin->Execute(batch[i]);
    ASSERT_TRUE(individual.ok());
    EXPECT_EQ(outcome->answers[i]->index(), individual->index());
  }
  const auto& batch_profile =
      std::get<StationProfileResult>(*outcome->answers[0]);
  const auto direct_profile = pin->Profile(3);
  ASSERT_TRUE(direct_profile.ok());
  EXPECT_EQ(batch_profile.day, direct_profile->day);
  EXPECT_EQ(batch_profile.endpoint_total, direct_profile->endpoint_total);
  const auto& batch_flow =
      std::get<InterCommunityFlowResult>(*outcome->answers[7]);
  const auto direct_flow = pin->Flow(0, 0);
  ASSERT_TRUE(direct_flow.ok());
  EXPECT_EQ(batch_flow.flow, direct_flow->flow);

  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_GE(stats.query_errors, 3u);
}

TEST(QueryServiceTest, KNearestWithoutStationIndexFailsCleanly) {
  StreamEngineConfig config;
  config.station_count = 12;  // no station_positions
  config.window_seconds = 0;
  auto engine = ServeStream(std::move(config), 12, 77);
  QueryService service(*engine);
  auto pin = service.Pin();
  ASSERT_TRUE(pin.ok());
  auto knearest = pin->KNearest(0, 3);
  ASSERT_FALSE(knearest.ok());
  EXPECT_EQ(knearest.status().code(), StatusCode::kFailedPrecondition);
  // The rest of the vocabulary still answers.
  EXPECT_TRUE(pin->Profile(0).ok());
  EXPECT_TRUE(pin->CommunityOf(0).ok());
}

TEST(QueryServiceTest, KNearestAnswersOnlyStationsTheIndexHolds) {
  // A snapshot frozen with an index over a table whose station 1 has no
  // valid position: the index holds stations 0 and 2 only.
  stream::SlidingWindowGraph window(stream::WindowGraphOptions{3, 0});
  const auto index = stream::BuildFrozenStationIndex(
      {geo::LatLon(53.35, -6.26), geo::LatLon(std::nan(""), -6.25),
       geo::LatLon(53.36, -6.27)});
  ASSERT_EQ(index->size(), 2u);
  auto frozen = stream::FreezeSnapshot(window, {}, index);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  stream::SnapshotPublisher publisher;
  publisher.Publish(std::move(*frozen));
  QueryService service(publisher);
  auto pin = service.Pin();
  ASSERT_TRUE(pin.ok());

  // Station 2 is held although its id is not below the index's size();
  // its only neighbour is station 0.
  auto held = pin->KNearest(2, 5);
  ASSERT_TRUE(held.ok()) << held.status();
  ASSERT_EQ(held->neighbors.size(), 1u);
  EXPECT_EQ(held->neighbors[0].id, 0);
  for (const int32_t absent : {1, 3, -1}) {
    auto refused = pin->KNearest(absent, 5);
    ASSERT_FALSE(refused.ok()) << absent;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << absent;
    EXPECT_EQ(refused.status().message(),
              "station " + std::to_string(absent) +
                  " is not in the station index");
  }
}

}  // namespace
}  // namespace bikegraph::query
