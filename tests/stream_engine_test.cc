// StreamEngine end-to-end: a landmark replay of the full synthetic
// dataset must reproduce the batch pipeline's graph and Louvain partition
// bit for bit; sliding windows with warm-start refresh must track the
// full re-detect closely; snapshots are immutable and epoch-stamped.

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/temporal_graph.h"
#include "community/detector.h"
#include "community/partition.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "expansion/pipeline.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/testing.h"

#include <gtest/gtest.h>

namespace bikegraph::stream {
namespace {

namespace fs = std::filesystem;

void ExpectGraphsIdentical(const graphdb::WeightedGraph& a,
                           const graphdb::WeightedGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  ASSERT_EQ(a.self_loop_count(), b.self_loop_count());
  EXPECT_EQ(a.total_weight(), b.total_weight());  // bitwise, not NEAR
  for (size_t u = 0; u < a.node_count(); ++u) {
    const auto ui = static_cast<int32_t>(u);
    EXPECT_EQ(a.self_weight(ui), b.self_weight(ui)) << "node " << u;
    EXPECT_EQ(a.strength(ui), b.strength(ui)) << "node " << u;
    auto na = a.neighbors(ui);
    auto nb = b.neighbors(ui);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].node, nb[i].node) << "node " << u << " nb " << i;
      EXPECT_EQ(na[i].weight, nb[i].weight) << "node " << u << " nb " << i;
    }
  }
}

/// The batch side of the acceptance criterion, computed once for the
/// whole fixture: synthetic dataset → expansion pipeline → final network.
class StreamBatchEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig synth;  // the full synthetic Moby dataset
    auto raw = data::GenerateSyntheticMoby(synth);
    ASSERT_TRUE(raw.ok());
    auto pipeline = expansion::RunExpansionPipeline(*raw);
    ASSERT_TRUE(pipeline.ok());
    pipeline_ = new expansion::PipelineResult(std::move(*pipeline));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static expansion::PipelineResult* pipeline_;
};

expansion::PipelineResult* StreamBatchEquivalenceTest::pipeline_ = nullptr;

TEST_F(StreamBatchEquivalenceTest, LandmarkReplayReproducesBatchGBasic) {
  const expansion::FinalNetwork& net = pipeline_->final_network;

  // Batch: GBasic projection + Louvain, exactly as RunPaperExperiment.
  auto batch_graph = analysis::BuildTemporalGraph(net.graph, {});
  ASSERT_TRUE(batch_graph.ok());
  community::DetectSpec spec;  // Louvain, defaults
  auto batch_detect = community::Detect(*batch_graph, spec);
  ASSERT_TRUE(batch_detect.ok());

  // Stream: replay every cleaned rental through a landmark window.
  StreamEngineConfig config;
  config.station_count = net.stations.size();
  config.window_seconds = 0;  // final window covers the whole dataset
  StreamEngine engine(config);
  ReplaySource replay = ReplaySource::FromFinalNetwork(pipeline_->cleaned, net);
  EXPECT_EQ(replay.dropped_count(), 0u);  // Table III: no trips are lost
  EXPECT_EQ(replay.events().size(), pipeline_->cleaned.rentals().size());
  ASSERT_TRUE(replay.ReplayInto(&engine).ok());
  EXPECT_EQ(engine.window().trip_count(), replay.events().size());

  auto snapshot = engine.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ExpectGraphsIdentical((*snapshot)->graph, *batch_graph);

  auto refresh = engine.DetectCurrent();
  ASSERT_TRUE(refresh.ok());
  EXPECT_EQ(refresh->result.partition.assignment,
            batch_detect->partition.assignment);
  EXPECT_EQ(refresh->result.modularity, batch_detect->modularity);
}

TEST_F(StreamBatchEquivalenceTest, LandmarkReplayReproducesBatchGDay) {
  const expansion::FinalNetwork& net = pipeline_->final_network;
  const analysis::ExperimentConfig defaults;
  auto batch_graph = analysis::BuildTemporalGraph(net.graph, defaults.gday);
  ASSERT_TRUE(batch_graph.ok());

  StreamEngineConfig config;
  config.station_count = net.stations.size();
  config.window_seconds = 0;
  config.projection = defaults.gday;
  StreamEngine engine(config);
  ReplaySource replay = ReplaySource::FromFinalNetwork(pipeline_->cleaned, net);
  ASSERT_TRUE(replay.ReplayInto(&engine).ok());

  auto snapshot = engine.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ExpectGraphsIdentical((*snapshot)->graph, *batch_graph);

  // The window profiles match the batch extraction exactly.
  const analysis::StationProfiles batch_profiles =
      analysis::ExtractStationProfiles(net.graph);
  EXPECT_EQ((*snapshot)->profiles.day, batch_profiles.day);
  EXPECT_EQ((*snapshot)->profiles.hour, batch_profiles.hour);
}

TEST_F(StreamBatchEquivalenceTest, LandmarkReplayReproducesBatchGHour) {
  const expansion::FinalNetwork& net = pipeline_->final_network;
  const analysis::ExperimentConfig defaults;
  auto batch_graph = analysis::BuildTemporalGraph(net.graph, defaults.ghour);
  ASSERT_TRUE(batch_graph.ok());

  StreamEngineConfig config;
  config.station_count = net.stations.size();
  config.window_seconds = 0;
  config.projection = defaults.ghour;
  StreamEngine engine(config);
  ReplaySource replay = ReplaySource::FromFinalNetwork(pipeline_->cleaned, net);
  ASSERT_TRUE(replay.ReplayInto(&engine).ok());

  auto snapshot = engine.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ExpectGraphsIdentical((*snapshot)->graph, *batch_graph);
}

// ---------------------------------------------------------------------------
// Sliding-window behaviour on a synthetic planted-community stream.
// ---------------------------------------------------------------------------

using testing::PlantedStream;

TEST(StreamEngineTest, WarmRefreshTracksFullRedetect) {
  const size_t stations = 48;
  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 7 * 86400;
  StreamEngine engine(config);

  const auto events = PlantedStream(stations, 4, 28, 400, 77);
  community::DetectSpec cold_spec;  // Louvain, defaults
  int checked = 0;
  int day = 0;
  for (const TripEvent& e : events) {
    ASSERT_TRUE(engine.Ingest(e).ok());
    const int event_day = static_cast<int>(
        (e.start_time.seconds_since_epoch() -
         events.front().start_time.seconds_since_epoch()) /
        86400);
    if (event_day > day) {
      day = event_day;
      if (day < 7 || day % 3 != 0) continue;  // refresh every 3rd day
      auto refresh = engine.DetectCurrent();
      ASSERT_TRUE(refresh.ok());
      auto snapshot = engine.LatestSnapshot();
      ASSERT_NE(snapshot, nullptr);
      auto cold = community::Detect(snapshot->graph, cold_spec);
      ASSERT_TRUE(cold.ok());
      const double nmi = community::NormalizedMutualInformation(
          refresh->result.partition, cold->partition);
      // Steady-state windows: warm refresh ≥ 0.95 NMI vs full re-detect.
      EXPECT_GE(nmi, 0.95) << "day " << day;
      if (refresh->refresh_count > 1) {
        EXPECT_TRUE(refresh->warm_started || refresh->escalated);
        EXPECT_GE(refresh->nmi_drift, 0.0);
        EXPECT_LE(refresh->nmi_drift, 1.0);
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 5);
}

TEST(StreamEngineTest, PolicyEscalatesToFullRedetect) {
  const size_t stations = 30;
  StreamEngineConfig config;
  config.station_count = stations;
  config.window_seconds = 7 * 86400;
  config.refresh.min_nmi = 1.1;  // impossible: every warm result escalates
  StreamEngine engine(config);

  const auto events = PlantedStream(stations, 3, 14, 200, 5);
  int day = 0;
  for (const TripEvent& e : events) {
    ASSERT_TRUE(engine.Ingest(e).ok());
    const int event_day = static_cast<int>(
        (e.start_time.seconds_since_epoch() -
         events.front().start_time.seconds_since_epoch()) /
        86400);
    if (event_day > day) {
      day = event_day;
      auto refresh = engine.DetectCurrent();
      ASSERT_TRUE(refresh.ok());
      if (refresh->refresh_count > 1) {
        EXPECT_TRUE(refresh->escalated);
        EXPECT_FALSE(refresh->warm_started);
        // The escalated result is exactly the cold run.
        auto cold = community::Detect(engine.LatestSnapshot()->graph,
                                      config.detection);
        ASSERT_TRUE(cold.ok());
        EXPECT_EQ(refresh->result.partition.assignment,
                  cold->partition.assignment);
      }
    }
  }
  EXPECT_GT(engine.tracker().escalation_count(), 0u);
}

TEST(StreamEngineTest, FullRefreshIntervalForcesColdRuns) {
  StreamEngineConfig config;
  config.station_count = 20;
  config.window_seconds = 0;
  config.refresh.full_refresh_interval = 2;
  StreamEngine engine(config);
  const auto events = PlantedStream(20, 2, 6, 150, 9);
  size_t next = 0;
  std::vector<bool> warm_flags;
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < events.size() / 4; ++i) {
      ASSERT_TRUE(engine.Ingest(events[next++]).ok());
    }
    auto refresh = engine.DetectCurrent();
    ASSERT_TRUE(refresh.ok());
    warm_flags.push_back(refresh->warm_started);
  }
  // 1st: cold (no previous). 2nd: cold (interval). 3rd: warm. 4th: cold.
  EXPECT_EQ(warm_flags, (std::vector<bool>{false, false, true, false}));
}

TEST(StreamEngineTest, SeedlessAlgorithmsAlwaysRunCold) {
  StreamEngineConfig config;
  config.station_count = 24;
  config.window_seconds = 0;
  config.detection.algorithm = community::AlgorithmId::kFastGreedy;
  config.refresh.min_nmi = 1.1;  // would force escalation if warm ran
  StreamEngine engine(config);
  const auto events = PlantedStream(24, 3, 4, 150, 13);
  size_t next = 0;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < events.size() / 2; ++i) {
      ASSERT_TRUE(engine.Ingest(events[next++]).ok());
    }
    auto refresh = engine.DetectCurrent();
    ASSERT_TRUE(refresh.ok());
    // Fast-greedy ignores seeds: the tracker must report a cold run and
    // never double-run via escalation.
    EXPECT_FALSE(refresh->warm_started);
    EXPECT_FALSE(refresh->escalated);
  }
  EXPECT_EQ(engine.tracker().escalation_count(), 0u);
}

TEST(StreamEngineTest, DrainedWindowRefreshRunsCold) {
  StreamEngineConfig config;
  config.station_count = 16;
  config.window_seconds = 3600;
  StreamEngine engine(config);
  const auto events = PlantedStream(16, 2, 1, 200, 21);
  for (const TripEvent& e : events) ASSERT_TRUE(engine.Ingest(e).ok());
  auto first = engine.DetectCurrent();
  ASSERT_TRUE(first.ok());

  // Overnight lull: the window drains to zero trips. The refresh must
  // not claim a warm start — there is no evidence to seed from.
  ASSERT_TRUE(engine.Advance(events.back().start_time.AddDays(1)).ok());
  auto drained = engine.DetectCurrent();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(engine.window().trip_count(), 0u);
  EXPECT_FALSE(drained->warm_started);
  EXPECT_FALSE(drained->escalated);
}

/// Two 4-cliques with a weak bridge: stable, obvious community structure
/// so warm refreshes reproduce the seed and nothing escalates.
graphdb::WeightedGraph TwoCliqueGraph() {
  graphdb::WeightedGraphBuilder builder(8);
  for (int32_t base : {0, 4}) {
    for (int32_t u = base; u < base + 4; ++u) {
      for (int32_t v = u + 1; v < base + 4; ++v) {
        (void)builder.AddEdge(u, v, 1.0);
      }
    }
  }
  (void)builder.AddEdge(0, 4, 0.25);
  return builder.Build();
}

// Satellite regression (PR 4): Reset() must zero the refresh and
// escalation counters, not just the seed partition — the refresh counter
// phases the full_refresh_interval cadence, so a stale count carried the
// old schedule across the reset.
TEST(IncrementalCommunityTrackerTest, ResetRestartsTheRefreshCadence) {
  const graphdb::WeightedGraph graph = TwoCliqueGraph();
  community::DetectSpec spec;  // Louvain, defaults
  RefreshPolicy policy;
  policy.full_refresh_interval = 3;
  IncrementalCommunityTracker tracker(policy);

  // Two refreshes advance the cadence to mid-phase...
  ASSERT_TRUE(tracker.Refresh(graph, spec).ok());
  ASSERT_TRUE(tracker.Refresh(graph, spec).ok());
  EXPECT_EQ(tracker.refresh_count(), 2u);

  // ...and a reset must restart it from zero, exactly like a fresh
  // tracker.
  tracker.Reset();
  EXPECT_EQ(tracker.refresh_count(), 0u);
  EXPECT_FALSE(tracker.previous_partition().has_value());

  std::vector<bool> warm_flags;
  for (int i = 0; i < 3; ++i) {
    auto outcome = tracker.Refresh(graph, spec);
    ASSERT_TRUE(outcome.ok());
    warm_flags.push_back(outcome->warm_started);
    EXPECT_EQ(outcome->refresh_count, static_cast<uint64_t>(i + 1));
  }
  // Post-reset schedule with interval 3: cold (no seed), warm, cold
  // (interval due). Pre-fix the stale count made the third refresh warm
  // and the second one's phase wrong.
  EXPECT_EQ(warm_flags, (std::vector<bool>{false, true, false}));
}

TEST(IncrementalCommunityTrackerTest, ResetZeroesEscalationCount) {
  const graphdb::WeightedGraph graph = TwoCliqueGraph();
  community::DetectSpec spec;
  RefreshPolicy policy;
  policy.min_nmi = 1.1;  // impossible: every warm refresh escalates
  IncrementalCommunityTracker tracker(policy);
  ASSERT_TRUE(tracker.Refresh(graph, spec).ok());
  ASSERT_TRUE(tracker.Refresh(graph, spec).ok());
  EXPECT_GT(tracker.escalation_count(), 0u);

  tracker.Reset();
  EXPECT_EQ(tracker.escalation_count(), 0u);
  EXPECT_EQ(tracker.refresh_count(), 0u);
  // The first refresh of the tracker's new life is cold, never an
  // escalation.
  auto outcome = tracker.Refresh(graph, spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->warm_started);
  EXPECT_FALSE(outcome->escalated);
  EXPECT_EQ(tracker.escalation_count(), 0u);
}

TEST(StreamEngineTest, SnapshotsAreImmutableAndEpochStamped) {
  StreamEngineConfig config;
  config.station_count = 4;
  config.window_seconds = 3600;
  StreamEngine engine(config);
  EXPECT_EQ(engine.LatestSnapshot(), nullptr);

  const CivilTime t0 = CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();
  TripEvent e;
  e.from_station = 0;
  e.to_station = 1;
  e.start_time = t0;
  e.end_time = t0.AddSeconds(300);
  ASSERT_TRUE(engine.Ingest(e).ok());

  auto first = engine.Snapshot();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->epoch, 1u);
  EXPECT_EQ((*first)->trip_count, 1u);
  EXPECT_EQ((*first)->graph.WeightBetween(0, 1), 1.0);

  // Nothing changed: Snapshot() reuses the published epoch.
  auto again = engine.Snapshot();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());

  // Keep ingesting: the old snapshot is untouched, the new epoch sees
  // the new trip.
  e.from_station = 2;
  e.to_station = 3;
  e.start_time = t0.AddSeconds(60);
  ASSERT_TRUE(engine.Ingest(e).ok());
  auto second = engine.Snapshot();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->epoch, 2u);
  EXPECT_EQ((*second)->trip_count, 2u);
  EXPECT_EQ((*first)->trip_count, 1u);
  EXPECT_EQ((*first)->graph.WeightBetween(2, 3), 0.0);
  EXPECT_EQ((*second)->graph.WeightBetween(2, 3), 1.0);

  // A quiet stream still expires trips via Advance.
  ASSERT_TRUE(engine.Advance(t0.AddSeconds(7200)).ok());
  auto third = engine.Snapshot();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->trip_count, 0u);
  EXPECT_EQ((*third)->graph.edge_count(), 0u);
}

TEST(StreamEngineTest, SnapshotCarriesFrozenStationIndex) {
  StreamEngineConfig config;
  config.station_count = 3;
  config.window_seconds = 0;
  config.station_positions = {geo::LatLon(53.35, -6.26),
                              geo::LatLon(53.36, -6.25),
                              geo::LatLon(53.30, -6.30)};
  StreamEngine engine(config);
  const CivilTime t0 = CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();
  TripEvent e;
  e.from_station = 0;
  e.to_station = 1;
  e.start_time = t0;
  e.end_time = t0;
  ASSERT_TRUE(engine.Ingest(e).ok());
  auto snap = engine.Snapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_NE((*snap)->station_index, nullptr);
  EXPECT_EQ((*snap)->station_index->size(), 3u);
  auto nearest = (*snap)->station_index->Nearest(geo::LatLon(53.351, -6.261));
  EXPECT_EQ(nearest.id, 0);

  // Consecutive snapshots share the one station index (stations don't
  // move between windows).
  e.from_station = 1;
  e.to_station = 2;
  e.start_time = t0.AddSeconds(60);
  ASSERT_TRUE(engine.Ingest(e).ok());
  auto next = engine.Snapshot();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->station_index.get(), (*snap)->station_index.get());
}

TEST(StreamEngineTest, ExtraStationPositionsAreNotIndexed) {
  StreamEngineConfig config;
  config.station_count = 2;
  config.window_seconds = 0;
  // Positions for a larger network: only ids < station_count may appear
  // in snapshot spatial queries, and only they are checked.
  config.station_positions = {geo::LatLon(53.35, -6.26),
                              geo::LatLon(53.36, -6.25),
                              geo::LatLon(53.30, -6.30),
                              geo::LatLon(std::nan(""), -6.31)};
  StreamEngine engine(config);
  auto snap = engine.Snapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_NE((*snap)->station_index, nullptr);
  EXPECT_EQ((*snap)->station_index->size(), 2u);

  // Too few positions, or an invalid one for a station id, is an error,
  // not a silent partial index, and a durable engine logs none of the
  // calls it rejects: a replay would only reject them again.
  const fs::path dir =
      fs::path(::testing::TempDir()) / "bg_engine_short_positions";
  fs::remove_all(dir);
  StreamEngineConfig short_table = config;
  short_table.station_positions.resize(1);
  StreamEngineConfig nan_entry = config;
  nan_entry.station_positions[1] = geo::LatLon(std::nan(""), -6.25);
  // A late policy that is no LateEventPolicy is refused the same way: no
  // checkpoint could record it.
  StreamEngineConfig bad_policy = config;
  bad_policy.late_policy = static_cast<LateEventPolicy>(2);
  const std::vector<StreamEngineConfig> refused = {short_table, nan_entry,
                                                   bad_policy};
  for (const StreamEngineConfig& refused_config : refused) {
    for (const bool durable : {false, true}) {
      StreamEngineConfig bad = refused_config;
      bad.durability.enabled = durable;
      bad.durability.directory = dir.string();
      StreamEngine bad_engine(bad);
      const CivilTime t0 =
          CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();
      TripEvent event;
      event.from_station = 0;
      event.to_station = 1;
      event.start_time = t0;
      event.end_time = t0.AddSeconds(300);
      EXPECT_EQ(bad_engine.Ingest(event).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(bad_engine.Snapshot().status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(bad_engine.DetectCurrent().status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(bad_engine.wal_seq(), 0u) << "durable=" << durable;
    }
  }
  EXPECT_EQ(StreamEngine(nan_entry).Snapshot().status().message(),
            "station_positions[1] is not a valid coordinate");
  // The rejected durable engine left nothing behind, so a fresh engine
  // with the corrected config may start on the same directory.
  EXPECT_FALSE(fs::exists(dir));
  {
    StreamEngineConfig fixed = config;
    fixed.durability.enabled = true;
    fixed.durability.directory = dir.string();
    StreamEngine fixed_engine(fixed);
    const CivilTime t0 = CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();
    TripEvent event;
    event.from_station = 0;
    event.to_station = 1;
    event.start_time = t0;
    event.end_time = t0.AddSeconds(300);
    const Status ingested = fixed_engine.Ingest(event);
    EXPECT_TRUE(ingested.ok()) << ingested.ToString();
    EXPECT_EQ(fixed_engine.wal_seq(), 1u);
  }
  fs::remove_all(dir);
  // Recover refuses the same configs before touching the directory.
  for (const StreamEngineConfig& refused_config : refused) {
    StreamEngineConfig bad = refused_config;
    bad.durability.enabled = true;
    bad.durability.directory = dir.string();
    EXPECT_EQ(StreamEngine::Recover(bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(fs::exists(dir));
  }
}

TEST(StreamEngineTest, StationCountPastTheBoundIsRefusedEverywhere) {
  // One station past kMaxWindowStations: the windows hold no pair
  // triangle, so every call that would feed or freeze them returns the
  // config error, and a durable engine logs nothing and makes no
  // directory.
  StreamEngineConfig config;
  config.station_count = kMaxWindowStations + 1;
  config.window_seconds = 0;
  const fs::path dir = fs::path(::testing::TempDir()) / "bg_engine_past_bound";
  fs::remove_all(dir);
  const CivilTime t0 = CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();
  TripEvent event;
  event.from_station = 0;
  event.to_station = 1;
  event.start_time = t0;
  event.end_time = t0.AddSeconds(300);
  for (const bool durable : {false, true}) {
    StreamEngineConfig past = config;
    past.durability.enabled = durable;
    past.durability.directory = dir.string();
    StreamEngine engine(past);
    for (const Status& status :
         {engine.Ingest(event), engine.Snapshot().status(),
          engine.DetectCurrent().status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find("kMaxWindowStations"),
                std::string::npos)
          << status.ToString();
    }
    EXPECT_EQ(engine.wal_seq(), 0u) << "durable=" << durable;
  }
  EXPECT_FALSE(fs::exists(dir));
  // Recover refuses the same config before touching the directory.
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  EXPECT_EQ(StreamEngine::Recover(config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fs::exists(dir));
}

}  // namespace

// Friend of SlidingWindowGraph (must live at namespace scope): forges a
// −1 delta for a pair the live graph never saw, the bookkeeping bug that
// delta_desync_count() exists to surface.
struct WindowGraphTestPeer {
  static void ForceDesync(StreamEngine* engine) {
    SlidingWindowGraph::RingEntry entry;
    entry.start_seconds = 0;
    entry.from = 0;
    entry.to = 1;
    entry.day = 0;
    entry.hour = 0;
    const_cast<SlidingWindowGraph&>(engine->window()).ApplyDelta(entry, -1);
  }
};

namespace {

TripEvent TripAt(int32_t from, int32_t to, CivilTime start) {
  TripEvent e;
  e.from_station = from;
  e.to_station = to;
  e.start_time = start;
  e.end_time = start.AddSeconds(300);
  return e;
}

TEST(StreamEngineTest, FlushIsIdempotent) {
  StreamEngineConfig config;
  config.station_count = 4;
  config.window_seconds = 0;
  StreamEngine engine(config);
  const CivilTime t0 = CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();
  ASSERT_TRUE(engine.Ingest(TripAt(0, 1, t0)).ok());

  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_TRUE(engine.flushed());
  EXPECT_EQ(engine.buffered_count(), 0u);
  const size_t ingested = engine.ingested_count();
  const CivilTime watermark = engine.watermark();

  // A second Flush is a no-op, not an error — and moves nothing.
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_TRUE(engine.flushed());
  EXPECT_EQ(engine.ingested_count(), ingested);
  EXPECT_EQ(engine.watermark(), watermark);
}

TEST(StreamEngineTest, IngestAfterFlushFailsLoudly) {
  StreamEngineConfig config;
  config.station_count = 4;
  config.window_seconds = 0;
  StreamEngine engine(config);
  const CivilTime t0 = CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();
  ASSERT_TRUE(engine.Ingest(TripAt(0, 1, t0)).ok());
  ASSERT_TRUE(engine.Flush().ok());

  Status s = engine.Ingest(TripAt(1, 2, t0.AddSeconds(60)));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.ingested_count(), 1u);
}

// A delta/live desync must (a) surface through the engine's stats and
// (b) force the next freeze down the full-rebuild path, after which
// delta freezing re-arms.
TEST(StreamEngineTest, DesyncForcesFullFreeze) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds assert inside ApplyDelta instead of "
                  "counting; the release counter path is what ships";
#else
  StreamEngineConfig config;
  config.station_count = 12;
  config.window_seconds = 0;  // landmark: nothing expires mid-test
  StreamEngine engine(config);
  const CivilTime t0 = CivilTime::FromCalendar(2020, 5, 4, 9).ValueOrDie();

  // Every u<v pair except (0,1): 65 edges, so one dirty pair is 1/66 of
  // the previous graph — comfortably under the 0.25 delta fallback.
  int64_t offset = 0;
  for (int32_t u = 0; u < 12; ++u) {
    for (int32_t v = u + 1; v < 12; ++v) {
      if (u == 0 && v == 1) continue;
      ASSERT_TRUE(engine.Ingest(TripAt(u, v, t0.AddSeconds(offset++))).ok());
    }
  }
  ASSERT_TRUE(engine.Snapshot().ok());  // first freeze is always full
  EXPECT_EQ(engine.full_freeze_count(), 1u);
  EXPECT_EQ(engine.delta_freeze_count(), 0u);

  ASSERT_TRUE(engine.Ingest(TripAt(2, 3, t0.AddSeconds(offset++))).ok());
  ASSERT_TRUE(engine.Snapshot().ok());
  EXPECT_EQ(engine.delta_freeze_count(), 1u);  // the delta path works

  EXPECT_EQ(engine.delta_desync_count(), 0u);
  WindowGraphTestPeer::ForceDesync(&engine);
  EXPECT_EQ(engine.delta_desync_count(), 1u);

  // The freeze after a desync must not trust the dirty set: full rebuild.
  ASSERT_TRUE(engine.Ingest(TripAt(2, 3, t0.AddSeconds(offset++))).ok());
  ASSERT_TRUE(engine.Snapshot().ok());
  EXPECT_EQ(engine.full_freeze_count(), 2u);
  EXPECT_EQ(engine.delta_freeze_count(), 1u);

  // With the desync acknowledged, delta freezing re-arms.
  ASSERT_TRUE(engine.Ingest(TripAt(2, 3, t0.AddSeconds(offset++))).ok());
  ASSERT_TRUE(engine.Snapshot().ok());
  EXPECT_EQ(engine.delta_freeze_count(), 2u);
  EXPECT_EQ(engine.delta_desync_count(), 1u);  // counted once, kept
#endif
}

}  // namespace
}  // namespace bikegraph::stream
