// Hostile-input chaos suite: randomized streams full of demand surges,
// station outages and additions, clock skew, duplicate storms, and
// late-event floods aimed at the admission horizon. No golden outputs —
// the checks are invariants: every call succeeds under kDrop, the
// engine's counters reconcile exactly, profiles stay consistent with the
// live window, desync never fires, and memory stays bounded. Run under
// ASan/UBSan via `tools/ci.sh --chaos`.

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/civil_time.h"
#include "core/rng.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"

#include <gtest/gtest.h>

#include "chaos_test_util.h"

namespace bikegraph::stream {
namespace {

namespace fs = std::filesystem;

StreamEngineConfig EngineConfigFor(const ChaosConfig& chaos) {
  StreamEngineConfig config;
  config.station_count = chaos.station_count;
  config.window_seconds = 6 * 3600;
  config.max_lateness_seconds = chaos.max_lateness_seconds;
  config.late_policy = LateEventPolicy::kDrop;
  config.suppress_duplicate_rentals = true;
  config.detection.options.seed = 19;
  return config;
}

void ApplyAction(StreamEngine& engine, const ChaosAction& action) {
  if (action.kind == ChaosAction::Kind::kEvent) {
    const Status status = engine.Ingest(action.event);
    ASSERT_TRUE(status.ok()) << status.ToString();
  } else {
    const Status status = engine.Advance(action.watermark);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
}

/// The invariants every hostile run must uphold, checked after Flush.
void CheckInvariants(const StreamEngine& engine, const ChaosStats& stats) {
  // Exact counter reconciliation: every generated event is accounted for
  // as released into the window, dropped late, or suppressed duplicate —
  // nothing lost, nothing double-counted. (After Flush nothing is still
  // buffered.)
  EXPECT_EQ(engine.buffered_count(), 0u);
  EXPECT_EQ(engine.window().ingested_count() + engine.late_dropped_count() +
                engine.duplicate_count(),
            stats.events);
  // The duplicate-storm scenario is the only duplicate source, and
  // suppression (set large enough to never evict here) must catch every
  // redelivery whose original is still inside the horizon — at minimum,
  // nothing beyond the generated redeliveries is ever suppressed.
  EXPECT_LE(engine.duplicate_count(), stats.duplicate_redeliveries);
  // The ApplyDelta desync guard must never fire on hostile-but-legal
  // input; a non-zero count here is window-graph state corruption.
  EXPECT_EQ(engine.delta_desync_count(), 0u);
  // Bounded memory: the id set never outgrew its cap.
  if (engine.config().max_duplicate_rental_ids > 0) {
    EXPECT_LE(engine.duplicate_ids_high_water(),
              engine.config().max_duplicate_rental_ids);
  }

  // Window-internal consistency: the pair map, the per-station profiles
  // and the endpoint counters must all describe the same trip multiset
  // (each live trip contributes both endpoints).
  const SlidingWindowGraph& window = engine.window();
  int64_t pair_trips = 0;
  window.ForEachPair([&](int32_t, int32_t, int64_t trips) {
    pair_trips += trips;
  });
  EXPECT_EQ(static_cast<size_t>(pair_trips), window.trip_count());
  int64_t day_total = 0;
  int64_t hour_total = 0;
  int64_t endpoint_total = 0;
  for (size_t s = 0; s < window.station_count(); ++s) {
    const auto si = static_cast<int32_t>(s);
    for (int64_t v : window.DayCounts(si)) day_total += v;
    for (int64_t v : window.HourCounts(si)) hour_total += v;
    endpoint_total += window.EndpointCount(si);
  }
  const auto expected = static_cast<int64_t>(2 * window.trip_count());
  EXPECT_EQ(day_total, expected);
  EXPECT_EQ(hour_total, expected);
  EXPECT_EQ(endpoint_total, expected);
}

TEST(ChaosGeneratorTest, DeterministicAndScenariosFire) {
  ChaosConfig config;
  config.seed = 5;
  const ChaosStream a = GenerateChaosStream(config);
  const ChaosStream b = GenerateChaosStream(config);
  ASSERT_EQ(a.actions.size(), b.actions.size());
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.duplicate_redeliveries, b.stats.duplicate_redeliveries);
  for (size_t i = 0; i < a.actions.size(); i += 97) {
    EXPECT_EQ(a.actions[i].kind, b.actions[i].kind);
    EXPECT_EQ(a.actions[i].event.rental_id, b.actions[i].event.rental_id);
    EXPECT_EQ(a.actions[i].event.start_time, b.actions[i].event.start_time);
  }
  // A two-day run at the default rates exercises every scenario.
  EXPECT_GT(a.stats.events, 0u);
  EXPECT_GT(a.stats.advances, 0u);
  EXPECT_GT(a.stats.surges, 0u);
  EXPECT_GT(a.stats.outages, 0u);
  EXPECT_GT(a.stats.additions, 0u);
  EXPECT_GT(a.stats.skew_segments, 0u);
  EXPECT_GT(a.stats.duplicate_storms, 0u);
  EXPECT_GT(a.stats.late_floods, 0u);
  EXPECT_GT(a.stats.duplicate_redeliveries, 0u);
  EXPECT_GT(a.stats.boundary_flood_events, 0u);

  ChaosConfig other = config;
  other.seed = 6;
  const ChaosStream c = GenerateChaosStream(other);
  EXPECT_NE(a.stats.events, c.stats.events);
}

TEST(ChaosGeneratorTest, TogglesIsolateScenarios) {
  ChaosConfig calm;
  calm.seed = 3;
  calm.demand_surges = false;
  calm.station_outages = false;
  calm.station_additions = false;
  calm.clock_skew = false;
  calm.duplicate_storms = false;
  calm.late_floods = false;
  const ChaosStream stream = GenerateChaosStream(calm);
  EXPECT_EQ(stream.stats.surges, 0u);
  EXPECT_EQ(stream.stats.outages, 0u);
  EXPECT_EQ(stream.stats.additions, 0u);
  EXPECT_EQ(stream.stats.skew_segments, 0u);
  EXPECT_EQ(stream.stats.duplicate_redeliveries, 0u);
  EXPECT_EQ(stream.stats.boundary_flood_events, 0u);
  EXPECT_EQ(stream.stats.outage_suppressed, 0u);
  EXPECT_EQ(stream.stats.events, stream.stats.fresh_events);
}

class ChaosPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosPropertyTest, HostileStreamUpholdsInvariants) {
  ChaosConfig chaos;
  chaos.seed = GetParam();
  chaos.duration_seconds = 86'400;  // one day keeps sanitizer runs quick
  const ChaosStream stream = GenerateChaosStream(chaos);

  StreamEngine engine(EngineConfigFor(chaos));
  size_t step = 0;
  for (const ChaosAction& action : stream.actions) {
    ApplyAction(engine, action);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "step " << step;
    // Bounded memory mid-run: the buffer can never hold more events
    // than the generator emitted above the admission horizon.
    if (++step % 4096 == 0) {
      EXPECT_LE(engine.buffered_count(), stream.stats.max_events_in_horizon);
      auto snapshot = engine.Snapshot();
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    }
  }
  ASSERT_TRUE(engine.Flush().ok());
  auto outcome = engine.DetectCurrent();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // Planted structure survives the hostility: detection still finds a
  // non-trivial partition over the final window.
  EXPECT_GT(outcome->result.partition.assignment.size(), 0u);
  CheckInvariants(engine, stream.stats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPropertyTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

TEST(ChaosPropertyTest, DuplicateStormRespectsIdCap) {
  ChaosConfig chaos;
  chaos.seed = 9;
  chaos.duration_seconds = 43'200;
  const ChaosStream stream = GenerateChaosStream(chaos);

  StreamEngineConfig config = EngineConfigFor(chaos);
  config.max_duplicate_rental_ids = 256;  // far below one horizon of ids
  StreamEngine engine(config);
  for (const ChaosAction& action : stream.actions) {
    ApplyAction(engine, action);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  ASSERT_TRUE(engine.Flush().ok());
  // The cap held, evictions actually happened (the stream floods more
  // distinct ids than 256 into one horizon), and the engine stayed
  // consistent throughout — duplicates missed past the cap are admitted,
  // not lost.
  EXPECT_LE(engine.duplicate_ids_high_water(), 256u);
  EXPECT_GT(engine.duplicate_ids_evicted(), 0u);
  EXPECT_EQ(engine.window().ingested_count() + engine.late_dropped_count() +
                engine.duplicate_count(),
            stream.stats.events);
  EXPECT_EQ(engine.delta_desync_count(), 0u);
}

// Chaos meets durability: kill a durable engine mid-hostility, recover,
// resume, and the result must match the uninterrupted hostile run bit
// for bit. Chaos actions are all Ingest/Advance, so action i ↔ WAL seq
// i + 1 and the resume point falls straight out of RecoveryStats.
TEST(ChaosDurabilityTest, KillAndRecoverUnderHostileStream) {
  ChaosConfig chaos;
  chaos.seed = 21;
  chaos.duration_seconds = 43'200;
  const ChaosStream stream = GenerateChaosStream(chaos);
  ASSERT_GT(stream.actions.size(), 100u);

  const StreamEngineConfig base = EngineConfigFor(chaos);
  StreamEngine reference(base);
  for (const ChaosAction& action : stream.actions) {
    ApplyAction(reference, action);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  ASSERT_TRUE(reference.Flush().ok());

  Rng rng(chaos.seed);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("bg_chaos_" + std::to_string(trial));
    fs::remove_all(dir);
    StreamEngineConfig durable = base;
    durable.durability.enabled = true;
    durable.durability.directory = dir.string();
    durable.durability.sync_interval_records = 128;

    const auto kill =
        static_cast<size_t>(rng.NextBounded(stream.actions.size() + 1));
    {
      StreamEngine engine(durable);
      for (size_t i = 0; i < kill; ++i) {
        ApplyAction(engine, stream.actions[i]);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        if ((i + 1) % 5000 == 0) {
          ASSERT_TRUE(engine.Checkpoint().ok());
        }
      }
    }
    StreamEngine::RecoveryStats stats;
    auto recovered = StreamEngine::Recover(durable, &stats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_EQ(stats.recovered_seq, kill);
    for (size_t i = kill; i < stream.actions.size(); ++i) {
      ApplyAction(**recovered, stream.actions[i]);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    ASSERT_TRUE((*recovered)->Flush().ok());

    EngineCheckpoint a = (*recovered)->CaptureState();
    EngineCheckpoint b = reference.CaptureState();
    a.wal_seq = b.wal_seq = 0;
    a.delta_freeze_count = b.delta_freeze_count = 0;
    a.full_freeze_count = b.full_freeze_count = 0;
    EXPECT_EQ(SerializeCheckpoint(a), SerializeCheckpoint(b))
        << "recovered hostile run diverged from the uninterrupted one";
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace bikegraph::stream
