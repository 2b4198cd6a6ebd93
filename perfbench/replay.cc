// Workloads `replay` and `replay_sharded`: a closed, single-threaded
// backfill of the folded trip stream as fast as the engine takes it, with
// one Snapshot per event-day, one DetectCurrent per event-week, and Flush
// plus a final Snapshot at the end. `replay_sharded` runs the same input
// through a 3-shard engine (the ingest thread plus 3 workers).

#include <algorithm>
#include <memory>

#include "stream/engine.h"
#include "stream/shard.h"
#include "stream/snapshot.h"
#include "stream/window_graph.h"
#include "workloads.h"

namespace perfbench {

using namespace bikegraph;

namespace {

stream::StreamEngineConfig ReplayConfig(const StreamInput& input,
                                        size_t shard_count) {
  stream::StreamEngineConfig config;
  config.station_count = input.station_positions.size();
  config.window_seconds = 7 * kDaySeconds;
  config.max_lateness_seconds = kMaxLagSeconds;
  config.late_policy = stream::LateEventPolicy::kDrop;
  config.suppress_duplicate_rentals = true;
  config.shard_count = shard_count;
  config.station_positions = input.station_positions;
  return config;
}

}  // namespace

void RunReplay(const Options& options, size_t shard_count, Report& report) {
  SpanLog log;
  log.set_enabled(options.trace);
  StreamInput input;
  std::unique_ptr<stream::StreamEngine> engine;
  std::vector<double> setup_ns;
  CpuRotation rotation;
  for (int s = 0; s < options.setups; ++s) {
    const int64_t t0 = NowNs();
    engine.reset();
    rotation.Next();
    if (!BuildStreamInput(options.seed, log, report, &input)) return;
    // The sharded engine starts its workers here, free of the pin.
    rotation.Release();
    {
      ScopedSpan span(log, "stream.engine_build");
      engine = std::make_unique<stream::StreamEngine>(
          ReplayConfig(input, shard_count));
    }
    setup_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  log.set_enabled(false);

  const FoldedCycle& cycle = input.cycle;
  Feed feed(input);

  // The timed part runs whole blocks of identical work: 16 event-weeks,
  // which is four laps of the cycle and one full_refresh_interval of the
  // tracker, so every block delivers the same trips and holds one full
  // re-detect. Each event-week is one fresh sample: its seven days of
  // Ingest calls, each closed by a Snapshot, then the week's
  // DetectCurrent. Block 0 fills the window and is warm-up; the end-to-end
  // metrics come from the fastest tenth of the untraced blocks after it
  // (FastestBlocks).
  constexpr int64_t kBlockWeeks = 16;
  struct Block {
    double ns = 0;
    uint64_t events = 0;
    std::vector<double> week_ns;
  };
  std::vector<Block> blocks;  // untraced, after warm-up
  std::vector<double> traced_block_ns;
  uint64_t events = 0, traced_events = 0, snapshots = 0;
  double traced_ingest_ns = 0;
  int64_t day = 0;
  const double cpu0 = ProcessCpuSeconds();
  const auto group =
      static_cast<int64_t>(std::max<size_t>(1, rotation.cpu_count()));
  const int64_t begin = NowNs();
  const auto budget = static_cast<int64_t>(options.seconds * 1e9);
  bool ok = true;
  for (int64_t b = 0; ok && (b < 10 || NowNs() - begin < budget); ++b) {
    // With --trace 1 every other group of one block per CPU is traced; the
    // untraced groups in between give trace.overhead_frac.
    log.set_enabled(options.trace && (b / group) % 2 == 1);
    // The single-threaded engine moves to the next CPU every block; the
    // sharded one leaves its four threads to the scheduler.
    if (shard_count == 1) rotation.Next();
    Block block;
    const int64_t b0 = NowNs();
    const int32_t root = log.enabled() ? log.Begin("replay.block", b) : -1;
    for (int64_t w = 0; w < kBlockWeeks; ++w) {
      const int64_t week = day / 7;
      const int64_t w0 = NowNs();
      for (int d = 0; d < 7; ++d, ++day) {
        // One span over the day's run of Ingest calls: a span per ~100 ns
        // call would mostly measure the clock.
        const int64_t ingest_start = log.enabled() ? NowNs() : 0;
        const uint64_t delivered =
            feed.DeliverUntil((day + 1) * kDaySeconds, *engine, report, &ok);
        block.events += delivered;
        if (log.enabled()) {
          const int64_t ingest_end = NowNs();
          log.Add("stream.ingest", ingest_start, ingest_end, day);
          traced_ingest_ns += static_cast<double>(ingest_end - ingest_start);
          traced_events += delivered;
        }
        ScopedSpan span(log, "stream.snapshot", day);
        ok = report.Op(engine->Snapshot().status(), "StreamEngine::Snapshot") &&
             ok;
        ++snapshots;
      }
      {
        ScopedSpan span(log, "stream.detect", week);
        ok = report.Op(engine->DetectCurrent().status(),
                       "StreamEngine::DetectCurrent") &&
             ok;
      }
      block.week_ns.push_back(static_cast<double>(NowNs() - w0));
    }
    if (root >= 0) log.End(root);
    block.ns = static_cast<double>(NowNs() - b0);
    events += block.events;
    if (log.enabled()) {
      traced_block_ns.push_back(block.ns);
    } else if (b > 0) {
      blocks.push_back(std::move(block));
    }
  }
  rotation.Release();
  log.set_enabled(options.trace);
  std::shared_ptr<const stream::WindowSnapshot> final_snapshot;
  {
    ScopedSpan span(log, "stream.flush");
    ok = report.Op(engine->Flush(), "StreamEngine::Flush") && ok;
  }
  {
    ScopedSpan span(log, "stream.snapshot", day);
    auto snap = engine->Snapshot();
    ok = report.Op(snap.status(), "StreamEngine::Snapshot") && ok;
    ++snapshots;
    if (snap.ok()) final_snapshot = *snap;
  }
  const int64_t end = NowNs();
  const double cpu = ProcessCpuSeconds() - cpu0;
  log.set_enabled(false);
  const double wall_s = static_cast<double>(end - begin) / 1e9;

  // Output checks, outside the timed region.
  const uint64_t ingested = engine->ingested_count();
  const uint64_t duplicates = engine->duplicate_count();
  const uint64_t late = engine->late_dropped_count();
  if (events != ingested + duplicates + late || engine->buffered_count() != 0) {
    report.Fail("conservation: attempted " + std::to_string(events) +
                " != ingested " + std::to_string(ingested) + " + duplicates " +
                std::to_string(duplicates) + " + late " +
                std::to_string(late));
  }
  if (ok && final_snapshot) {
    // The final window lies within the last two laps.
    stream::SlidingWindowGraph reference(stream::WindowGraphOptions{
        input.station_positions.size(), 7 * kDaySeconds});
    for (const TripEvent& trip :
         DeliveredTrips(cycle, input.arrivals,
                        std::max<int64_t>(0, feed.lap() - 1), feed.lap(),
                        feed.delivered_in_lap())) {
      if (!reference.Ingest(trip).ok()) {
        report.Fail("reference window refused a trip");
        break;
      }
    }
    const auto frozen = stream::FreezeSnapshot(
        reference, engine->config().projection,
        stream::BuildFrozenStationIndex(input.station_positions));
    if (!frozen.ok()) {
      report.Fail("reference freeze failed: " + frozen.status().ToString());
    } else if (const std::string diff = CompareSnapshots(*final_snapshot,
                                                         *frozen);
               !diff.empty()) {
      report.Fail("final snapshot != reference window: " + diff);
    }
  }

  // End-to-end metrics, from the fastest tenth of the untraced blocks.
  std::vector<double> block_ns;
  for (const Block& block : blocks) block_ns.push_back(block.ns);
  const std::vector<size_t> fastest =
      FastestBlocks(block_ns, kFastestShare);
  double fast_ns = 0, fast_events = 0;
  std::vector<double> fast_week_ns;
  for (const size_t i : fastest) {
    fast_ns += blocks[i].ns;
    fast_events += static_cast<double>(blocks[i].events);
    fast_week_ns.insert(fast_week_ns.end(), blocks[i].week_ns.begin(),
                        blocks[i].week_ns.end());
  }
  report.e2e.Set("setup_s", NearestRank(setup_ns, 50.0) / 1e9, "s");
  report.e2e.Set("peak_rss_mib", PeakRssMib(), "MiB");
  report.e2e.Set("events_per_s",
                 fast_ns > 0 ? fast_events / (fast_ns / 1e9) : 0.0, "1/s");
  SetLatency(report.e2e, "fresh_p50_ms", "fresh_p99_ms", fast_week_ns, 1e-6,
             "ms");
  report.Record("events_per_s_whole_run", static_cast<double>(events) / wall_s);
  report.Record("block_weeks", static_cast<double>(kBlockWeeks));
  report.Record("rotation_cpus", static_cast<double>(rotation.cpu_count()));
  report.Record("blocks", static_cast<double>(blocks.size()));
  report.Record("fastest_blocks", static_cast<double>(fastest.size()));
  report.Record("block_ms_p50", NearestRank(block_ns, 50.0) / 1e6);
  report.Record("shard_count", static_cast<double>(shard_count));
  report.Record("window_seconds", 7.0 * kDaySeconds);
  report.Record("max_lateness_seconds", static_cast<double>(kMaxLagSeconds));
  report.Record("redelivery_prob", kRedeliveryProb);
  report.Record("cycle_trips", static_cast<double>(cycle.events.size()));
  report.Record("stations", static_cast<double>(input.station_positions.size()));
  report.Record("laps", static_cast<double>(feed.lap()) +
                            static_cast<double>(feed.delivered_in_lap()) /
                                static_cast<double>(input.arrivals.size()));
  report.Record("days", static_cast<double>(day));
  report.Record("weeks", static_cast<double>(day / 7));
  report.Record("fresh_samples", static_cast<double>(fast_week_ns.size()));
  report.Record("fresh_tail_percentile", TailPercentile(fast_week_ns.size()));
  report.Record("wall_s", wall_s);

  // Per-layer metrics.
  const auto summary = Summarize(log.spans());
  const auto durations = [&](const char* name) {
    return Durations(summary, name);
  };
  SetBootstrapLayers(summary, report.layers);
  if (traced_events > 0) {
    report.layers.Set("stream.ingest_ns_per_event",
                      traced_ingest_ns / static_cast<double>(traced_events),
                      "ns");
  }
  report.layers.Set("stream.events", static_cast<double>(ingested), "count");
  report.layers.Set("stream.duplicates", static_cast<double>(duplicates),
                    "count");
  report.layers.Set("stream.reordered",
                    static_cast<double>(engine->reordered_count()), "count");
  report.layers.Set("stream.late_dropped", static_cast<double>(late), "count");
  SetLatency(report.layers, "stream.snapshot_us_p50", "stream.snapshot_us_p99",
             durations("stream.snapshot"), 1e-3, "us");
  report.layers.Set("stream.snapshots", static_cast<double>(snapshots),
                    "count");
  const auto freezes = static_cast<double>(engine->delta_freeze_count() +
                                           engine->full_freeze_count());
  report.layers.Set("stream.delta_frac",
                    freezes > 0 ? static_cast<double>(
                                      engine->delta_freeze_count()) /
                                      freezes
                                : 0.0,
                    "ratio");
  SetLatency(report.layers, "stream.refresh_ms_p50", "stream.refresh_ms_p99",
             durations("stream.detect"), 1e-6, "ms");
  const auto refreshes = static_cast<double>(engine->tracker().refresh_count());
  report.layers.Set("stream.refreshes", refreshes, "count");
  report.layers.Set(
      "stream.escalation_frac",
      refreshes > 0
          ? static_cast<double>(engine->tracker().escalation_count()) /
                refreshes
          : 0.0,
      "ratio");
  report.layers.Set("stream.flush_ms",
                    NearestRank(durations("stream.flush"), 50.0) / 1e6, "ms");
  const stream::ShardRouter router(shard_count);
  std::vector<double> per_shard(router.shard_count(), 0.0);
  for (const TripEvent& e : cycle.events) {
    per_shard[router.OwnerOfPair(e.from_station, e.to_station)] += 1.0;
  }
  const double mean = static_cast<double>(cycle.events.size()) /
                      static_cast<double>(per_shard.size());
  report.layers.Set("stream.shard_skew",
                    *std::max_element(per_shard.begin(), per_shard.end()) /
                        mean,
                    "ratio");
  report.layers.Set("process.cpu_s", cpu, "s");
  report.layers.Set("process.cpu_per_wall", cpu / wall_s, "ratio");
  if (options.trace && !traced_block_ns.empty() && !block_ns.empty()) {
    report.layers.Set("trace.overhead_frac",
                      FastestMean(traced_block_ns, kFastestShare) /
                              FastestMean(block_ns, kFastestShare) -
                          1.0,
                      "ratio");
  }
  report.spans = log.spans();
}

}  // namespace perfbench
