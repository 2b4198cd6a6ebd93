// Streaming-engine throughput benchmarks: event ingestion through the
// sliding window, snapshot freezing, and warm-start community refresh vs
// a full re-detect on consecutive windows. Wired into tools/run_benches.sh
// and BENCH_perf.json alongside the bench_perf_* microbenches.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "community/detector.h"
#include "core/rng.h"
#include "stream/engine.h"
#include "stream/incremental_community.h"
#include "stream/reorder_buffer.h"
#include "stream/replay.h"
#include "stream/snapshot.h"
#include "stream/testing.h"
#include "stream/wal.h"
#include "stream/window_graph.h"

namespace bikegraph::stream {
namespace {

using testing::PlantedStream;

// Raw ingestion throughput (deltas + expiry ring) through a 7-day
// sliding window — the per-event hot path of the live engine.
void BM_StreamIngest(benchmark::State& state) {
  const auto stations = static_cast<size_t>(state.range(0));
  const auto events = PlantedStream(stations, 4, 28, 4000, 17);
  for (auto _ : state) {
    SlidingWindowGraph window({stations, 7 * 86400});
    for (const TripEvent& e : events) {
      benchmark::DoNotOptimize(window.Ingest(e).ok());
    }
    benchmark::DoNotOptimize(window.trip_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_StreamIngest)->Arg(64)->Arg(256);

// Out-of-order ingestion: the same planted stream with up to an hour of
// arrival jitter (the shared stream::JitterArrivalOrder model), pushed
// through the timing-wheel reorder buffer in front of the window — the
// engine's Ingest/DrainReady shape (batch ForEachReady release).
// Compare against BM_StreamIngest to read the buffer's overhead; the
// measured numbers are discussed in docs/STREAMING.md.
void StreamIngestWheel(benchmark::State& state, bool suppress_duplicates) {
  const auto stations = static_cast<size_t>(state.range(0));
  const auto events =
      JitterArrivalOrder(PlantedStream(stations, 4, 28, 4000, 17), 3600, 99)
          .events;
  ReorderBufferOptions options;
  options.max_lateness_seconds = 3600;
  options.suppress_duplicates = suppress_duplicates;
  for (auto _ : state) {
    ReorderBuffer buffer(options);
    SlidingWindowGraph window({stations, 7 * 86400});
    const auto ingest = [&window](const TripEvent& e) {
      return window.Ingest(e);
    };
    for (const TripEvent& e : events) {
      benchmark::DoNotOptimize(buffer.Push(e).ok());
      benchmark::DoNotOptimize(buffer.ForEachReady(ingest).ok());
    }
    buffer.Flush();
    benchmark::DoNotOptimize(buffer.ForEachReady(ingest).ok());
    benchmark::DoNotOptimize(window.trip_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}

// Duplicate suppression off: the reorder layer alone.
void BM_StreamIngestWheel(benchmark::State& state) {
  StreamIngestWheel(state, /*suppress_duplicates=*/false);
}
BENCHMARK(BM_StreamIngestWheel)->Arg(64)->Arg(256);

// Duplicate suppression on, as the engine runs it for a live feed: every
// admitted rental id enters the id set and leaves it when its start
// falls out of the horizon (the planted stream redelivers nothing).
void BM_StreamIngestWheelSuppress(benchmark::State& state) {
  StreamIngestWheel(state, /*suppress_duplicates=*/true);
}
BENCHMARK(BM_StreamIngestWheelSuppress)->Arg(64)->Arg(256);

// Full-engine ingestion with and without the write-ahead log. The two
// variants differ only in config.durability, so their per-item delta is
// the durability tax: record framing + CRC32C + buffered write() +
// one group fsync per sync_interval_records (the default 512). The
// disabled variant is also the "WAL off costs nothing" reference —
// it must stay within noise of plain engine ingestion (the numbers are
// discussed in docs/DURABILITY.md).
void StreamEngineIngest(benchmark::State& state, bool durable) {
  const auto stations = static_cast<size_t>(state.range(0));
  const auto events = PlantedStream(stations, 4, 28, 4000, 17);
  static int run = 0;
  for (auto _ : state) {
    StreamEngineConfig config;
    config.station_count = stations;
    config.window_seconds = 7 * 86400;
    std::filesystem::path dir;
    if (durable) {
      dir = std::filesystem::temp_directory_path() /
            ("bikegraph_bench_wal_" + std::to_string(++run));
      std::filesystem::remove_all(dir);
      config.durability.enabled = true;
      config.durability.directory = dir.string();
    }
    StreamEngine engine(config);
    for (const TripEvent& e : events) {
      benchmark::DoNotOptimize(engine.Ingest(e).ok());
    }
    benchmark::DoNotOptimize(engine.window().trip_count());
    if (durable) {
      state.PauseTiming();
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}

// Baseline: the engine with durability disabled (the default).
void BM_StreamEngineIngest(benchmark::State& state) {
  StreamEngineIngest(state, /*durable=*/false);
}
BENCHMARK(BM_StreamEngineIngest)->Arg(64)->Arg(256);

// Every event framed, CRC'd, and group-fsynced through the WAL.
void BM_StreamIngestWithWal(benchmark::State& state) {
  StreamEngineIngest(state, /*durable=*/true);
}
BENCHMARK(BM_StreamIngestWithWal)->Arg(64)->Arg(256);

// CRC32C over one buffer: Arg 37 is about a WAL event frame's payload
// (33 bytes), 249000 a serve-sized checkpoint payload, which the
// committer and Recover() checksum whole.
void BM_Crc32c(benchmark::State& state) {
  const auto size = static_cast<size_t>(state.range(0));
  std::vector<unsigned char> buffer(size);
  Rng rng(37);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextBounded(256));
  }
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32c(buffer.data(), buffer.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_Crc32c)->Arg(37)->Arg(249000);

// Recovery cost against the length of the logged history. The log comes
// from a serve-like durable run: 272 stations, 23 trips per 15-minute
// epoch, a Snapshot per epoch and a Checkpoint every 12 event-hours,
// under the default DurabilityConfig; Arg is the event-days logged (2,400
// records each). Only Recover() is timed. Checkpoints rotate the WAL and
// Recover never opens a segment the newest checkpoint covers, so the
// rows should stay flat from 7 to 168 days (docs/DURABILITY.md).
StreamEngineConfig ServeLikeDurableConfig(const std::string& directory) {
  StreamEngineConfig config;
  config.station_count = 272;
  config.window_seconds = 7 * 86400;
  config.max_lateness_seconds = 900;
  config.late_policy = LateEventPolicy::kDrop;
  config.durability.enabled = true;
  config.durability.directory = directory;
  return config;
}

/// Writes the serve-like log for `days` once per process and removes it
/// at exit.
const std::string& ServeLikeWal(int days) {
  struct Logs {
    std::map<int, std::string> dirs;
    ~Logs() {
      std::error_code ec;
      for (const auto& entry : dirs) {
        std::filesystem::remove_all(entry.second, ec);
      }
    }
  };
  static Logs logs;
  auto [it, fresh] = logs.dirs.emplace(days, std::string());
  if (!fresh) return it->second;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bikegraph_bench_recover_" + std::to_string(days));
  std::filesystem::remove_all(dir);
  it->second = dir.string();
  StreamEngine engine(ServeLikeDurableConfig(it->second));
  Rng rng(static_cast<uint64_t>(days));
  const CivilTime origin = CivilTime::FromCalendar(2020, 3, 2).ValueOrDie();
  int64_t rental_id = 0;
  for (int epoch = 0; epoch < days * 96; ++epoch) {
    const CivilTime epoch_start = origin.AddSeconds(int64_t{900} * epoch);
    for (int i = 0; i < 23; ++i) {
      TripEvent event;
      event.rental_id = rental_id++;
      event.from_station = static_cast<int32_t>(rng.NextBounded(272));
      event.to_station = static_cast<int32_t>(rng.NextBounded(272));
      event.start_time =
          epoch_start.AddSeconds(static_cast<int64_t>(rng.NextBounded(900)));
      event.end_time = event.start_time.AddSeconds(600);
      (void)engine.Ingest(event);
    }
    (void)engine.Advance(epoch_start.AddSeconds(900));
    (void)engine.Snapshot();
    if ((epoch + 1) % 48 == 0) (void)engine.Checkpoint();
  }
  return it->second;
}

void BM_StreamRecover(benchmark::State& state) {
  const StreamEngineConfig config =
      ServeLikeDurableConfig(ServeLikeWal(static_cast<int>(state.range(0))));
  StreamEngine::RecoveryStats stats;
  for (auto _ : state) {
    auto recovered = StreamEngine::Recover(config, &stats);
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      break;
    }
    state.PauseTiming();
    recovered->reset();
    state.ResumeTiming();
  }
  state.counters["recovered_seq"] = static_cast<double>(stats.recovered_seq);
  state.counters["replayed"] = static_cast<double>(stats.replayed_records);
}
BENCHMARK(BM_StreamRecover)
    ->Arg(7)
    ->Arg(28)
    ->Arg(84)
    ->Arg(168)
    ->Unit(benchmark::kMillisecond);

// The shard-scaling curve: full-engine ingestion (ingest thread routing
// events into per-shard SPSC rings, one worker per shard, merge barrier
// + freeze at the end) at 1, 2, and 4 shards over the identical planted
// stream. Arg(1) runs the inline single-writer path — the same code
// BM_StreamEngineIngest exercises — so the 2- and 4-shard rows read
// directly as the parallel speedup (or, on a single-CPU host, the
// queue-hand-off tax; see docs/STREAMING.md for the measured curve and
// the merge-cost model).
void BM_ShardedIngest(benchmark::State& state) {
  const size_t stations = 256;
  const auto shard_count = static_cast<size_t>(state.range(0));
  const auto events = PlantedStream(stations, 4, 28, 4000, 17);
  for (auto _ : state) {
    StreamEngineConfig config;
    config.station_count = stations;
    config.window_seconds = 7 * 86400;
    config.shard_count = shard_count;
    StreamEngine engine(config);
    for (const TripEvent& e : events) {
      benchmark::DoNotOptimize(engine.Ingest(e).ok());
    }
    // The merge barrier + freeze is part of the serving cadence, so it
    // is part of the measured cost.
    benchmark::DoNotOptimize(engine.Snapshot().ok());
    benchmark::DoNotOptimize(engine.trip_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
// Wall-clock time, not the default CPU-time base: with N > 1 the shard
// workers burn their cycles off the timed thread, so a CPU-time rate
// would credit the ingest thread's cheap ring pushes as end-to-end
// throughput (a flattering ~3x on a host where wall clock got *slower*).
BENCHMARK(BM_ShardedIngest)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Freezing the live window into an immutable CSR snapshot (GBasic
// projection), the read-side publication step.
void BM_SnapshotFreeze(benchmark::State& state) {
  const auto stations = static_cast<size_t>(state.range(0));
  SlidingWindowGraph window({stations, 0});
  for (const TripEvent& e : PlantedStream(stations, 4, 7, 4000, 23)) {
    (void)window.Ingest(e);
  }
  for (auto _ : state) {
    auto snap = FreezeSnapshot(window);
    benchmark::DoNotOptimize(snap.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(window.trip_count()));
}
BENCHMARK(BM_SnapshotFreeze)->Arg(64)->Arg(256);

// Per-epoch freeze cost at a small dirty fraction (~50 events against a
// 7-day window), the live engine's minute-cadence publication shape:
// warm up a sliding window (excluded from timing), then repeatedly
// ingest one epoch's events and freeze. The two variants differ only in
// the freeze call, so their per-item delta is the full-rebuild vs
// copy-on-write-patch gap; bit-identity of the two paths is locked by
// stream_snapshot_delta_test.cc.
void SnapshotEpochFreeze(benchmark::State& state, bool use_delta) {
  const auto stations = static_cast<size_t>(state.range(0));
  constexpr int kEpochs = 64;
  constexpr int kEventsPerEpoch = 50;
  const auto events = PlantedStream(stations, 4, 8, 4000, 23);
  const size_t warmup = events.size() - kEpochs * kEventsPerEpoch;
  SnapshotDeltaPolicy policy;
  for (auto _ : state) {
    state.PauseTiming();
    SlidingWindowGraph window({stations, 7 * 86400});
    for (size_t i = 0; i < warmup; ++i) (void)window.Ingest(events[i]);
    (void)window.DrainDirty();  // arm tracking
    WindowSnapshot previous = FreezeSnapshot(window).ValueOrDie();
    size_t cursor = warmup;
    state.ResumeTiming();
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (int i = 0; i < kEventsPerEpoch; ++i) {
        (void)window.Ingest(events[cursor++]);
      }
      if (use_delta) {
        const WindowDirtySet dirty = window.DrainDirty();
        previous =
            FreezeSnapshotDelta(window, previous, dirty, {}, nullptr, policy)
                .ValueOrDie();
      } else {
        (void)window.DrainDirty();
        previous = FreezeSnapshot(window).ValueOrDie();
      }
      benchmark::DoNotOptimize(previous.graph.total_weight());
    }
  }
  state.SetItemsProcessed(state.iterations() * kEpochs);
}

// Baseline: every epoch rebuilds the CSR and profiles from the window.
void BM_SnapshotEpochFullFreeze(benchmark::State& state) {
  SnapshotEpochFreeze(state, /*use_delta=*/false);
}
BENCHMARK(BM_SnapshotEpochFullFreeze)->Arg(64)->Arg(256);

// Copy-on-write: only the epoch's dirty pairs/profiles are recomputed.
void BM_SnapshotDeltaFreeze(benchmark::State& state) {
  SnapshotEpochFreeze(state, /*use_delta=*/true);
}
BENCHMARK(BM_SnapshotDeltaFreeze)->Arg(64)->Arg(256);

/// Consecutive window graphs for the refresh benchmarks: one frozen
/// snapshot per day over a 7-day sliding window.
std::vector<graphdb::WeightedGraph> WindowSequence(size_t stations) {
  std::vector<graphdb::WeightedGraph> graphs;
  SlidingWindowGraph window({stations, 7 * 86400});
  const auto events = PlantedStream(stations, 4, 21, 2000, 31);
  int day = 0;
  const int64_t first = events.front().start_time.seconds_since_epoch();
  for (const TripEvent& e : events) {
    (void)window.Ingest(e);
    const int event_day =
        static_cast<int>((e.start_time.seconds_since_epoch() - first) / 86400);
    if (event_day > day && event_day >= 7) {
      day = event_day;
      graphs.push_back(FreezeSnapshot(window).ValueOrDie().graph);
    }
  }
  return graphs;
}

// Warm-start refresh: each window's Louvain run is seeded with the
// previous window's partition through the incremental tracker.
void BM_WarmStartRefresh(benchmark::State& state) {
  const auto stations = static_cast<size_t>(state.range(0));
  const auto graphs = WindowSequence(stations);
  community::DetectSpec spec;
  for (auto _ : state) {
    IncrementalCommunityTracker tracker;
    for (const auto& g : graphs) {
      benchmark::DoNotOptimize(tracker.Refresh(g, spec).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graphs.size()));
}
BENCHMARK(BM_WarmStartRefresh)->Arg(64)->Arg(256);

// The baseline the warm start must beat: a cold Louvain run per window.
void BM_FullRedetect(benchmark::State& state) {
  const auto stations = static_cast<size_t>(state.range(0));
  const auto graphs = WindowSequence(stations);
  community::DetectSpec spec;
  for (auto _ : state) {
    for (const auto& g : graphs) {
      benchmark::DoNotOptimize(community::Detect(g, spec).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graphs.size()));
}
BENCHMARK(BM_FullRedetect)->Arg(64)->Arg(256);

}  // namespace
}  // namespace bikegraph::stream

BENCHMARK_MAIN();
