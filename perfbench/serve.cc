// Workload `serve`: the operator's deployment, run open-loop. A writer
// releases one 15-event-minute epoch of the folded stream every 2 ms on a
// fixed wall schedule (Ingest its events, Advance, Snapshot; DetectCurrent
// on the hour, Checkpoint every 12 event-hours) into a durable engine, while
// two readers each send a 16-query batch every 250 µs through
// QueryService::ExecuteBatch. At the end the writer syncs the WAL, tears
// the engine down and times StreamEngine::Recover.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <system_error>
#include <thread>

#include "query/service.h"
#include "query/workload.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace bikegraph;

namespace {

constexpr int64_t kEpochSeconds = 900;
constexpr uint64_t kEpochsPerDay = kDaySeconds / kEpochSeconds;
/// Two checkpoints per event-day put ~2% of epochs behind a checkpoint,
/// so fresh_p99_ms lies inside that population (and tracks its fsyncs)
/// rather than on the edge between it and the plain epochs.
constexpr int64_t kCheckpointSeconds = kDaySeconds / 2;
constexpr int64_t kEpochPeriodNs = 2'000'000;
constexpr int64_t kReaderPeriodNs = 250'000;
constexpr size_t kReaders = 2;
constexpr size_t kBatchSize = 16;
/// Stations fall into at least two communities in every served window
/// (isolated stations are communities of their own), so flow queries
/// drawn from labels {0, 1} are valid on every epoch.
constexpr size_t kFlowLabels = 2;

/// Sleeps until shortly before `due_ns`, then spins to it: the generator
/// issues on time without a sleeping thread's wake-up delay.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 80'000;
  const int64_t ahead = due_ns - NowNs();
  if (ahead > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

/// One reader's tallies; merged into the report after it is joined.
struct ReaderLog {
  OpenLoopLog open_loop;
  std::vector<double> service_ns;
  std::vector<double> untraced_latency_ns;
  uint64_t batches = 0;
  uint64_t slots = 0;
  uint64_t slot_errors = 0;
  uint64_t pin_failures = 0;
  std::string first_error;
  SpanLog spans;
};

void ReaderLoop(const query::QueryService& service,
                const OpenLoopSchedule& schedule, int64_t end_ns,
                size_t station_count, uint64_t seed, bool trace,
                ReaderLog* log) {
  std::mt19937_64 rng(seed);
  query::WorkloadSpec spec;
  spec.station_count = station_count;
  spec.community_count = kFlowLabels;
  spec.batch_size = kBatchSize;
  for (uint64_t j = 0; schedule.Due(j) < end_ns; ++j) {
    const std::vector<query::Query> batch = query::MakeWorkloadBatch(spec, rng);
    const int64_t due = schedule.Due(j);
    WaitUntil(due);
    log->spans.set_enabled(trace && j % 2 == 1);
    const int64_t start = NowNs();
    const auto outcome = [&] {
      ScopedSpan span(log->spans, "query.batch", static_cast<int64_t>(j));
      return service.ExecuteBatch(batch);
    }();
    const int64_t done = NowNs();
    log->open_loop.Record(due, start, done);
    log->service_ns.push_back(static_cast<double>(done - start));
    if (!log->spans.enabled()) {
      log->untraced_latency_ns.push_back(static_cast<double>(done - due));
    }
    ++log->batches;
    if (!outcome.ok()) {
      ++log->pin_failures;
      if (log->first_error.empty()) {
        log->first_error = outcome.status().ToString();
      }
      continue;
    }
    log->slots += outcome->answers.size();
    for (const auto& answer : outcome->answers) {
      if (!answer.ok()) {
        ++log->slot_errors;
        if (log->first_error.empty()) {
          log->first_error = answer.status().ToString();
        }
      }
    }
  }
  log->spans.set_enabled(false);
}

stream::StreamEngineConfig ServeConfig(const StreamInput& input,
                                       const std::string& wal_dir) {
  stream::StreamEngineConfig config;
  config.station_count = input.station_positions.size();
  config.window_seconds = 7 * kDaySeconds;
  config.max_lateness_seconds = kMaxLagSeconds;
  config.late_policy = stream::LateEventPolicy::kDrop;
  config.suppress_duplicate_rentals = true;
  config.station_positions = input.station_positions;
  config.durability.enabled = true;
  config.durability.directory = wal_dir;
  return config;
}

/// The WAL segments left at teardown: total bytes and the sequence number
/// of the oldest record they hold (segments are named for their first
/// record, "wal-<seq20>.log").
struct WalFiles {
  uint64_t bytes = 0;
  uint64_t first_seq = 0;
};

WalFiles ScanWal(const std::string& dir) {
  WalFiles files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 28 || name.rfind("wal-", 0) != 0) continue;
    files.bytes += entry.file_size(ec);
    const uint64_t seq = std::strtoull(name.c_str() + 4, nullptr, 10);
    if (files.first_seq == 0 || seq < files.first_seq) files.first_seq = seq;
  }
  return files;
}

}  // namespace

void RunServe(const Options& options, Report& report) {
  const std::string wal_dir = options.work_dir + "/wal";
  SpanLog log;
  log.set_enabled(options.trace);
  StreamInput input;
  std::unique_ptr<stream::StreamEngine> engine;
  std::unique_ptr<Feed> feed;
  std::vector<double> setup_ns;
  const int64_t prefill_end = 7 * kDaySeconds;
  uint64_t prefill_events = 0;
  bool ok = true;
  CpuRotation rotation;
  for (int s = 0; s < options.setups; ++s) {
    const int64_t t0 = NowNs();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    rotation.Next();
    if (!BuildStreamInput(options.seed, log, report, &input)) return;
    rotation.Release();
    {
      ScopedSpan span(log, "stream.engine_build");
      engine = std::make_unique<stream::StreamEngine>(
          ServeConfig(input, wal_dir));
    }
    // The first epoch: one full window, published during set-up.
    ScopedSpan span(log, "serve.prefill");
    feed = std::make_unique<Feed>(input);
    prefill_events = feed->DeliverUntil(prefill_end, *engine, report, &ok);
    const CivilTime watermark(input.cycle.origin_seconds + prefill_end);
    ok = report.Op(engine->Advance(watermark), "StreamEngine::Advance") &&
         report.Op(engine->Snapshot().status(), "StreamEngine::Snapshot") &&
         report.Op(engine->DetectCurrent().status(),
                   "StreamEngine::DetectCurrent") &&
         report.Op(engine->Checkpoint(), "StreamEngine::Checkpoint") && ok;
    if (!ok) return;
    setup_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  log.set_enabled(false);

  // Open-loop run.
  report.Record("peak_rss_mib_after_setup", PeakRssMib());
  auto service = std::make_unique<query::QueryService>(*engine);
  const uint64_t epoch0 = engine->publisher().epoch();
  const uint64_t wal_seq0 = engine->wal_seq();
  const auto budget = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t t0 = NowNs() + 2'000'000;  // lets the readers start
  const int64_t end = t0 + budget;
  std::vector<ReaderLog> readers(kReaders);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    const OpenLoopSchedule schedule{
        t0, kReaderPeriodNs,
        static_cast<int64_t>(r) * kReaderPeriodNs / static_cast<int64_t>(kReaders)};
    threads.emplace_back(ReaderLoop, std::cref(*service), schedule, end,
                         input.station_positions.size(),
                         MixSeed(options.seed, 100 + r), options.trace,
                         &readers[r]);
  }

  const double cpu0 = ProcessCpuSeconds();
  const OpenLoopSchedule writer{t0, kEpochPeriodNs, 0};
  OpenLoopLog writer_log;
  std::vector<double> untraced_fresh_ns, traced_fresh_ns;
  double traced_ingest_ns = 0;
  // The writer's busy time: Σ (epoch done − epoch start) over untraced
  // epochs, and the events they delivered.
  double busy_ns = 0;
  uint64_t busy_events = 0;
  // Blocks of one event-day of epochs: each runs the same schedule (24
  // refreshes, two checkpoints) over a window of about the same size. As
  // for the closed workloads, the end-to-end metrics come from the fastest
  // tenth of the untraced days after the first, ranked by the writer's
  // busy time (FastestBlocks); the run record keeps the whole-run figures.
  struct Day {
    double busy_ns = 0;
    uint64_t events = 0;
    std::vector<double> fresh_ns;
  };
  std::vector<Day> days;
  Day day;
  uint64_t events = 0, traced_events = 0, epochs = 0, checkpoints = 0;
  uint64_t snapshots = 0;
  for (uint64_t e = 0; ok && writer.Due(e) < end; ++e) {
    const int64_t due = writer.Due(e);
    // The writer moves to the next CPU every event-day, ahead of its due
    // time; the readers are left to the scheduler.
    if (e % kEpochsPerDay == 0) rotation.Next();
    WaitUntil(due);
    // With --trace 1 every other event-day of epochs is traced: each day
    // has the same mix of plain, refresh and checkpoint epochs, so the
    // untraced days give trace.overhead_frac.
    log.set_enabled(options.trace && (e / kEpochsPerDay) % 2 == 1);
    const int64_t start = NowNs();
    const int32_t root =
        log.enabled() ? log.Begin("serve.epoch", static_cast<int64_t>(e)) : -1;
    const int64_t epoch_end =
        prefill_end + static_cast<int64_t>(e + 1) * kEpochSeconds;
    const int64_t ingest_start = NowNs();
    const uint64_t delivered = feed->DeliverUntil(epoch_end, *engine, report, &ok);
    if (log.enabled()) {
      // One span over the epoch's run of Ingest calls.
      const int64_t ingest_end = NowNs();
      log.Add("stream.ingest", ingest_start, ingest_end,
              static_cast<int64_t>(e));
      traced_ingest_ns += static_cast<double>(ingest_end - ingest_start);
      traced_events += delivered;
    }
    events += delivered;
    {
      ScopedSpan span(log, "stream.advance", static_cast<int64_t>(e));
      ok = report.Op(engine->Advance(CivilTime(input.cycle.origin_seconds +
                                               epoch_end)),
                     "StreamEngine::Advance") &&
           ok;
    }
    {
      ScopedSpan span(log, "stream.snapshot", static_cast<int64_t>(e));
      ok = report.Op(engine->Snapshot().status(), "StreamEngine::Snapshot") &&
           ok;
      ++snapshots;
    }
    if (epoch_end % 3600 == 0) {
      ScopedSpan span(log, "stream.detect", static_cast<int64_t>(e));
      ok = report.Op(engine->DetectCurrent().status(),
                     "StreamEngine::DetectCurrent") &&
           ok;
    }
    if (epoch_end % kCheckpointSeconds == 0) {
      ScopedSpan span(log, "stream.checkpoint", static_cast<int64_t>(e));
      ok = report.Op(engine->Checkpoint(), "StreamEngine::Checkpoint") && ok;
      ++checkpoints;
    }
    if (root >= 0) log.End(root);
    const int64_t done = NowNs();
    writer_log.Record(due, start, done);
    if (log.enabled()) {
      traced_fresh_ns.push_back(static_cast<double>(done - due));
    } else {
      untraced_fresh_ns.push_back(static_cast<double>(done - due));
      busy_ns += static_cast<double>(done - start);
      busy_events += delivered;
      day.fresh_ns.push_back(static_cast<double>(done - due));
      day.busy_ns += static_cast<double>(done - start);
      day.events += delivered;
    }
    if ((e + 1) % kEpochsPerDay == 0) {
      if (!log.enabled() && e >= kEpochsPerDay) days.push_back(std::move(day));
      day = Day{};
    }
    ++epochs;
  }
  log.set_enabled(false);
  rotation.Release();
  for (std::thread& t : threads) t.join();
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double run_s = static_cast<double>(NowNs() - t0) / 1e9;

  // Tear-down: sync, capture, drop the engine, time recovery.
  ok = report.Op(engine->SyncWal(), "StreamEngine::SyncWal") && ok;
  const std::string before = stream::SerializeCheckpoint(engine->CaptureState());
  const uint64_t ingested = engine->ingested_count();
  const uint64_t duplicates = engine->duplicate_count();
  const uint64_t late = engine->late_dropped_count();
  const uint64_t reordered = engine->reordered_count();
  const uint64_t buffered = engine->buffered_count();
  const uint64_t wal_seq_end = engine->wal_seq();
  const uint64_t wal_records = wal_seq_end - wal_seq0;
  const uint64_t wal_retries = engine->wal_retry_count();
  const uint64_t published = engine->publisher().epoch() - epoch0;
  const auto delta_freezes = static_cast<double>(engine->delta_freeze_count());
  const auto full_freezes = static_cast<double>(engine->full_freeze_count());
  const auto refreshes = static_cast<double>(engine->tracker().refresh_count());
  const auto escalations =
      static_cast<double>(engine->tracker().escalation_count());
  const query::QueryServiceStats qstats = service->stats();
  const stream::StreamEngineConfig config = engine->config();
  service.reset();
  engine.reset();

  const WalFiles wal = ScanWal(wal_dir);
  report.Record("peak_rss_mib_before_recover", PeakRssMib());
  stream::StreamEngine::RecoveryStats recovery;
  const int64_t r0 = NowNs();
  auto recovered = stream::StreamEngine::Recover(config, &recovery);
  const double recover_ns = static_cast<double>(NowNs() - r0);
  if (report.Op(recovered.status(), "StreamEngine::Recover")) {
    if (stream::SerializeCheckpoint((*recovered)->CaptureState()) != before) {
      report.Fail("recovered state differs from the state before teardown");
    }
    recovered->reset();
  }
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);

  // Reader tallies.
  std::vector<double> batch_latency_ns, untraced_batch_ns, service_ns,
      reader_lateness_ns;
  uint64_t batches = 0, slot_errors = 0, pin_failures = 0;
  std::vector<Span> spans = log.spans();
  for (ReaderLog& reader : readers) {
    batch_latency_ns.insert(batch_latency_ns.end(),
                            reader.open_loop.latency_ns().begin(),
                            reader.open_loop.latency_ns().end());
    reader_lateness_ns.insert(reader_lateness_ns.end(),
                              reader.open_loop.lateness_ns().begin(),
                              reader.open_loop.lateness_ns().end());
    untraced_batch_ns.insert(untraced_batch_ns.end(),
                             reader.untraced_latency_ns.begin(),
                             reader.untraced_latency_ns.end());
    service_ns.insert(service_ns.end(), reader.service_ns.begin(),
                      reader.service_ns.end());
    batches += reader.batches;
    slot_errors += reader.slot_errors;
    pin_failures += reader.pin_failures;
    report.attempted += reader.batches + reader.slots;  // pins + query slots
    report.failed += reader.pin_failures + reader.slot_errors;
    if (!reader.first_error.empty()) {
      report.Fail("query: " + reader.first_error);
    }
    const auto offset = static_cast<int32_t>(spans.size());
    for (Span span : reader.spans.spans()) {
      if (span.parent >= 0) span.parent += offset;
      spans.push_back(span);
    }
  }

  // Output checks.
  if (prefill_events + events != ingested + duplicates + late + buffered) {
    report.Fail("conservation: attempted events != ingested + duplicates + "
                "late + buffered");
  }
  if (late != 0) report.Fail("late events in a feed within the horizon");

  // End-to-end metrics, from the fastest tenth of the untraced days.
  std::vector<double> day_busy_ns;
  for (const Day& d : days) day_busy_ns.push_back(d.busy_ns);
  const std::vector<size_t> fastest =
      FastestBlocks(day_busy_ns, kFastestShare);
  double fast_busy_ns = 0, fast_events = 0;
  std::vector<double> fast_fresh_ns;
  for (const size_t i : fastest) {
    fast_busy_ns += days[i].busy_ns;
    fast_events += static_cast<double>(days[i].events);
    fast_fresh_ns.insert(fast_fresh_ns.end(), days[i].fresh_ns.begin(),
                         days[i].fresh_ns.end());
  }
  report.e2e.Set("setup_s", NearestRank(setup_ns, 50.0) / 1e9, "s");
  report.e2e.Set("peak_rss_mib", PeakRssMib(), "MiB");
  report.e2e.Set("events_per_s",
                 fast_busy_ns > 0 ? fast_events / (fast_busy_ns / 1e9) : 0.0,
                 "1/s");
  SetLatency(report.e2e, "fresh_p50_ms", "fresh_p99_ms", fast_fresh_ns, 1e-6,
             "ms");
  report.Record("offered_events_per_s",
                static_cast<double>(events) / (static_cast<double>(budget) / 1e9));
  report.Record("events_per_s_whole_run",
                static_cast<double>(busy_events) / (busy_ns / 1e9));
  report.Record("fresh_p50_ms_whole_run",
                NearestRank(untraced_fresh_ns, 50.0) / 1e6);
  report.Record("fresh_p99_ms_whole_run",
                NearestRank(untraced_fresh_ns,
                            TailPercentile(untraced_fresh_ns.size())) /
                    1e6);
  report.Record("days", static_cast<double>(days.size()));
  report.Record("rotation_cpus", static_cast<double>(rotation.cpu_count()));
  report.Record("fastest_days", static_cast<double>(fastest.size()));
  report.Record("epoch_event_seconds", static_cast<double>(kEpochSeconds));
  report.Record("epoch_period_us", static_cast<double>(kEpochPeriodNs) / 1e3);
  report.Record("readers", static_cast<double>(kReaders));
  report.Record("reader_period_us", static_cast<double>(kReaderPeriodNs) / 1e3);
  report.Record("batch_size", static_cast<double>(kBatchSize));
  report.Record("window_seconds", 7.0 * kDaySeconds);
  report.Record("max_lateness_seconds", static_cast<double>(kMaxLagSeconds));
  report.Record("redelivery_prob", kRedeliveryProb);
  report.Record("checkpoint_event_seconds",
                static_cast<double>(kCheckpointSeconds));
  report.Record("sync_interval_records",
                static_cast<double>(config.durability.sync_interval_records));
  report.Record("wal_filesystem", FilesystemOf(options.work_dir));
  report.Record("stations", static_cast<double>(input.station_positions.size()));
  report.Record("epochs", static_cast<double>(epochs));
  report.Record("fresh_samples", static_cast<double>(fast_fresh_ns.size()));
  report.Record("fresh_tail_percentile", TailPercentile(fast_fresh_ns.size()));
  report.Record("query_samples", static_cast<double>(batch_latency_ns.size()));
  report.Record("query_p50_us", NearestRank(batch_latency_ns, 50.0) / 1e3);
  report.Record("query_p99_us", NearestRank(batch_latency_ns, 99.0) / 1e3);
  report.Record("recover_ms", recover_ns / 1e6);

  // Per-layer metrics.
  const auto summary = Summarize(spans);
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
  report.layers.Set("stream.reordered", static_cast<double>(reordered),
                    "count");
  report.layers.Set("stream.late_dropped", static_cast<double>(late), "count");
  SetLatency(report.layers, "stream.snapshot_us_p50", "stream.snapshot_us_p99",
             durations("stream.snapshot"), 1e-3, "us");
  report.layers.Set("stream.snapshots", static_cast<double>(snapshots),
                    "count");
  report.layers.Set("stream.delta_frac",
                    delta_freezes + full_freezes > 0
                        ? delta_freezes / (delta_freezes + full_freezes)
                        : 0.0,
                    "ratio");
  SetLatency(report.layers, "stream.refresh_ms_p50", "stream.refresh_ms_p99",
             durations("stream.detect"), 1e-6, "ms");
  report.layers.Set("stream.refreshes", refreshes, "count");
  report.layers.Set("stream.escalation_frac",
                    refreshes > 0 ? escalations / refreshes : 0.0, "ratio");
  const std::vector<double> checkpoint_ns = durations("stream.checkpoint");
  report.layers.Set("stream.checkpoint_ms_p50",
                    NearestRank(checkpoint_ns, 50.0) / 1e6, "ms");
  report.layers.Set("stream.checkpoint_ms_max",
                    NearestRank(checkpoint_ns, 100.0) / 1e6, "ms");
  report.layers.Set("stream.checkpoints", static_cast<double>(checkpoints),
                    "count");
  report.layers.Set("stream.wal_records", static_cast<double>(wal_records),
                    "count");
  // Bytes per record of the segments left, times records logged per
  // event delivered (every delivery is logged, duplicates included).
  const uint64_t records_on_disk =
      wal.first_seq > 0 ? wal_seq_end - wal.first_seq + 1 : 0;
  report.layers.Set(
      "stream.wal_bytes_per_event",
      records_on_disk > 0
          ? static_cast<double>(wal.bytes) /
                static_cast<double>(records_on_disk) *
                static_cast<double>(wal_seq_end) /
                static_cast<double>(prefill_events + events)
          : 0.0,
      "bytes");
  report.layers.Set("stream.wal_retries", static_cast<double>(wal_retries),
                    "count");
  report.layers.Set("stream.recover_ms", recover_ns / 1e6, "ms");
  report.layers.Set("stream.recover_replayed_records",
                    static_cast<double>(recovery.replayed_records), "count");
  report.layers.Set("stream.recover_used_checkpoint",
                    recovery.used_checkpoint ? 1.0 : 0.0, "count");
  report.layers.Set("stream.shard_skew", 1.0, "ratio");
  SetLatency(report.layers, "query.batch_us_p50", "query.batch_us_p99",
             untraced_batch_ns, 1e-3, "us");
  SetLatency(report.layers, "query.service_us_p50", "query.service_us_p99",
             service_ns, 1e-3, "us");
  const auto misses = static_cast<double>(qstats.community_memo_misses +
                                          qstats.pairs_memo_misses);
  const auto hits = static_cast<double>(qstats.community_memo_hits +
                                        qstats.pairs_memo_hits);
  report.layers.Set("query.memo_misses_per_epoch",
                    published > 0 ? misses / static_cast<double>(published)
                                  : 0.0,
                    "1/epoch");
  report.layers.Set("query.memo_hit_ratio",
                    hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.layers.Set("query.batches", static_cast<double>(batches), "count");
  report.layers.Set("query.slot_errors", static_cast<double>(slot_errors),
                    "count");
  report.layers.Set("query.pin_failures", static_cast<double>(pin_failures),
                    "count");
  report.layers.Set("process.cpu_s", cpu, "s");
  report.layers.Set("process.cpu_per_wall", cpu / run_s, "ratio");
  report.layers.Set("loadgen.writer_lateness_us_p99",
                    NearestRank(writer_log.lateness_ns(), 99.0) / 1e3, "us");
  report.layers.Set("loadgen.reader_lateness_us_p99",
                    NearestRank(reader_lateness_ns, 99.0) / 1e3, "us");
  if (options.trace && !traced_fresh_ns.empty() && !untraced_fresh_ns.empty()) {
    report.layers.Set("trace.overhead_frac",
                      NearestRank(traced_fresh_ns, 50.0) /
                              NearestRank(untraced_fresh_ns, 50.0) -
                          1.0,
                      "ratio");
  }
  report.spans = std::move(spans);
}

}  // namespace perfbench
