#include "stream/engine.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/io_env.h"
#include "core/logging.h"
#include "stream/durable_file.h"
#include "stream/spsc_ring.h"

namespace bikegraph::stream {

namespace {

/// The one config check: InvalidArgument when the shards' windows would
/// refuse the config (CheckWindowOptions: a negative window or more than
/// kMaxWindowStations stations), when the late policy is no
/// LateEventPolicy (no checkpoint could record it), or when a positions
/// table is set but shorter than the station universe or holds an
/// invalid coordinate for a station id, so no spatial index can cover
/// every station.
Status CheckConfig(const StreamEngineConfig& config) {
  BIKEGRAPH_RETURN_NOT_OK(CheckWindowOptions(
      WindowGraphOptions{config.station_count, config.window_seconds}));
  if (config.late_policy != LateEventPolicy::kDrop &&
      config.late_policy != LateEventPolicy::kError) {
    return Status::InvalidArgument("late_policy is not a LateEventPolicy");
  }
  if (config.station_positions.empty()) return Status::OK();
  if (config.station_positions.size() < config.station_count) {
    return Status::InvalidArgument(
        "station_positions must cover every station id");
  }
  for (size_t s = 0; s < config.station_count; ++s) {
    if (!config.station_positions[s].IsValid()) {
      return Status::InvalidArgument("station_positions[" +
                                     std::to_string(s) +
                                     "] is not a valid coordinate");
    }
  }
  return Status::OK();
}

/// Creates the durability directory and any missing parents through the
/// IoEnv seam, so fault schedules reach it too.
Status CreateDurabilityDirectory(IoEnv* env, const std::string& directory) {
  if (internal::ResolveEnv(env)->Mkdir(directory.c_str()) != 0) {
    return internal::IOError("create durability directory", directory);
  }
  return Status::OK();
}

}  // namespace

namespace detail {

/// One entry on a shard's command ring. Every command carries the
/// caller's global reorder watermark (INT64_MIN = nothing to forward),
/// applied before the kind-specific handling: a shard that last saw an
/// event an hour of stream time ago must still judge lateness and
/// release readiness against stream-wide time, not its own stale clock.
struct ShardCommand {
  enum class Kind : uint8_t { kEvent, kAdvance, kFlush };
  Kind kind = Kind::kEvent;
  TripEvent event;
  int64_t reorder_wm = INT64_MIN;
  /// Window advance target (INT64_MIN = none): set by explicit Advance
  /// calls and by the barrier's phase 2, which aligns every shard
  /// window to the merged watermark before a freeze.
  int64_t window_wm = INT64_MIN;
};

/// One slice of the stream vertical: a reorder buffer and window graph
/// owning a disjoint set of station pairs, plus the SPSC ring and worker
/// thread that feed it in sharded mode.
///
/// Ownership of fields by thread: `ring` is the SPSC hand-off;
/// `acked`/`stop` are the only cross-thread atomics. Everything else
/// (reorder, window, dirty, first_error, applied) is written by whichever
/// thread runs Apply — the worker once started, the ingest thread before
/// that and in single-shard mode — and read by the ingest thread only at
/// quiescent points: `acked == pushed` (acquire) proves every command's
/// effects happened-before the read, and caller-side writes made while
/// quiescent become visible to the worker through the next ring push
/// (release tail store / acquire tail load). No locks, no races — the
/// shard suites run under TSan in CI (tools/ci.sh).
class EngineShard {
 public:
  explicit EngineShard(const StreamEngineConfig& config)
      : reorder(ReorderBufferOptions{config.max_lateness_seconds,
                                     config.late_policy,
                                     config.suppress_duplicate_rentals,
                                     config.max_duplicate_rental_ids}),
        window(WindowGraphOptions{config.station_count,
                                  config.window_seconds}),
        ring(kRingCapacity) {}

  /// Applies one command. The sequence per kind mirrors the pre-sharding
  /// engine internals exactly (kEvent = IngestInternal, kAdvance =
  /// AdvanceInternal, kFlush = FlushInternal), which is what makes a
  /// one-shard engine bit-identical to the legacy single writer.
  Status Apply(const ShardCommand& cmd) {
    ++applied;
    if (cmd.reorder_wm != INT64_MIN) {
      reorder.AdvanceWatermark(CivilTime(cmd.reorder_wm));
    }
    switch (cmd.kind) {
      case ShardCommand::Kind::kEvent: {
        const Status status = reorder.Push(cmd.event);
        if (!status.ok()) return status;
        return DrainReady();
      }
      case ShardCommand::Kind::kAdvance: {
        // Releases before expiry: events the new watermark makes
        // releasable carry start times at or before it, so they enter
        // the window before it expires anything at the new mark.
        BIKEGRAPH_RETURN_NOT_OK(DrainReady());
        if (cmd.window_wm != INT64_MIN) {
          const size_t before = window.trip_count();
          const CivilTime old_mark = window.watermark();
          window.Advance(CivilTime(cmd.window_wm));
          if (window.trip_count() != before ||
              window.watermark() != old_mark) {
            dirty = true;
          }
        }
        return Status::OK();
      }
      case ShardCommand::Kind::kFlush:
        reorder.Flush();
        return DrainReady();
    }
    return Status::DataLoss("unknown shard command");
  }

  /// Applies `cmd` and acknowledges it: a failure parks in first_error
  /// (the engine surfaces it at the next barrier), and the release
  /// increment of `acked` publishes every effect to the waiting ingest
  /// thread. Shared by the worker loop and the inline replay path.
  void Execute(const ShardCommand& cmd) {
    const Status status = Apply(cmd);
    if (!status.ok() && first_error.ok()) first_error = status;
    acked.fetch_add(1, std::memory_order_release);
  }

  void Start() {
    worker = std::thread([this] {
      ShardCommand cmd;
      for (;;) {
        if (ring.TryPop(cmd)) {
          Execute(cmd);
          continue;
        }
        if (stop.load(std::memory_order_acquire)) {
          // Drain anything that raced in ahead of the stop flag so a
          // shutdown never drops accepted commands.
          if (ring.TryPop(cmd)) {
            Execute(cmd);
            continue;
          }
          break;
        }
        std::this_thread::yield();
      }
    });
  }

  void Stop() {
    if (!worker.joinable()) return;
    stop.store(true, std::memory_order_release);
    worker.join();
  }

  ReorderBuffer reorder;
  SlidingWindowGraph window;
  /// True when this shard's window changed since the flag was last
  /// collected (folded into the engine's dirty_ at barriers).
  bool dirty = false;
  /// First deferred command failure; surfaced once, in shard order.
  Status first_error = Status::OK();
  /// Commands applied over this shard's lifetime — the shard's private
  /// sequence space, persisted per shard in EngineCheckpoint.
  uint64_t applied = 0;
  SpscRing<ShardCommand> ring;
  /// Ingest-thread-side count of commands dispatched; quiescence is
  /// acked == pushed.
  uint64_t pushed = 0;
  alignas(64) std::atomic<uint64_t> acked{0};
  std::atomic<bool> stop{false};
  std::thread worker;

 private:
  /// Ring slots per shard: deep enough that a freeze-length consumer
  /// stall does not immediately backpressure ingest, small enough that
  /// a stuck worker bounds queued memory.
  static constexpr size_t kRingCapacity = 1024;

  Status DrainReady() {
    return reorder.ForEachReady([this](const TripEvent& event) {
      dirty = true;
      return window.Ingest(event);
    });
  }
};

/// Commits checkpoints on one background thread: the writer hands it a
/// capture, and the thread writes it (WriteCheckpoint), then prunes the
/// checkpoints and the WAL segments the oldest kept one covers — the
/// steps Checkpoint() ran inline before, in the same order. At most one
/// commit is in flight; Wait() is the only way to learn its outcome.
///
/// The thread reads the capture it was handed and the durability config,
/// which the engine never changes once durability is attached. `mu_` and
/// `cv_` guard everything else.
class CheckpointCommitter {
 public:
  explicit CheckpointCommitter(const DurabilityConfig& config)
      : config_(config), thread_([this] { Run(); }) {}

  /// Lets the commit in flight finish, then joins the thread. A failure
  /// of that last commit has no caller left to report to.
  ~CheckpointCommitter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  CheckpointCommitter(const CheckpointCommitter&) = delete;
  CheckpointCommitter& operator=(const CheckpointCommitter&) = delete;

  /// Hands `capture` to the thread. The caller has waited (Wait()), so no
  /// commit is in flight.
  void Start(EngineCheckpoint capture) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ = std::move(capture);
      busy_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until no commit is in flight and returns the last commit's
  /// failure, once: a second call returns OK.
  Status Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !busy_; });
    return std::exchange(failure_, Status::OK());
  }

 private:
  /// The thread's entry function. A pending capture is committed even
  /// once stop_ is set, so the destructor never drops one.
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return pending_.has_value() || stop_; });
      if (!pending_.has_value()) return;
      std::optional<EngineCheckpoint> capture = std::move(pending_);
      pending_.reset();
      lock.unlock();
      Status status = Status::OK();
      try {
        status = Commit(*capture);
      } catch (const std::exception& e) {
        status = Status::Internal(std::string("checkpoint commit threw: ") +
                                  e.what());
      } catch (...) {
        status = Status::Internal("checkpoint commit threw");
      }
      capture.reset();
      lock.lock();
      failure_ = std::move(status);
      busy_ = false;
      cv_.notify_all();
    }
  }

  Status Commit(const EngineCheckpoint& capture) const {
    const std::string& directory = config_.directory;
    const size_t kept = config_.checkpoints_kept;
    IoEnv* const env = config_.io_env;
    BIKEGRAPH_RETURN_NOT_OK(WriteCheckpoint(directory, capture, env));
    BIKEGRAPH_RETURN_NOT_OK(PruneCheckpoints(directory, kept, env));
    return PruneWalSegments(directory, WalPruneBound(directory, kept),
                            /*pruned=*/nullptr, env);
  }

  const DurabilityConfig& config_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<EngineCheckpoint> pending_;
  bool busy_ = false;
  bool stop_ = false;
  Status failure_ = Status::OK();
  /// Last: the thread starts once every field above is built.
  std::thread thread_;
};

}  // namespace detail

StreamEngine::StreamEngine(RecoverTag, StreamEngineConfig config)
    : config_(std::move(config)),
      router_(config_.shard_count),
      tracker_(config_.refresh),
      config_status_(CheckConfig(config_)) {
  // 0 means "no sharding", i.e. one shard (mirrors ShardRouter's clamp).
  if (config_.shard_count == 0) config_.shard_count = 1;
  shards_.reserve(config_.shard_count);
  for (size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<detail::EngineShard>(config_));
    windows_.push_back(&shards_.back()->window);
  }
  if (config_.station_positions.size() >= config_.station_count) {
    // Index exactly the station universe; extra entries are not station
    // ids and must not leak into snapshot spatial queries.
    station_index_ = BuildFrozenStationIndex(
        {config_.station_positions.begin(),
         config_.station_positions.begin() +
             static_cast<long>(config_.station_count)});
  }
}

StreamEngine::StreamEngine(StreamEngineConfig config)
    : StreamEngine(RecoverTag{}, std::move(config)) {
  InitDurability();
  StartThreads();
}

StreamEngine::~StreamEngine() {
  // The commit in flight lands before anything it reads is destroyed.
  committer_.reset();
  StopShardWorkers();
}

void StreamEngine::StartThreads() {
  if (wal_) {
    committer_ =
        std::make_unique<detail::CheckpointCommitter>(config_.durability);
  }
  if (shards_.size() <= 1) return;
  for (auto& shard : shards_) shard->Start();
  started_ = true;
}

Status StreamEngine::AwaitCommit() {
  return committer_ ? committer_->Wait() : Status::OK();
}

void StreamEngine::StopShardWorkers() {
  if (!started_) return;
  for (auto& shard : shards_) shard->Stop();
  started_ = false;
}

void StreamEngine::InitDurability() {
  if (!config_.durability.enabled) return;
  // A config every later call would reject must not touch the directory
  // (Recover runs the same check first): an engine that can never log a
  // record leaves no log behind to refuse its corrected successor.
  if (!config_status_.ok()) {
    durability_status_ = config_status_;
    return;
  }
  if (config_.durability.directory.empty()) {
    durability_status_ =
        Status::InvalidArgument("durability.directory must be set");
    return;
  }
  durability_status_ = CreateDurabilityDirectory(
      config_.durability.io_env, config_.durability.directory);
  if (!durability_status_.ok()) return;
  if (DirectoryHasDurableState(config_.durability.directory)) {
    durability_status_ = Status::FailedPrecondition(
        "durability directory '" + config_.durability.directory +
        "' already holds WAL/checkpoint state; use StreamEngine::Recover() "
        "to resume it (or point a fresh engine at an empty directory)");
    return;
  }
  auto writer = WalWriter::Open(config_.durability, /*next_seq=*/1);
  if (!writer.ok()) {
    durability_status_ = writer.status();
    return;
  }
  wal_ = std::move(*writer);
}

void StreamEngine::EnterDegradedMode(const Status& reason) {
  // A degraded engine never checkpoints again. Its committer finishes the
  // commit in flight first, so the marker is the directory's last word;
  // that commit's outcome no longer matters, since Recover refuses a
  // marked directory.
  committer_.reset();
  degraded_ = true;
  degrade_reason_ = reason;
  BIKEGRAPH_LOG(Error)
      << "durable engine DEGRADED to non-durable mode: "
      << reason.ToString() << " — ingestion continues, the log under '"
      << config_.durability.directory
      << "' is abandoned and marked (Recover() will refuse it)";
  // The directory must be loud before the first un-logged op can
  // possibly be applied. The writer stays, unused: the failure that
  // brought us here poisoned it, so it writes nothing more.
  WriteDegradedMarker(config_.durability, reason);
}

Status StreamEngine::LogRecord(const WalRecord& record) {
  if (!config_.durability.enabled || degraded_) return Status::OK();
  if (!durability_status_.ok()) return durability_status_;
  const Status status = wal_->Append(record);
  if (!status.ok()) {
    if (config_.durability.faults.degrade_on_exhausted) {
      // Degrade policy: availability over durability. The op proceeds
      // un-logged; the marker keeps the loss loud at recovery time.
      EnterDegradedMode(status);
      return Status::OK();
    }
    // Poison policy (default): a failed append poisons the writer; every
    // later durable call surfaces the same error instead of silently
    // diverging from disk.
    durability_status_ = status;
    return status;
  }
  ++wal_seq_;
  return Status::OK();
}

Status StreamEngine::ApplySingle(const detail::ShardCommand& cmd) {
  detail::EngineShard& shard = *shards_[0];
  const Status status = shard.Apply(cmd);
  // Eager dirty collection — the legacy per-call dirty_ semantics that
  // CaptureState's snapshot_clean flag depends on.
  if (shard.dirty) {
    dirty_ = true;
    shard.dirty = false;
  }
  // With one shard the buffer is authoritative: mirror its watermark
  // (which also folds in drops and suppressions the caller-side raise
  // rule cannot see) so capture/restore round-trips exactly.
  global_reorder_wm_ = shard.reorder.watermark().seconds_since_epoch();
  return status;
}

void StreamEngine::Deliver(size_t shard_index,
                           const detail::ShardCommand& cmd) {
  detail::EngineShard& shard = *shards_[shard_index];
  ++shard.pushed;
  if (started_) {
    // A full ring is backpressure: the slow consumer throttles ingest.
    while (!shard.ring.TryPush(cmd)) std::this_thread::yield();
    return;
  }
  // WAL replay / pre-start: apply on this thread with the identical
  // deferred-error bookkeeping, so recovery is deterministic without
  // worker scheduling in the loop.
  shard.Execute(cmd);
}

void StreamEngine::WaitQuiescent() {
  for (const auto& shard : shards_) {
    while (shard->acked.load(std::memory_order_acquire) < shard->pushed) {
      std::this_thread::yield();
    }
  }
}

Status StreamEngine::CollectShardState() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    if (shard->dirty) {
      dirty_ = true;
      shard->dirty = false;
    }
    if (!shard->first_error.ok()) {
      if (first.ok()) first = shard->first_error;
      shard->first_error = Status::OK();
    }
  }
  return first;
}

Status StreamEngine::BarrierQuiesce() {
  // Phase 1: align every shard's reorder clock to stream-wide time and
  // drain what that releases — a shard that last saw an event long ago
  // may hold events the global watermark has since made releasable.
  detail::ShardCommand align;
  align.kind = detail::ShardCommand::Kind::kAdvance;
  align.reorder_wm = global_reorder_wm_;
  for (size_t i = 0; i < shards_.size(); ++i) Deliver(i, align);
  WaitQuiescent();

  // Phase 2: the single-writer window watermark is the max over released
  // event starts and explicit advances; each shard saw only a subset, so
  // the merged value is the max across shards. Advance every window to
  // it so expiry and window_start are uniform before a freeze reads
  // them. (Reading shard state here is safe: quiescence established the
  // happens-before edge, and workers are idle until we push again.)
  int64_t window_wm = INT64_MIN;
  for (const auto& shard : shards_) {
    window_wm = std::max(window_wm,
                         shard->window.watermark().seconds_since_epoch());
  }
  if (window_wm != INT64_MIN) {
    detail::ShardCommand advance;
    advance.kind = detail::ShardCommand::Kind::kAdvance;
    advance.reorder_wm = global_reorder_wm_;
    advance.window_wm = window_wm;
    for (size_t i = 0; i < shards_.size(); ++i) Deliver(i, advance);
    WaitQuiescent();
  }
  return CollectShardState();
}

Status StreamEngine::AdmitEvent(const TripEvent& event) const {
  if (flushed_) {
    return Status::FailedPrecondition(
        "Ingest after Flush: the stream was already finalized");
  }
  // Fail fast on a config the windows refuse instead of hours later at
  // the first Snapshot() of a live run.
  if (!config_status_.ok()) return config_status_;
  // Validate endpoints at arrival: an out-of-range event parked in the
  // reorder buffer would otherwise fail a horizon later, far from the
  // caller that produced it.
  const auto n = static_cast<int64_t>(config_.station_count);
  if (event.from_station < 0 || event.from_station >= n ||
      event.to_station < 0 || event.to_station >= n) {
    return Status::InvalidArgument("trip event endpoint out of range");
  }
  return Status::OK();
}

Status StreamEngine::Ingest(const TripEvent& event) {
  // Rejected events are never logged — the WAL records intent that
  // passed admission, so replay cannot diverge on validation.
  BIKEGRAPH_RETURN_NOT_OK(AdmitEvent(event));
  WalRecord record;
  record.type = WalRecordType::kEvent;
  record.event = event;
  BIKEGRAPH_RETURN_NOT_OK(LogRecord(record));
  return IngestInternal(event);
}

Status StreamEngine::IngestInternal(const TripEvent& event) {
  detail::ShardCommand cmd;
  cmd.kind = detail::ShardCommand::Kind::kEvent;
  cmd.event = event;
  if (shards_.size() == 1) return ApplySingle(cmd);
  // Stream-wide watermark bookkeeping, mirroring ReorderBuffer::Push's
  // raise rule exactly: an arrival raises the watermark iff it is not
  // late and moves time forward. The command carries the *pre-event*
  // value — the owning shard's Push then performs the identical raise
  // the single buffer would have, counters and all. (One caveat, see
  // docs/STREAMING.md: with duplicate suppression on, a redelivered id
  // with a novel newer start raises this watermark but would not have
  // raised the single buffer's.)
  cmd.reorder_wm = global_reorder_wm_;
  const int64_t start = event.start_time.seconds_since_epoch();
  const bool late =
      global_reorder_wm_ != INT64_MIN &&
      start < global_reorder_wm_ - config_.max_lateness_seconds;
  if (!late && start > global_reorder_wm_) global_reorder_wm_ = start;
  Deliver(router_.OwnerOfPair(event.from_station, event.to_station), cmd);
  return Status::OK();
}

Status StreamEngine::Advance(CivilTime watermark) {
  WalRecord record;
  record.type = WalRecordType::kAdvance;
  record.watermark_seconds = watermark.seconds_since_epoch();
  BIKEGRAPH_RETURN_NOT_OK(LogRecord(record));
  return AdvanceInternal(watermark);
}

Status StreamEngine::AdvanceInternal(CivilTime watermark) {
  const int64_t target = watermark.seconds_since_epoch();
  if (target > global_reorder_wm_) global_reorder_wm_ = target;
  detail::ShardCommand cmd;
  cmd.kind = detail::ShardCommand::Kind::kAdvance;
  cmd.reorder_wm = global_reorder_wm_;
  cmd.window_wm = target;
  if (shards_.size() == 1) return ApplySingle(cmd);
  // Broadcast without waiting: an advance is pipelined like any event,
  // and its errors (none in practice — DrainReady failures) surface at
  // the next barrier with everything else.
  for (size_t i = 0; i < shards_.size(); ++i) Deliver(i, cmd);
  return Status::OK();
}

Status StreamEngine::Flush() {
  if (flushed_) return Status::OK();
  WalRecord record;
  record.type = WalRecordType::kFlush;
  BIKEGRAPH_RETURN_NOT_OK(LogRecord(record));
  return FlushInternal();
}

Status StreamEngine::FlushInternal() {
  flushed_ = true;
  detail::ShardCommand cmd;
  cmd.kind = detail::ShardCommand::Kind::kFlush;
  if (shards_.size() == 1) return ApplySingle(cmd);
  // A barrier point: align clocks, drain every shard completely, and
  // surface any deferred error — end-of-stream must leave nothing
  // parked and nothing unsaid.
  cmd.reorder_wm = global_reorder_wm_;
  for (size_t i = 0; i < shards_.size(); ++i) Deliver(i, cmd);
  WaitQuiescent();
  // The flush released each shard's held events, but a shard whose
  // newest event lags the stream still has trips the single-writer
  // window would already have expired. Advance every window to the
  // merged watermark (phase 2 of the freeze barrier; the sealed reorder
  // buffers are left alone) so post-flush live counts match the
  // single-writer engine exactly.
  int64_t window_wm = INT64_MIN;
  for (const auto& shard : shards_) {
    window_wm = std::max(window_wm,
                         shard->window.watermark().seconds_since_epoch());
  }
  if (window_wm != INT64_MIN) {
    detail::ShardCommand align;
    align.kind = detail::ShardCommand::Kind::kAdvance;
    align.window_wm = window_wm;
    for (size_t i = 0; i < shards_.size(); ++i) Deliver(i, align);
    WaitQuiescent();
  }
  return CollectShardState();
}

Result<std::shared_ptr<const WindowSnapshot>> StreamEngine::Snapshot() {
  if (!config_status_.ok()) return config_status_;
  if (shards_.size() == 1) {
    // The reuse path changes nothing, so it is not logged; replay
    // reaches the same (dirty, published) state and skips it
    // identically. Sharded engines must not take this shortcut: even a
    // no-change Snapshot runs the barrier, which moves checkpointed
    // per-shard watermarks, so every sharded Snapshot is logged.
    if (!dirty_) {
      auto current = publisher_.Current();
      if (current) return current;
    }
  }
  WalRecord record;
  record.type = WalRecordType::kSnapshot;
  BIKEGRAPH_RETURN_NOT_OK(LogRecord(record));
  return SnapshotInternal();
}

Result<std::shared_ptr<const WindowSnapshot>>
StreamEngine::SnapshotInternal() {
  if (shards_.size() > 1) {
    BIKEGRAPH_RETURN_NOT_OK(BarrierQuiesce());
  }
  if (!dirty_) {
    auto current = publisher_.Current();
    if (current) return current;
  }
  // A delta desync (see delta_desync_count) means the live counters and
  // the published graph may disagree; one full rebuild resynchronizes
  // them. The dirty set is still drained so tracking re-arms against
  // the new baseline.
  const uint64_t desyncs = static_cast<uint64_t>(delta_desync_count());
  const bool desynced = desyncs != desyncs_at_last_freeze_;
  // The dirty set is drained (and tracking re-armed) on every freeze, so
  // it describes exactly the changes since the previous published epoch —
  // the delta freeze's baseline. The first freeze, an overflowed set, or
  // a large dirty fraction all fall back to a full rebuild inside
  // FreezeSnapshotDelta.
  const WindowDirtySet changes = DrainWindowChanges();
  bool used_delta = false;
  const auto previous = publisher_.Current();
  Result<WindowSnapshot> frozen =
      previous != nullptr && !desynced
          ? FreezeSnapshotDelta(windows_, *previous, changes,
                                config_.projection, station_index_,
                                config_.snapshot_delta, &used_delta)
          : FreezeFull();
  if (!frozen.ok()) {
    // The drained changes are lost to tracking; a later delta against
    // the still-older published epoch would silently miss them, so the
    // next freeze must take the full path.
    for (SlidingWindowGraph* window : windows_) {
      window->MarkDirtyTrackingIncomplete();
    }
    return frozen.status();
  }
  (used_delta ? delta_freeze_count_ : full_freeze_count_)
      .fetch_add(1, std::memory_order_relaxed);
  desyncs_at_last_freeze_ = desyncs;
  dirty_ = false;
  return publisher_.Publish(std::move(*frozen));
}

WindowDirtySet StreamEngine::DrainWindowChanges() {
  // The live pairs now are the edges and self-loops of the graph the
  // coming freeze publishes: the base the next epoch's delta freeze
  // tests against, so the next epoch stops tracking at its cut-off.
  size_t live_pairs = 0;
  for (const SlidingWindowGraph* window : windows_) {
    live_pairs += window->pair_count();
  }
  const size_t limit = std::exchange(
      dirty_pair_limit_,
      MaxDeltaDirtyPairs(config_.snapshot_delta, live_pairs));
  // Every shard tracked under the same global limit, so records that
  // together pass it describe an epoch the delta freeze rejects.
  return SlidingWindowGraph::DrainDirty(windows_, limit, dirty_pair_limit_);
}

Result<RefreshOutcome> StreamEngine::DetectCurrent() {
  if (!config_status_.ok()) return config_status_;
  // The default spec is logged as a flag, not serialized: replay reads
  // it from the recovering engine's config, which the fingerprint check
  // already pins to the original.
  WalRecord record;
  record.type = WalRecordType::kDetect;
  record.default_spec = true;
  BIKEGRAPH_RETURN_NOT_OK(LogRecord(record));
  return DetectInternal(config_.detection);
}

Result<RefreshOutcome> StreamEngine::DetectCurrent(
    const community::DetectSpec& spec) {
  if (!config_status_.ok()) return config_status_;
  WalRecord record;
  record.type = WalRecordType::kDetect;
  record.default_spec = false;
  record.spec = spec;
  BIKEGRAPH_RETURN_NOT_OK(LogRecord(record));
  return DetectInternal(spec);
}

Result<RefreshOutcome> StreamEngine::DetectInternal(
    const community::DetectSpec& spec) {
  BIKEGRAPH_ASSIGN_OR_RETURN(std::shared_ptr<const WindowSnapshot> snap,
                             SnapshotInternal());
  return tracker_.Refresh(snap->graph, spec);
}

Status StreamEngine::SyncWal() {
  if (!config_.durability.enabled || degraded_) return Status::OK();
  Status status = durability_status_;
  if (status.ok()) {
    status = wal_->Sync();
    if (!status.ok() && config_.durability.faults.degrade_on_exhausted) {
      // Surface this failure loudly (the caller asked for durability and
      // did not get it), but degrade so ingestion can continue.
      EnterDegradedMode(status);
    }
  }
  // Then the checkpoint commit: the log's error outranks the commit's,
  // which is consumed either way.
  const Status committed = AwaitCommit();
  return status.ok() ? committed : status;
}

const SlidingWindowGraph& StreamEngine::window() const {
  return shards_[0]->window;
}

const ReorderBuffer& StreamEngine::reorder() const {
  return shards_[0]->reorder;
}

CivilTime StreamEngine::watermark() const {
  CivilTime newest(INT64_MIN);
  for (const auto& shard : shards_) {
    if (shard->window.watermark() > newest) {
      newest = shard->window.watermark();
    }
  }
  return newest;
}

size_t StreamEngine::ingested_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->window.ingested_count();
  }
  return total;
}

size_t StreamEngine::trip_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->window.trip_count();
  return total;
}

size_t StreamEngine::expired_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->window.expired_count();
  return total;
}

uint64_t StreamEngine::reordered_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->reorder.reordered_count();
  }
  return total;
}

uint64_t StreamEngine::late_dropped_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->reorder.late_dropped_count();
  }
  return total;
}

uint64_t StreamEngine::duplicate_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->reorder.duplicate_count();
  }
  return total;
}

size_t StreamEngine::buffered_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->reorder.buffered_count();
  }
  return total;
}

uint64_t StreamEngine::duplicate_ids_high_water() const {
  uint64_t highest = 0;
  for (const auto& shard : shards_) {
    highest = std::max(highest, shard->reorder.duplicate_ids_high_water());
  }
  return highest;
}

uint64_t StreamEngine::duplicate_ids_evicted() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->reorder.duplicate_ids_evicted();
  }
  return total;
}

size_t StreamEngine::delta_desync_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->window.delta_desync_count();
  }
  return total;
}

Result<WindowSnapshot> StreamEngine::FreezeFull() const {
  return FreezeSnapshot(windows_, config_.projection, station_index_);
}

EngineCheckpoint StreamEngine::CaptureState() const {
  EngineCheckpoint c;
  c.wal_seq = wal_seq_;
  c.station_count = config_.station_count;
  c.window_seconds = config_.window_seconds;
  c.max_lateness_seconds = config_.max_lateness_seconds;
  c.late_policy = config_.late_policy;
  c.suppress_duplicates = config_.suppress_duplicate_rentals;
  c.flushed = flushed_;
  const auto current = publisher_.Current();
  c.snapshot_clean = !dirty_ && current != nullptr;
  c.publisher_epoch = publisher_.epoch();
  if (c.snapshot_clean) {
    c.published_window_start_seconds =
        current->window_start.seconds_since_epoch();
    c.published_window_end_seconds =
        current->window_end.seconds_since_epoch();
  }
  c.delta_freeze_count = delta_freeze_count_.load(std::memory_order_relaxed);
  c.full_freeze_count = full_freeze_count_.load(std::memory_order_relaxed);
  c.desyncs_published = desyncs_at_last_freeze_;
  c.tracker = tracker_.ExportState();
  c.shards.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    c.shards[i].applied = shards_[i]->applied;
    c.shards[i].reorder = shards_[i]->reorder.ExportState();
    c.shards[i].window = shards_[i]->window.ExportState();
  }
  return c;
}

Status StreamEngine::Checkpoint() {
  if (!config_.durability.enabled) {
    return Status::FailedPrecondition(
        "Checkpoint() requires durability.enabled");
  }
  if (degraded_) {
    return Status::FailedPrecondition(
        "Checkpoint() on a degraded (non-durable) engine: " +
        degrade_reason_.ToString());
  }
  if (!durability_status_.ok()) return durability_status_;
  // At most one commit in flight: wait for the previous one. A failed
  // commit is not a poison — WriteCheckpoint cleaned up its temp, the
  // previous checkpoint set is untouched, and the WAL still holds every
  // record — but it is this call's result, and no new checkpoint starts.
  BIKEGRAPH_RETURN_NOT_OK(AwaitCommit());
  // Quiesce the shards so the capture is a coherent cut of every
  // vertical. The barrier's own clock alignments are not logged, but
  // they are idempotent maxima the next barrier re-derives, so a replay
  // from an older checkpoint converges at its next barrier point.
  if (shards_.size() > 1) {
    BIKEGRAPH_RETURN_NOT_OK(BarrierQuiesce());
  }
  // Rotate, which syncs before it closes the segment: a checkpoint
  // claiming wal_seq N with record N still in the write buffer would,
  // after a crash, restore to a state the log cannot re-derive. Record
  // N + 1 then opens a segment of its own, so every older segment is
  // wholly covered by this checkpoint: Recover skips them unread and
  // PruneWalSegments drops them once this is the oldest checkpoint kept.
  const Status logged = wal_->Rotate();
  if (!logged.ok()) {
    if (config_.durability.faults.degrade_on_exhausted) {
      EnterDegradedMode(logged);
    }
    return logged;
  }
  // The rest — serialize, write, fsync, rename, directory fsync and the
  // prunes — runs on the committer while this thread moves on. Nothing
  // is pruned before the new checkpoint is durable, so a crash with the
  // commit in flight recovers from the previous checkpoint and the log.
  committer_->Start(CaptureState());
  return Status::OK();
}

Status StreamEngine::RestoreFromCheckpoint(
    const EngineCheckpoint& checkpoint) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    const EngineCheckpoint::Shard& saved = checkpoint.shards[i];
    BIKEGRAPH_RETURN_NOT_OK(shards_[i]->reorder.RestoreState(saved.reorder));
    BIKEGRAPH_RETURN_NOT_OK(shards_[i]->window.RestoreState(saved.window));
    shards_[i]->applied = saved.applied;
  }
  // The stream-wide watermark is held by whichever shard owned the last
  // raising event (every other shard is at or below it), so the max
  // recovers it exactly.
  global_reorder_wm_ = INT64_MIN;
  for (const auto& shard : shards_) {
    global_reorder_wm_ = std::max(
        global_reorder_wm_, shard->reorder.watermark().seconds_since_epoch());
  }
  tracker_.RestoreState(checkpoint.tracker);
  flushed_ = checkpoint.flushed;
  delta_freeze_count_.store(checkpoint.delta_freeze_count,
                            std::memory_order_relaxed);
  full_freeze_count_.store(checkpoint.full_freeze_count,
                           std::memory_order_relaxed);
  desyncs_at_last_freeze_ = checkpoint.desyncs_published;
  if (checkpoint.snapshot_clean && checkpoint.publisher_epoch > 0) {
    // The published snapshot was current at checkpoint time. Rebuild it
    // from the restored window(s) (a full freeze is bit-identical to
    // whatever path originally produced it), restamp its original epoch
    // and window bounds, and republish — readers and the delta-freeze
    // baseline resume exactly where the crashed run left them.
    publisher_.RestoreEpoch(checkpoint.publisher_epoch - 1);
    BIKEGRAPH_ASSIGN_OR_RETURN(WindowSnapshot snap, FreezeFull());
    snap.window_start = CivilTime(checkpoint.published_window_start_seconds);
    snap.window_end = CivilTime(checkpoint.published_window_end_seconds);
    publisher_.Publish(std::move(snap));
    // Arm dirty tracking so replayed and resumed freezes can delta
    // against the republished baseline (RestoreState leaves it unarmed).
    (void)DrainWindowChanges();
    dirty_ = false;
  } else {
    // Nothing published, or the window had moved past the publish: the
    // next freeze takes the full path against an empty baseline.
    publisher_.RestoreEpoch(checkpoint.publisher_epoch);
    dirty_ = true;
  }
  return Status::OK();
}

Status StreamEngine::ApplyWalRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kEvent:
      BIKEGRAPH_RETURN_NOT_OK(AdmitEvent(record.event));
      return IngestInternal(record.event);
    case WalRecordType::kAdvance:
      return AdvanceInternal(CivilTime(record.watermark_seconds));
    case WalRecordType::kFlush:
      if (flushed_) return Status::OK();
      return FlushInternal();
    case WalRecordType::kSnapshot:
      return SnapshotInternal().status();
    case WalRecordType::kDetect:
      return DetectInternal(record.default_spec ? config_.detection
                                                : record.spec)
          .status();
  }
  return Status::DataLoss("unknown WAL record type");
}

Result<std::unique_ptr<StreamEngine>> StreamEngine::Recover(
    StreamEngineConfig config, RecoveryStats* stats) {
  if (stats != nullptr) *stats = RecoveryStats{};
  if (!config.durability.enabled || config.durability.directory.empty()) {
    return Status::InvalidArgument(
        "Recover() requires durability.enabled and a directory");
  }
  const std::string directory = config.durability.directory;
  IoEnv* const env = config.durability.io_env;
  // A config every later call would reject must not touch the directory.
  BIKEGRAPH_RETURN_NOT_OK(CheckConfig(config));
  BIKEGRAPH_RETURN_NOT_OK(CreateDurabilityDirectory(env, directory));
  if (HasDegradedMarker(directory)) {
    // A previous run dropped to non-durable mode and kept applying ops
    // the log never saw; replaying the logged prefix and calling it the
    // run would be exactly the silent divergence durability promises
    // never to produce. Deleting the marker file is the operator's
    // explicit acceptance of the loss (recovery then restores the
    // logged prefix).
    return Status::DataLoss(
        "durability directory '" + directory + "' carries '" +
        std::string(kDegradedMarkerName) +
        "': the previous run degraded to non-durable mode, so the log "
        "cannot reproduce its final state. Delete the marker to accept "
        "the loss and recover the logged prefix.");
  }
  BIKEGRAPH_ASSIGN_OR_RETURN(CheckpointLoadResult loaded,
                             LoadNewestCheckpoint(directory, env));

  auto engine = std::unique_ptr<StreamEngine>(
      new StreamEngine(RecoverTag{}, std::move(config)));
  uint64_t base_seq = 0;
  if (loaded.found) {
    const EngineCheckpoint& c = loaded.checkpoint;
    if (c.station_count != engine->config_.station_count ||
        c.window_seconds != engine->config_.window_seconds ||
        c.max_lateness_seconds != engine->config_.max_lateness_seconds ||
        c.late_policy != engine->config_.late_policy ||
        c.suppress_duplicates !=
            engine->config_.suppress_duplicate_rentals ||
        c.shards.size() != engine->shards_.size()) {
      return Status::FailedPrecondition(
          "checkpoint '" + loaded.path +
          "' was written under a different engine config (station count, "
          "window, lateness, policies, or shard count differ)");
    }
    BIKEGRAPH_RETURN_NOT_OK(engine->RestoreFromCheckpoint(c));
    base_seq = c.wal_seq;
  }
  // Replay the records past the checkpoint as they are read. Segments it
  // covers are never opened, and ReadWal refuses a log that does not
  // continue from base_seq + 1: a hole no replay can bridge.
  uint64_t replayed = 0;
  uint64_t replay_errors = 0;
  BIKEGRAPH_ASSIGN_OR_RETURN(
      WalReadResult wal,
      ReadWal(directory, /*repair_torn_tail=*/true, base_seq,
              [&](const WalRecord& record) {
                if (!engine->ApplyWalRecord(record).ok()) ++replay_errors;
                ++replayed;
              },
              env));
  const uint64_t resume_seq = std::max(base_seq, wal.last_seq);
  engine->wal_seq_ = resume_seq;

  if (wal.last_seq >= base_seq && !wal.tail_segment_path.empty()) {
    // The tail segment's surviving records run through resume_seq, so
    // appending resume_seq + 1 at its (repaired) end keeps the in-file
    // sequence contiguous.
    BIKEGRAPH_ASSIGN_OR_RETURN(
        engine->wal_,
        WalWriter::Open(engine->config_.durability, resume_seq + 1,
                        wal.tail_segment_path, wal.tail_segment_bytes));
  } else {
    // Every surviving record (if any) is below the checkpoint — appending
    // to the tail would tear its sequence. The checkpoint carries all
    // their state, so drop the segments and start fresh.
    BIKEGRAPH_RETURN_NOT_OK(RemoveWalSegments(directory, env));
    BIKEGRAPH_ASSIGN_OR_RETURN(
        engine->wal_,
        WalWriter::Open(engine->config_.durability, resume_seq + 1));
  }
  // Replay is complete and deterministic; only now may the shard workers
  // take over command application, and the committer start.
  engine->StartThreads();
  if (stats != nullptr) {
    stats->used_checkpoint = loaded.found;
    stats->checkpoint_seq = base_seq;
    stats->skipped_checkpoints = loaded.skipped;
    stats->replayed_records = replayed;
    stats->replay_errors = replay_errors;
    stats->recovered_seq = resume_seq;
    stats->truncated_bytes = wal.truncated_bytes;
  }
  return engine;
}

}  // namespace bikegraph::stream
