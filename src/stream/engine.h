#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/civil_time.h"
#include "core/result.h"
#include "analysis/temporal_graph.h"
#include "community/detector.h"
#include "geo/latlon.h"
#include "stream/checkpoint.h"
#include "stream/event.h"
#include "stream/incremental_community.h"
#include "stream/reorder_buffer.h"
#include "stream/shard.h"
#include "stream/snapshot.h"
#include "stream/wal.h"
#include "stream/window_graph.h"

namespace bikegraph::stream {

namespace detail {
class CheckpointCommitter;
class EngineShard;
struct ShardCommand;
}  // namespace detail

/// \brief Configuration of a StreamEngine.
struct StreamEngineConfig {
  /// Station universe; event endpoints must be dense ids < station_count.
  /// At most kMaxWindowStations (4,096): each shard's window keeps its
  /// pair counts in a dense n(n+1)/2 triangle, and a larger universe makes
  /// every Ingest, Snapshot and DetectCurrent return InvalidArgument.
  size_t station_count = 0;
  /// Sliding-window length in seconds; 0 = landmark window (never
  /// expires — the batch semantics over a replayed dataset).
  int64_t window_seconds = 7 * 86400;
  /// Projection applied at snapshot time (GBasic by default; set the
  /// granularity/floor/contrast for GDay/GHour-style windows).
  analysis::TemporalGraphOptions projection;
  /// Default algorithm for DetectCurrent() (Louvain, per the paper).
  community::DetectSpec detection;
  /// Warm-start escalation policy for the community tracker.
  RefreshPolicy refresh;
  /// Optional station positions (indexed by station id; when set there
  /// must be at least station_count entries, the first station_count
  /// must be valid coordinates, and exactly those are indexed; later
  /// entries are neither checked nor indexed). Every snapshot then shares
  /// one GridIndex over them, built once at engine construction.
  std::vector<geo::LatLon> station_positions;
  /// Out-of-order tolerance: an arriving event may start up to this many
  /// seconds before the watermark (newest start time seen, or the latest
  /// explicit Advance); a bounded reorder buffer re-sorts such events
  /// into start-time order before they reach the window. Size it to the
  /// feed's worst start-to-report delay (for trips reported at their end,
  /// the longest trip duration). 0 (the default) keeps the strict
  /// pre-buffer contract: any start-time regression is late. At most
  /// 2^22 s (~48 days), the reorder buffer's timing-wheel limit.
  int64_t max_lateness_seconds = 0;
  /// What happens to an event older than the horizon: kError (default)
  /// fails the Ingest — the pre-buffer contract — while kDrop discards
  /// it and counts it in `late_dropped_count()`, which is what a live
  /// dashboard wants.
  LateEventPolicy late_policy = LateEventPolicy::kError;
  /// Suppress redelivered rental ids within the horizon (real feeds
  /// redeliver); suppressed events count in `duplicate_count()`.
  bool suppress_duplicate_rentals = false;
  /// Cap on the duplicate-suppression id set (0 = unbounded); see
  /// ReorderBufferOptions::max_duplicate_ids for the eviction contract.
  size_t max_duplicate_rental_ids = size_t{1} << 20;
  /// Freeze snapshots by copy-on-write patching of the previous epoch's
  /// CSR and profiles when only a small fraction of the window changed
  /// (see SnapshotDeltaPolicy); a `max_dirty_fraction` of 0 forces a full
  /// rebuild per epoch.
  SnapshotDeltaPolicy snapshot_delta;
  /// Durability: with `durability.enabled`, every state-changing call is
  /// written to a write-ahead log under `durability.directory` before it
  /// is applied, and `Checkpoint()` / `StreamEngine::Recover()` provide
  /// crash-consistent save/restore (see docs/DURABILITY.md). Disabled
  /// (the default) the engine touches no files and the ingest hot path
  /// is unchanged.
  DurabilityConfig durability;
  /// Ingest parallelism: the stream vertical is partitioned into this
  /// many shards, each owning its own reorder buffer and window graph
  /// and fed by a bounded SPSC ring from the ingest thread (stations are
  /// hash-partitioned; a pair belongs to the shard of its smaller
  /// endpoint — see ShardRouter). 1 (the default, and the meaning of 0)
  /// keeps today's single-writer engine: no threads, no queues, every
  /// call applied inline. With N > 1 the mutating API is unchanged but
  /// Ingest/Advance errors from inside a shard are deferred to the next
  /// barrier point (Snapshot/Flush/Checkpoint) instead of returned by
  /// the enqueuing call, and the live accessors are only meaningful at
  /// those same quiescent points. Snapshots are bit-identical to the
  /// single-writer engine's for any N (merge-at-freeze; locked by
  /// tests/stream_shard_test.cc). `shard_count` is part of the durable
  /// fingerprint: a WAL directory written under N shards must be
  /// recovered with N shards.
  size_t shard_count = 1;
};

/// \brief The live-monitoring entry point: ingest a trip stream, maintain
/// the sliding window, publish immutable snapshots, and keep community
/// structure fresh with warm-started refreshes.
///
/// Thread model (see docs/SERVING.md): all *mutating* calls — Ingest,
/// Advance, Flush, Snapshot, DetectCurrent, Checkpoint, SyncWal — belong
/// to one ingestion thread. Concurrently with that thread, any number of reader
/// threads may call `LatestSnapshot()` / `publisher()` (the atomic
/// RCU-style hand-off) and the freeze-stat getters
/// `delta_freeze_count()` / `full_freeze_count()`; the supported
/// concurrent read path is a `query::QueryService` over `publisher()`.
/// The live accessors `window()`, `reorder()`, `tracker()` and the
/// counters derived from them read mutable ingest state and are
/// ingestion-thread-only — and with `shard_count > 1` they are
/// additionally only meaningful immediately after a barrier point
/// (Snapshot, Flush, Checkpoint, or construction), when every shard
/// worker is quiescent.
///
/// Durable mode (`config.durability.enabled`): the engine owns one more
/// thread, the checkpoint committer, which writes each checkpoint
/// Checkpoint() captured and prunes what it supersedes (see Checkpoint()).
///
/// Sharded mode (`config.shard_count > 1`): the engine owns one worker
/// thread per shard. Ingest routes each event to its owning shard's SPSC
/// ring and returns without waiting; Snapshot runs a two-phase barrier —
/// first draining every shard to the common reorder watermark, then
/// advancing every shard window to the merged window watermark — and
/// freezes the disjoint per-shard windows as one span (the shards
/// FreezeSnapshot in stream/snapshot.h), so the published snapshot is
/// bit-identical to the single-writer engine's over the same logical
/// stream. See
/// docs/STREAMING.md for the partition function, barrier, and merge-cost
/// model.
///
/// Typical loop:
///
/// \code
///   StreamEngine engine(config);
///   for (const TripEvent& e : replay) {
///     BIKEGRAPH_RETURN_NOT_OK(engine.Ingest(e));
///     if (window_boundary) {
///       BIKEGRAPH_ASSIGN_OR_RETURN(auto refresh, engine.DetectCurrent());
///       // refresh.result.partition, refresh.nmi_drift, ...
///     }
///   }
/// \endcode
class StreamEngine {
 public:
  /// Constructs a fresh engine. With durability enabled this creates the
  /// WAL directory and refuses (FailedPrecondition, surfaced on the
  /// first durable call) a directory that already holds durable state —
  /// resuming an existing directory is `Recover()`'s job, and silently
  /// logging a fresh run over an old one would orphan its records. A
  /// config the windows refuse, or with too few or invalid
  /// `station_positions`, touches no file: its durable calls return the
  /// same InvalidArgument as every other call.
  explicit StreamEngine(StreamEngineConfig config);

  /// Lets the checkpoint commit in flight finish — the checkpoint lands
  /// and its prunes run — and joins the committer, then the shard workers
  /// (none for shard_count == 1). Commands still queued are applied before
  /// the workers exit. A commit failure is not reported here: call
  /// SyncWal() first to learn it.
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// \brief What `Recover` found and did.
  struct RecoveryStats {
    bool used_checkpoint = false;
    /// WAL sequence the loaded checkpoint covered (0 = none).
    uint64_t checkpoint_seq = 0;
    /// Newer-but-corrupt checkpoint files skipped.
    uint64_t skipped_checkpoints = 0;
    /// WAL records replayed on top of the checkpoint.
    uint64_t replayed_records = 0;
    /// Replayed records that returned an error (counted, not fatal: a
    /// record that failed in the original run fails identically here and
    /// leaves the state unchanged either way).
    uint64_t replay_errors = 0;
    /// The sequence number recovery caught up to; the next durable call
    /// logs `recovered_seq + 1`.
    uint64_t recovered_seq = 0;
    /// Torn bytes truncated from the WAL tail (a crash mid-append).
    uint64_t truncated_bytes = 0;
  };

  /// Rebuilds an engine from `config.durability.directory`: loads the
  /// newest valid checkpoint, replays the WAL records past it one by one
  /// as they are read (segments the checkpoint covers are never opened,
  /// so time and memory follow one checkpoint interval, not the log's
  /// history), repairs a torn tail, and reattaches the writer so the run
  /// continues where the crashed one stopped. The recovered engine is
  /// bit-identical to the uninterrupted run at the same point — window
  /// contents, published snapshot, tracker seed and counters (locked by
  /// tests/stream_durability_test.cc at randomized kill points). An
  /// empty or missing directory recovers to a fresh engine. Fails with
  /// FailedPrecondition when the checkpoint's config fingerprint
  /// (station count, window, lateness, policies, shard count) disagrees
  /// with `config`, and DataLoss when WAL records past the checkpoint are
  /// missing, or corrupt anywhere but the tail. Replay is single-threaded
  /// regardless of shard count (the router re-partitions the merged log
  /// deterministically); shard workers start once replay completes.
  [[nodiscard]] static Result<std::unique_ptr<StreamEngine>> Recover(
      StreamEngineConfig config, RecoveryStats* stats = nullptr);

  /// Ingests one event. Arrivals may be out of start-time order by up to
  /// `config.max_lateness_seconds`; the reorder buffer re-sorts them, so
  /// an event becomes visible to the window (and to snapshots) only once
  /// the watermark has moved `max_lateness_seconds` past its start time.
  /// Events older than that horizon hit `config.late_policy`. Endpoints
  /// out of `[0, station_count)` are InvalidArgument at arrival, and
  /// ingesting after Flush() is FailedPrecondition. With shard_count > 1
  /// a per-shard failure (a late event under LateEventPolicy::kError)
  /// surfaces at the next barrier point rather than here.
  [[nodiscard]] Status Ingest(const TripEvent& event);

  /// Advances stream time without an event: releases buffered events the
  /// new watermark makes safe, then expires stale trips. The watermark is
  /// also the reorder buffer's lateness bound, so advancing declares
  /// "events starting before watermark - max_lateness are now late".
  /// Watermarks in the past are a no-op.
  [[nodiscard]] Status Advance(CivilTime watermark);

  /// Marks end-of-stream: drains every buffered event into the window in
  /// start-time order. Call before the final Snapshot()/DetectCurrent()
  /// of a replay; afterwards further Ingest calls fail. Idempotent — a
  /// second Flush is a no-op, not an error. Sharded: a barrier point
  /// (waits for every shard to drain; surfaces deferred shard errors).
  [[nodiscard]] Status Flush();

  /// Freezes the live window into an immutable snapshot, publishes it,
  /// and returns it. Reuses the latest snapshot when nothing changed
  /// since it was published. After any ApplyDelta desync (see
  /// `delta_desync_count()`) the freeze takes the full-rebuild path once,
  /// which resynchronizes the published graph with the live counters.
  /// Sharded: a barrier point — drains every shard to the common
  /// watermark, drains the shards' dirty sets together in shard order,
  /// and freezes the shards as one window; surfaces deferred shard
  /// errors.
  [[nodiscard]] Result<std::shared_ptr<const WindowSnapshot>> Snapshot();

  /// The most recently published snapshot (nullptr before the first
  /// Snapshot()/DetectCurrent() call). Never blocks ingestion; safe from
  /// any thread (atomic load — see SnapshotPublisher).
  std::shared_ptr<const WindowSnapshot> LatestSnapshot() const {
    return publisher_.Current();
  }

  /// The engine's snapshot hand-off point, for concurrent read-side
  /// consumers (query::QueryService pins epochs through it). Safe from
  /// any thread, for any shard count — sharded ingestion publishes
  /// through this same single publisher after its merge barrier.
  const SnapshotPublisher& publisher() const { return publisher_; }

  /// Refreshes community structure on the current window with the
  /// configured default spec.
  [[nodiscard]] Result<RefreshOutcome> DetectCurrent();

  /// Refreshes community structure on the current window with an explicit
  /// spec (snapshots first if the window changed). The warm-start seed is
  /// managed by the engine's tracker; `spec.options.initial_partition` is
  /// ignored.
  [[nodiscard]] Result<RefreshOutcome> DetectCurrent(
      const community::DetectSpec& spec);

  /// Durability only: fsyncs the WAL through the last appended record
  /// (appends are group-synced every `sync_interval_records` otherwise),
  /// then waits for the checkpoint commit in flight, if any. Returns the
  /// log's error, or else the failure of a commit not yet reported — each
  /// commit failure is reported once, here or by the next Checkpoint().
  /// So after `Checkpoint()` and `SyncWal()` both succeed, the checkpoint
  /// and its prunes are on disk. No-op when durability is disabled or the
  /// engine has degraded.
  [[nodiscard]] Status SyncWal();

  /// Durability only. On the calling thread: waits for the previous
  /// checkpoint's commit (if it failed, returns that failure and starts
  /// no checkpoint), quiesces the shards, syncs the WAL and rotates it to
  /// a new segment, and captures the complete engine state. A failed
  /// sync or rotation fails the log like a failed append (poison or
  /// degrade, per FaultPolicy). Then returns, while the engine's
  /// committer thread writes the capture as a crash-consistent
  /// checkpoint, prunes old checkpoints down to `checkpoints_kept`, and
  /// deletes the WAL segments the oldest kept checkpoint covers
  /// (WalPruneBound: none until `checkpoints_kept` checkpoints exist) —
  /// so the directory holds about `checkpoints_kept` checkpoint intervals
  /// of log. A failed commit never poisons or degrades the engine: the
  /// previous checkpoints and the log are intact. It is reported once, by
  /// the next Checkpoint() or SyncWal(); Ingest, Advance, Snapshot and
  /// DetectCurrent never report it. FailedPrecondition when durability
  /// is disabled or the engine has degraded. Sharded: a barrier point
  /// (the checkpoint must capture quiescent shards).
  [[nodiscard]] Status Checkpoint();

  /// Copies out the complete logical state (what `Checkpoint()` writes),
  /// including every shard's components and applied-command counter.
  /// Exposed so tests can compare a recovered engine against an
  /// uninterrupted one bit for bit via SerializeCheckpoint. Sharded:
  /// call only at a quiescent point (after Snapshot/Flush/Checkpoint).
  EngineCheckpoint CaptureState() const;

  const StreamEngineConfig& config() const { return config_; }
  /// Shards this engine ingests through (>= 1; 1 = the single-writer
  /// engine, no worker threads).
  size_t shard_count() const { return shards_.size(); }
  /// Shard 0's live window. With one shard this is *the* window (the
  /// legacy accessor); with several it is one disjoint slice — use
  /// Snapshot() / trip_count() / watermark() for whole-stream views.
  /// Ingestion-thread-only, quiescent-only when sharded.
  const SlidingWindowGraph& window() const;
  const IncrementalCommunityTracker& tracker() const { return tracker_; }
  /// Shard 0's reorder buffer (see window() for the sharded caveat).
  const ReorderBuffer& reorder() const;
  /// The merged stream time: the newest window watermark across shards
  /// (equal to the single-writer watermark for any shard count).
  CivilTime watermark() const;
  /// Events ingested into windows across all shards.
  size_t ingested_count() const;
  /// Trips currently inside the merged window (sum over shards; pairs
  /// are disjoint so nothing is counted twice).
  size_t trip_count() const;
  /// Trips expired out of the sliding window across all shards.
  size_t expired_count() const;
  /// True once Flush() has run (further Ingest calls fail).
  bool flushed() const { return flushed_; }
  /// Sequence number of the last WAL record appended (0 when durability
  /// is disabled or nothing was logged yet).
  uint64_t wal_seq() const { return wal_seq_; }

  /// Durability fault accounting (DurabilityConfig::faults), read off the
  /// writer. The counters survive a degrade, which keeps the writer it
  /// stops using, so conservation checks hold at any point.
  /// Ingestion-thread-only; when sharded, stable at barriers like the
  /// other serving counters — the WAL is written by the ingestion thread
  /// before dispatch, so shard count never changes the values.
  ///
  /// Backed-off retries performed against FaultPolicy::max_retries.
  uint64_t wal_retry_count() const { return wal_ ? wal_->retry_count() : 0; }
  /// Durable calls that failed transiently and then succeeded.
  uint64_t wal_transient_recovered_count() const {
    return wal_ ? wal_->transient_recovered_count() : 0;
  }
  /// ENOSPC self-heal prune attempts (see FaultPolicy).
  uint64_t wal_enospc_prune_count() const {
    return wal_ ? wal_->enospc_prune_count() : 0;
  }
  /// True once the engine dropped to loudly-non-durable mode
  /// (FaultPolicy::degrade_on_exhausted): ingestion continues, logging
  /// has stopped, and the directory carries the degraded marker so
  /// Recover() will refuse it with DataLoss rather than silently serve
  /// the logged prefix as the whole run.
  bool degraded() const { return degraded_; }
  /// The failure that triggered the degrade (OK while not degraded).
  const Status& degrade_reason() const { return degrade_reason_; }

  /// Reorder-buffer stats, surfaced for dashboards: events re-sorted by
  /// the buffer, events dropped as too late (LateEventPolicy::kDrop),
  /// redeliveries suppressed, and events admitted but not yet released
  /// to the window. Sums over shards; ingestion-thread-only,
  /// quiescent-only when sharded.
  uint64_t reordered_count() const;
  uint64_t late_dropped_count() const;
  uint64_t duplicate_count() const;
  size_t buffered_count() const;
  /// Duplicate-suppression memory bound: peak id-set size (max over
  /// shards — each shard holds its own id set), and ids evicted by the
  /// `max_duplicate_rental_ids` cap (sum over shards).
  uint64_t duplicate_ids_high_water() const;
  uint64_t duplicate_ids_evicted() const;

  /// Snapshot-freeze stats: epochs frozen by copy-on-write delta
  /// patching vs by a full window rebuild (the first epoch, large dirty
  /// fractions, and dirty-set overflows all take the full path). The
  /// counters are atomics so a dashboard thread can poll them while the
  /// ingestion thread freezes; relaxed order — they are monotonic tallies
  /// with no cross-variable invariant for readers to rely on.
  uint64_t delta_freeze_count() const {
    return delta_freeze_count_.load(std::memory_order_relaxed);
  }
  uint64_t full_freeze_count() const {
    return full_freeze_count_.load(std::memory_order_relaxed);
  }
  /// Delta applications the window graph refused because the stored pair
  /// count disagreed (a would-have-been corruption, recovered by
  /// skipping; see SlidingWindowGraph::delta_desync_count). Non-zero is
  /// a bug worth reporting, but the engine stays correct: the next
  /// Snapshot() forces a full freeze. Summed over shards.
  size_t delta_desync_count() const;

 private:
  struct RecoverTag {};
  /// Constructs components only; durability is attached afterwards by
  /// InitDurability (fresh engine) or Recover (restore), and the threads
  /// start last (public constructor / end of Recover).
  StreamEngine(RecoverTag, StreamEngineConfig config);

  /// Fresh-engine durability setup: create the directory, refuse one
  /// with existing durable state, open the writer at sequence 1. A
  /// failure parks in durability_status_ (constructors cannot fail) and
  /// surfaces on the first durable call.
  void InitDurability();

  /// Spawns the checkpoint committer once durability is attached (a WAL
  /// writer is open) and one worker per shard (none for shard_count ==
  /// 1). Called after construction/recovery is complete so no thread
  /// observes a half-built engine.
  void StartThreads();
  /// Signals and joins every worker; queued commands finish first.
  void StopShardWorkers();

  /// Appends `record` (the intent of the current public call) to the WAL
  /// before the call's state change is applied. No-op (OK) when
  /// durability is disabled or the engine has degraded. Under the
  /// degrade policy an exhausted append degrades the engine and returns
  /// OK so the caller's state change still happens (un-logged, loudly).
  Status LogRecord(const WalRecord& record);

  /// The degrade transition: let the checkpoint commit in flight finish
  /// and stop the committer, abandon the WAL (its writer stays, for its
  /// fault counters), drop the loud on-disk marker (best-effort), and log
  /// the reason at Error level. Idempotent in effect (only called once).
  void EnterDegradedMode(const Status& reason);

  /// Waits for the checkpoint commit in flight and returns a failure not
  /// yet reported (OK without a committer).
  Status AwaitCommit();

  /// Replays one WAL record through the non-logging internals. Errors
  /// mirror the original run's and leave state unchanged.
  Status ApplyWalRecord(const WalRecord& record);

  /// Admission for one event, shared by Ingest and WAL replay: the
  /// flushed check, the config check, then the endpoint range.
  Status AdmitEvent(const TripEvent& event) const;

  /// Restores the complete logical state from a parsed checkpoint with
  /// one entry in `shards` per shard (Recover checks the count).
  Status RestoreFromCheckpoint(const EngineCheckpoint& checkpoint);

  // The public entry points log intent, then call these; WAL replay
  // calls them directly. Identical bytes in, identical state out.
  Status IngestInternal(const TripEvent& event);
  Status AdvanceInternal(CivilTime watermark);
  Status FlushInternal();
  Result<std::shared_ptr<const WindowSnapshot>> SnapshotInternal();
  Result<RefreshOutcome> DetectInternal(const community::DetectSpec& spec);

  /// Single-shard fast path: applies `cmd` to shard 0 on the calling
  /// thread, collects its dirty flag eagerly (the legacy `dirty_`
  /// semantics), resyncs the global reorder watermark from the
  /// authoritative buffer, and returns the command's status directly —
  /// bit-for-bit the pre-sharding engine.
  Status ApplySingle(const detail::ShardCommand& cmd);
  /// Multi-shard dispatch: enqueue on the shard's ring (spinning on a
  /// full ring) when workers run, or apply inline with the same
  /// deferred-error bookkeeping during WAL replay. Never fails;
  /// per-command failures park in the shard's first_error.
  void Deliver(size_t shard, const detail::ShardCommand& cmd);
  /// Blocks until every shard has applied every command dispatched so
  /// far (acked == pushed, acquire).
  void WaitQuiescent();
  /// After quiescence: folds shard dirty flags into dirty_ (clearing
  /// them) and returns the first deferred shard error in shard order
  /// (clearing all) — each error is surfaced exactly once.
  Status CollectShardState();
  /// The sharded freeze barrier: phase 1 aligns every shard's reorder
  /// clock to the global watermark and drains what that releases; phase
  /// 2 advances every shard window to the merged window watermark so
  /// expiry is uniform. Quiescent on return; surfaces deferred errors.
  Status BarrierQuiesce();
  /// Full (non-delta) freeze of the shard windows. Shards must be
  /// quiescent.
  Result<WindowSnapshot> FreezeFull() const;
  /// Drains every shard's change record into the one set a delta freeze
  /// patches, and starts the next epoch under the delta freeze's cut-off
  /// for the live pairs now (MaxDeltaDirtyPairs). Shards must be
  /// quiescent.
  WindowDirtySet DrainWindowChanges();

  StreamEngineConfig config_;
  /// pair -> owning shard (stable splitmix64 hash; see stream/shard.h).
  ShardRouter router_;
  /// The shard vertical(s): reorder buffer + window graph + dirty flag
  /// (+ ring and worker when shard_count > 1). Never empty; shard 0
  /// doubles as the single-writer engine.
  std::vector<std::unique_ptr<detail::EngineShard>> shards_;
  /// Each shard's window, in shard order, built with shards_: the span
  /// the freeze and the dirty drain read.
  std::vector<SlidingWindowGraph*> windows_;
  SnapshotPublisher publisher_;
  IncrementalCommunityTracker tracker_;
  /// Built once from config_.station_positions and shared by every
  /// snapshot (stations never move between windows).
  std::shared_ptr<const geo::GridIndex> station_index_;
  /// InvalidArgument when the windows would refuse the config (a
  /// negative window_seconds, or station_count past kMaxWindowStations),
  /// or when config_.station_positions is set but shorter than
  /// station_count or invalid for a station id. Ingest, Snapshot and
  /// DetectCurrent return it before logging anything; Recover runs the
  /// same check before it touches the directory.
  Status config_status_ = Status::OK();
  /// True when the live window changed after the last publish. With one
  /// shard it is updated eagerly per call; with several it absorbs the
  /// shard dirty flags at each barrier.
  bool dirty_ = true;
  bool flushed_ = false;
  /// Written by the ingestion thread, polled by dashboard threads.
  std::atomic<uint64_t> delta_freeze_count_{0};
  std::atomic<uint64_t> full_freeze_count_{0};
  /// The dirty-pair limit every shard window tracks the current epoch
  /// under, set at the last drain (DrainWindowChanges).
  size_t dirty_pair_limit_ = SIZE_MAX;
  /// delta_desync_count() as of the last successful freeze; a newer
  /// desync forces the next freeze down the full path.
  uint64_t desyncs_at_last_freeze_ = 0;
  /// The watermark the *single* reorder buffer would hold: raised by the
  /// same rule ReorderBuffer::Push applies (an arrival raises it iff it
  /// is not late and moves time forward) plus explicit advances. Every
  /// dispatched command carries it so a shard that last saw an event an
  /// hour ago still makes late/release decisions against stream-wide
  /// time, not its own stale clock. With one shard it simply mirrors the
  /// buffer's own watermark.
  int64_t global_reorder_wm_ = INT64_MIN;
  /// True once shard workers run (shard_count > 1, after construction /
  /// recovery). False means every Deliver applies inline — which is how
  /// WAL replay stays deterministic.
  bool started_ = false;

  /// nullptr when durability is disabled.
  std::unique_ptr<WalWriter> wal_;
  /// The background checkpoint commit: set while durability is attached
  /// (a writer is open and the engine has not degraded), nullptr
  /// otherwise. Reads only config_.durability and the captures it is
  /// handed.
  std::unique_ptr<detail::CheckpointCommitter> committer_;
  /// Deferred durability failure (from construction or a poisoned
  /// writer), surfaced on every durable call until resolved.
  Status durability_status_ = Status::OK();
  uint64_t wal_seq_ = 0;
  /// Degrade state (FaultPolicy::degrade_on_exhausted): once true, the
  /// engine serves non-durably and never calls wal_ again. The failure
  /// that degraded it poisoned wal_, so its destructor writes nothing.
  bool degraded_ = false;
  Status degrade_reason_ = Status::OK();
};

}  // namespace bikegraph::stream
