#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/io_env.h"
#include "core/result.h"
#include "community/detector.h"
#include "stream/event.h"

namespace bikegraph::stream {

/// \brief CRC32C (Castagnoli, the iSCSI/leveldb polynomial) of `size`
/// bytes, optionally chained via `seed` (pass a previous return value to
/// extend). Portable slice-by-8: eight table reads per eight bytes, with
/// a byte-at-a-time tail, and no hardware intrinsics. The same loop
/// checksums 33-byte WAL event payloads and ~250 KB checkpoints.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

/// \brief What the durable engine does when an I/O call fails. The
/// taxonomy (docs/DURABILITY.md, "Fault model"): EINTR is always retried
/// immediately and for free; EAGAIN/EWOULDBLOCK and ENOSPC are
/// *transient* — retried with capped exponential backoff after, for
/// ENOSPC, one automatic PruneWalSegments self-heal attempt; everything
/// else (and any failed data fsync — after fsyncgate a later success
/// proves nothing about pages the kernel already dropped) is *permanent*.
/// When the budget is exhausted or the error is permanent the engine
/// either poisons (default, the pre-policy behavior) or degrades to
/// loudly-non-durable mode and keeps ingesting.
struct FaultPolicy {
  /// Backed-off retries allowed per failing call. EINTR retries are
  /// unbounded and uncounted. 0 (default) keeps the legacy behavior:
  /// the first transient failure is final.
  uint32_t max_retries = 0;
  /// First backoff sleep; doubles per retry up to `backoff_max_ms`. The
  /// sleep goes through IoEnv::SleepMs, so tests inject a virtual clock
  /// and never block.
  int64_t backoff_initial_ms = 1;
  int64_t backoff_max_ms = 64;
  /// After the retry budget: false = poison the writer and engine
  /// (default); true = degrade — the engine abandons the WAL, writes a
  /// loud on-disk marker (kDegradedMarkerName) so Recover() refuses the
  /// directory with DataLoss, and keeps serving non-durably.
  bool degrade_on_exhausted = false;
};

/// \brief Durability knobs for a StreamEngine: write-ahead logging of
/// every state-changing call plus periodic checkpoints, both under
/// `directory`. Off by default — a disabled engine takes one untaken
/// branch per call and allocates nothing.
///
/// File layout under `directory` (see docs/DURABILITY.md):
///   wal-<seq20>.log    append-only segments; <seq20> is the sequence
///                      number of the segment's first record
///   ckpt-<seq20>.ckpt  checkpoints; <seq20> is the last WAL sequence
///                      number the checkpointed state covers
struct DurabilityConfig {
  /// Master switch. When false every other field is ignored.
  bool enabled = false;
  /// Directory for WAL segments and checkpoints (created if missing).
  /// A fresh engine refuses a directory that already holds durable
  /// state — use StreamEngine::Recover() for those.
  std::string directory;
  /// Rotate to a new segment once the current one reaches this size.
  /// StreamEngine::Checkpoint() also rotates, whatever the size.
  uint64_t segment_bytes = uint64_t{64} << 20;
  /// Group fsync: the log is fsynced after every N appended records
  /// (and always by Checkpoint()/SyncWal()). 0 disables interval syncs
  /// entirely — only explicit sync points make records crash-durable.
  /// Smaller N shrinks the window of arrivals a crash can lose; larger
  /// N amortizes the fsync latency over more events (measured in
  /// docs/DURABILITY.md).
  uint64_t sync_interval_records = 512;
  /// Checkpoints retained after each successful Checkpoint(); older
  /// ones — and the WAL segments only they needed — are pruned. At
  /// least 2 keeps a fallback when the newest file is torn by a crash.
  size_t checkpoints_kept = 2;
  /// Failure handling for the durable I/O (see FaultPolicy).
  FaultPolicy faults;
  /// Syscall seam for all durable I/O. Non-owning; must outlive the
  /// engine (and, for FaultInjectingIoEnv::SimulateCrash, outlive it by
  /// design). nullptr = IoEnv::Default(), the production passthrough.
  IoEnv* io_env = nullptr;
};

/// \brief What one WAL record reproduces. Every state-changing
/// StreamEngine entry point appends exactly one record *before* applying
/// it, so replaying the log in order reproduces the engine bit for bit —
/// including derived state: snapshots and detection mutate the publisher
/// epoch and the tracker seed, so they are logged too (as the intent, a
/// few bytes; replay re-executes them deterministically).
enum class WalRecordType : uint8_t {
  kEvent = 1,     ///< Ingest(event) — logged pre-dedup/pre-late-check so
                  ///< replay reproduces the drop/suppress counters too.
  kAdvance = 2,   ///< Advance(watermark)
  kFlush = 3,     ///< Flush()
  kSnapshot = 4,  ///< Snapshot() that was not a published-epoch no-op.
                  ///< Sharded engines (shard_count > 1) log every
                  ///< Snapshot(): even a would-be reuse runs the freeze
                  ///< barrier, which moves checkpointed shard clocks.
  kDetect = 5,    ///< DetectCurrent(); `default_spec` distinguishes the
                  ///< engine-default spec from an explicit one
};

/// \brief One log record. Only the fields of the active `type` are
/// meaningful, and only they are stored: the payload is the type byte,
/// then the field list PayloadFields (stream/durable_file.h) gives that
/// type, which WalWriter encodes and ReadWal decodes.
struct WalRecord {
  WalRecordType type = WalRecordType::kEvent;
  TripEvent event{};                      // kEvent
  int64_t watermark_seconds = 0;          // kAdvance
  bool default_spec = true;               // kDetect
  community::DetectSpec spec{};           // kDetect, default_spec == false
                                          // (initial_partition not carried
                                          // — DetectCurrent ignores it)
};

/// \brief Append side of the log: length-prefixed, CRC32C-framed records
/// buffered in user space, written through on a 64 KiB high-water mark,
/// and fsynced in groups of `sync_interval_records`. Rotates to a new
/// segment at `segment_bytes` and whenever the owner calls Rotate() (the
/// engine does at every checkpoint). Not thread-safe (the engine
/// serializes).
class WalWriter {
 public:
  /// Opens a writer that will append record `next_seq` first. With an
  /// empty `tail_segment_path` a new segment named for `next_seq` is
  /// created (the fresh-log and post-recovery-rotation cases); otherwise
  /// appends to the given segment, which must currently be exactly
  /// `tail_segment_bytes` long (ReadWal's repaired valid length).
  [[nodiscard]] static Result<std::unique_ptr<WalWriter>> Open(
      const DurabilityConfig& config, uint64_t next_seq,
      const std::string& tail_segment_path = {},
      uint64_t tail_segment_bytes = 0);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one record (sequence number `next_seq()`), writing through
  /// and group-fsyncing per the config. An I/O error poisons the writer:
  /// every later call returns the same error (the log tail is suspect).
  /// A record of a type ReadWal could not decode is refused with
  /// InvalidArgument before any byte of it is buffered: its sequence
  /// number is not spent and the writer is not poisoned.
  [[nodiscard]] Status Append(const WalRecord& record);

  /// Writes the buffer through and fsyncs — after this every appended
  /// record survives a crash. No-op when nothing is pending.
  [[nodiscard]] Status Sync();

  /// Syncs and closes the current segment and starts a new one named for
  /// `next_seq()`, so every record appended so far lies in older
  /// segments. No-op while the current segment holds no record: its
  /// successor would carry the same first sequence number, and name. A
  /// failure poisons the writer like a failed Append.
  [[nodiscard]] Status Rotate();

  /// Sequence number the next Append will get (1-based).
  uint64_t next_seq() const { return next_seq_; }
  /// fsync calls issued (group syncs + explicit Sync).
  uint64_t sync_count() const { return sync_count_; }
  /// Segments created by this writer (rotation observability).
  uint64_t segments_opened() const { return segments_opened_; }
  /// Backed-off retries performed (FaultPolicy::max_retries budget;
  /// free EINTR retries are not counted).
  uint64_t retry_count() const { return retry_count_; }
  /// Calls that failed transiently and then succeeded (each such call
  /// counts once, however many retries it took).
  uint64_t transient_recovered_count() const {
    return transient_recovered_count_;
  }
  /// ENOSPC self-heal attempts: PruneWalSegments runs this writer
  /// triggered before retrying a full-disk failure.
  uint64_t enospc_prune_count() const { return enospc_prune_count_; }

 private:
  explicit WalWriter(const DurabilityConfig& config) : config_(config) {}
  /// Creates segment `first_seq` and makes its name durable; a failure
  /// poisons the writer.
  Status OpenSegment(uint64_t first_seq);
  Status WriteBuffer();
  /// Calls `attempt` until it returns done, under the FaultPolicy: EINTR
  /// (or progress made) is retried at once and for free; the first
  /// ENOSPC after a self-heal prune of the segments Checkpoint() would
  /// prune; other transient errnos after a capped-exponential backoff
  /// sleep on the environment clock, while `max_retries` lasts. Any other
  /// errno, or an exhausted budget, poisons the writer with
  /// IOError "<what> '<path>'".
  template <typename Attempt>
  Status RetryUnderPolicy(const char* what, const std::string& path,
                          Attempt attempt);

  DurabilityConfig config_;
  IoEnv* env_ = nullptr;
  int fd_ = -1;
  std::string buffer_;
  Status poisoned_ = Status::OK();
  uint64_t next_seq_ = 1;
  uint64_t segment_bytes_ = 0;  ///< current segment size incl. buffer
  bool segment_empty_ = true;   ///< no record yet; must not rotate
  uint64_t records_since_sync_ = 0;
  uint64_t sync_count_ = 0;
  uint64_t segments_opened_ = 0;
  uint64_t retry_count_ = 0;
  uint64_t transient_recovered_count_ = 0;
  uint64_t enospc_prune_count_ = 0;
};

/// \brief What ReadWal found in a log directory. The records themselves
/// go to the caller's visitor as they are decoded, so a read holds at
/// most two segments in memory (the one it reads and the tail), never
/// the log.
struct WalReadResult {
  /// Sequence number of the log's last valid record: the tail segment's
  /// first sequence number plus its valid records, minus one. 0 for an
  /// empty log.
  uint64_t last_seq = 0;
  /// Bytes dropped from a torn tail (a crash mid-append or mid-sync
  /// leaves a partial or CRC-failing final frame; everything before it
  /// is kept, everything from it on is discarded).
  uint64_t truncated_bytes = 0;
  /// Segments opened and read. Segments skipped as covered are not
  /// counted: they are never opened.
  uint64_t segment_count = 0;
  /// The last surviving segment (append target for resumption); empty
  /// when the directory holds no segments.
  std::string tail_segment_path;
  /// Valid byte length of that segment (its physical length after a
  /// repair).
  uint64_t tail_segment_bytes = 0;
};

/// \brief Receives each record ReadWal decodes, in sequence order.
using WalVisitor = std::function<void(const WalRecord& record)>;

/// \brief Reads the log under `directory` and hands every valid record
/// numbered above `after_seq` to `visit`, in sequence order.
///
/// `after_seq` is the last sequence number the caller already holds (a
/// checkpoint's `wal_seq`; 0 = none). A segment whose successor starts
/// at or below `after_seq + 1` holds only such records, so it is never
/// opened — neither read nor checked. The first segment read must start
/// at or below `after_seq + 1`; a later start is a hole no replay can
/// bridge and returns DataLoss.
///
/// A torn *tail* (partial frame, bad CRC, a zero-length frame, or a
/// header-less final segment from a crash mid-rotation) is truncated away
/// and counted — with `repair_torn_tail` the file is physically truncated
/// too, making the directory clean for a resumed writer. Corruption
/// anywhere *before* the tail of a segment read, a frame whose CRC
/// matches but whose payload no writer produces (in any segment), or a
/// sequence gap between segments, is unrecoverable and returns DataLoss
/// naming the segment.
[[nodiscard]] Result<WalReadResult> ReadWal(const std::string& directory,
                                            bool repair_torn_tail,
                                            uint64_t after_seq,
                                            const WalVisitor& visit,
                                            IoEnv* env = nullptr);

/// \brief Deletes WAL segments every record of which has sequence number
/// <= `through_seq` (their state is covered by a checkpoint): those whose
/// successor starts at or below `through_seq + 1`, the same rule by which
/// ReadWal skips them. Checkpoint() rotates, so a segment boundary sits
/// right after every checkpoint's `wal_seq`. The last segment is always
/// kept — it is the append target. `pruned` (optional)
/// receives the number of files removed; one already gone (ENOENT)
/// counts, since the ENOSPC self-heal and the checkpoint committer may
/// prune at once. Removal goes through `env` (nullptr = IoEnv::Default())
/// so a simulated full disk gets its bytes credited back.
[[nodiscard]] Status PruneWalSegments(const std::string& directory,
                                      uint64_t through_seq,
                                      uint64_t* pruned = nullptr,
                                      IoEnv* env = nullptr);

/// \brief Deletes every WAL segment under `directory` — recovery's reset
/// when the checkpoint covers every surviving record. Removal goes through
/// `env` (nullptr = IoEnv::Default()); the first failed unlink returns
/// IOError, since a stale segment left beside the next writer's fresh one
/// reads back as a sequence gap.
[[nodiscard]] Status RemoveWalSegments(const std::string& directory,
                                       IoEnv* env = nullptr);

/// \brief The PruneWalSegments bound for `directory`, the one rule both
/// Checkpoint() and the ENOSPC self-heal prune by: the smallest
/// `wal_seq` among the `ckpt-*.ckpt` files once at least
/// `checkpoints_kept` (min 1) of them exist, and 0 (prune nothing)
/// before — until then the log from its first record stands in for the
/// fallback checkpoints not yet written. Segments at or below the bound
/// are re-derivable from every checkpoint on disk.
[[nodiscard]] uint64_t WalPruneBound(const std::string& directory,
                                     size_t checkpoints_kept);

/// \brief True when `directory` holds WAL segments or checkpoints — the
/// fresh-engine constructor refuses such a directory so a misconfigured
/// restart cannot silently shadow recoverable state. A degraded marker
/// (kDegradedMarkerName) counts as durable state too.
[[nodiscard]] bool DirectoryHasDurableState(const std::string& directory);

/// \brief Marker file a degrading engine leaves behind
/// (FaultPolicy::degrade_on_exhausted): its presence means ops were
/// applied after logging stopped, so the directory can no longer
/// reproduce the run — Recover() refuses it with a loud DataLoss.
/// Deleting the marker is the operator's explicit "accept the loss,
/// recover the logged prefix".
inline constexpr char kDegradedMarkerName[] = "wal.degraded";

/// \brief Best-effort durable write of the degraded marker (content:
/// `reason`). All errors ignored — this runs while the disk is already
/// failing; losing the marker can only make recovery *succeed* on the
/// logged prefix, never silently diverge from it.
void WriteDegradedMarker(const DurabilityConfig& config,
                         const Status& reason);

/// \brief True when `directory` holds the degraded marker.
[[nodiscard]] bool HasDegradedMarker(const std::string& directory);

}  // namespace bikegraph::stream
