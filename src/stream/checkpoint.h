#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "stream/incremental_community.h"
#include "stream/reorder_buffer.h"
#include "stream/wal.h"
#include "stream/window_graph.h"

namespace bikegraph::stream {

/// \brief A crash-consistent freeze of a StreamEngine: every component's
/// logical state plus the WAL sequence number it covers. Recovery loads
/// the newest valid checkpoint and replays the WAL records with sequence
/// numbers greater than `wal_seq`; the result is bit-identical to the
/// uninterrupted run (locked by tests/stream_durability_test.cc).
struct EngineCheckpoint {
  /// Sequence number of the last WAL record applied to this state
  /// (0 = none: the state predates every record).
  uint64_t wal_seq = 0;

  // Config fingerprint: the fields that shape the serialized state.
  // Recover() refuses a checkpoint whose fingerprint disagrees with the
  // engine config it was handed — restoring a 7-day window's ring into
  // a 1-hour engine would be silent nonsense.
  uint64_t station_count = 0;
  int64_t window_seconds = 0;
  int64_t max_lateness_seconds = 0;
  LateEventPolicy late_policy = LateEventPolicy::kDrop;
  bool suppress_duplicates = false;

  bool flushed = false;
  /// True when the published snapshot was current (nothing dirty) at
  /// checkpoint time: recovery then rebuilds and republishes it at its
  /// original epoch, so readers and the delta-freeze baseline resume
  /// seamlessly. False: recovery leaves the publisher empty and the
  /// next freeze takes the full path.
  bool snapshot_clean = false;
  uint64_t publisher_epoch = 0;
  /// Bounds of the published snapshot's window (meaningful only when
  /// `snapshot_clean`): the publish may predate later no-change
  /// watermark advances, so the rebuilt snapshot must carry the bounds
  /// of the original publish, not of the checkpointed watermark.
  int64_t published_window_start_seconds = 0;
  int64_t published_window_end_seconds = 0;

  uint64_t delta_freeze_count = 0;
  uint64_t full_freeze_count = 0;
  /// The engine's desync watermark (see StreamEngine::Snapshot's
  /// desync-forces-full-freeze rule).
  uint64_t desyncs_published = 0;

  TrackerState tracker;

  /// One shard's vertical: its applied-command counter (the shard's
  /// private sequence space), reorder buffer and window graph.
  struct Shard {
    uint64_t applied = 0;
    ReorderBufferState reorder;
    WindowGraphState window;
  };
  /// Every shard, in shard order; never empty (a single-writer engine has
  /// one). Its size joins the config fingerprint: Recover() refuses a
  /// checkpoint whose shard count differs from the engine's, because
  /// per-shard state cannot be re-partitioned on load.
  std::vector<Shard> shards = std::vector<Shard>(1);
};

/// \brief Serializes a checkpoint to its on-disk payload (no framing),
/// laid out by the one field list in stream/durable_file.h that
/// ParseCheckpoint reads back. Deterministic: two equal states serialize
/// to equal bytes, which is what the recovery lock tests compare.
std::string SerializeCheckpoint(const EngineCheckpoint& checkpoint);

/// \brief Inverse of SerializeCheckpoint. DataLoss on any bytes it would
/// not write: a short or overlong payload, a bool byte other than 0 or 1,
/// a late policy past LateEventPolicy's last enumerator, or a count
/// claiming more elements than the bytes left could encode. So
/// every payload that parses re-serializes to the same bytes, and no
/// count makes a parse allocate more than a few times its input.
[[nodiscard]] Result<EngineCheckpoint> ParseCheckpoint(
    const std::string& bytes);

/// \brief Writes `checkpoint` under `directory` crash-consistently:
/// serialize to `ckpt-<wal_seq>.ckpt.tmp`, fsync, rename over the final
/// name, fsync the directory. A crash at any instant leaves either the
/// previous checkpoint set intact or the new file complete — never a
/// half-written `.ckpt`.
/// All I/O goes through `env` (nullptr = IoEnv::Default()); a failed
/// commit cleans up its `.tmp` and never disturbs the previous
/// checkpoint, so the caller may keep running and retry later.
[[nodiscard]] Status WriteCheckpoint(const std::string& directory,
                                     const EngineCheckpoint& checkpoint,
                                     IoEnv* env = nullptr);

/// \brief What LoadNewestCheckpoint found.
struct CheckpointLoadResult {
  bool found = false;
  EngineCheckpoint checkpoint;
  std::string path;
  /// Newer checkpoint files that failed validation (bad magic, size, or
  /// CRC — e.g. torn by bit rot; rename atomicity prevents torn writes)
  /// and were skipped in favour of an older valid one.
  uint64_t skipped = 0;
};

/// \brief Loads the newest valid checkpoint under `directory`, skipping
/// (and counting) corrupt ones. Stray `.tmp` files from a crash mid-
/// checkpoint are deleted. `found == false` (not an error) when the
/// directory holds no usable checkpoint.
[[nodiscard]] Result<CheckpointLoadResult> LoadNewestCheckpoint(
    const std::string& directory, IoEnv* env = nullptr);

/// \brief Deletes all but the newest `keep` checkpoint files; one already
/// gone (ENOENT) counts as deleted. The WAL is left alone: WalPruneBound
/// gives the bound to prune it through.
[[nodiscard]] Status PruneCheckpoints(const std::string& directory,
                                      size_t keep, IoEnv* env = nullptr);

}  // namespace bikegraph::stream
