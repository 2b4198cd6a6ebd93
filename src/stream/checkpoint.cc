#include "stream/checkpoint.h"

#include <fcntl.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "stream/durable_file.h"

namespace bikegraph::stream {

namespace {

namespace fs = std::filesystem;

using internal::FsyncDirectory;
using internal::IOError;
using internal::kCheckpointFile;
using internal::kCheckpointTempFile;
using internal::OpenRetryingEintr;
using internal::ReadWholeFile;
using internal::ResolveEnv;
using internal::WriteAllRetryingEintr;

constexpr char kCheckpointMagic[8] = {'B', 'G', 'C', 'K', 'P', 'T', '1', '\n'};
/// File layout: magic(8) + u64 payload size + u32 CRC32C(payload) +
/// payload.
constexpr size_t kFileHeaderBytes = 20;

void PutEvent(std::string* out, const TripEvent& event) {
  wire::PutI64(out, event.rental_id);
  wire::PutI32(out, event.from_station);
  wire::PutI32(out, event.to_station);
  wire::PutI64(out, event.start_time.seconds_since_epoch());
  wire::PutI64(out, event.end_time.seconds_since_epoch());
}

TripEvent GetEvent(wire::Cursor* in) {
  TripEvent event;
  event.rental_id = in->I64();
  event.from_station = in->I32();
  event.to_station = in->I32();
  event.start_time = CivilTime(in->I64());
  event.end_time = CivilTime(in->I64());
  return event;
}

// The reorder/window codecs are shared between shard 0 (the legacy
// field positions in the payload) and the appended extra-shard blocks,
// so the two can never drift apart.

void PutReorderState(std::string* out, const ReorderBufferState& r) {
  wire::PutI64(out, r.watermark_seconds);
  wire::PutU8(out, r.flushed ? 1 : 0);
  wire::PutU64(out, r.reordered_count);
  wire::PutU64(out, r.late_dropped_count);
  wire::PutU64(out, r.duplicate_count);
  wire::PutU64(out, r.released_count);
  wire::PutU64(out, r.duplicate_ids_high_water);
  wire::PutU64(out, r.duplicate_ids_evicted);
  wire::PutU64(out, r.buffered.size());
  for (const TripEvent& event : r.buffered) PutEvent(out, event);
  wire::PutU64(out, r.seen.size());
  for (const auto& [start, id] : r.seen) {
    wire::PutI64(out, start);
    wire::PutI64(out, id);
  }
}

/// False on a corrupt payload (a count field claiming more entries than
/// bytes remain — the anti-terabyte fuse).
bool GetReorderState(wire::Cursor* in, ReorderBufferState* r) {
  const auto bounded = [in](uint64_t count) {
    return in->ok && count <= in->remaining;
  };
  r->watermark_seconds = in->I64();
  r->flushed = in->U8() != 0;
  r->reordered_count = in->U64();
  r->late_dropped_count = in->U64();
  r->duplicate_count = in->U64();
  r->released_count = in->U64();
  r->duplicate_ids_high_water = in->U64();
  r->duplicate_ids_evicted = in->U64();
  uint64_t count = in->U64();
  if (!bounded(count)) return false;
  r->buffered.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    r->buffered.push_back(GetEvent(in));
  }
  count = in->U64();
  if (!bounded(count)) return false;
  r->seen.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t start = in->I64();
    const int64_t id = in->I64();
    r->seen.emplace_back(start, id);
  }
  return in->ok;
}

void PutWindowState(std::string* out, const WindowGraphState& w) {
  wire::PutI64(out, w.watermark_seconds);
  wire::PutI64(out, w.last_event_seconds);
  wire::PutU64(out, w.ingested_count);
  wire::PutU64(out, w.delta_desync_count);
  wire::PutU64(out, w.live_count);
  wire::PutU64(out, w.ring.size());
  for (const auto& e : w.ring) {
    wire::PutI64(out, e.start_seconds);
    wire::PutI32(out, e.from);
    wire::PutI32(out, e.to);
  }
  wire::PutU64(out, w.pairs.size());
  for (const auto& [key, trips] : w.pairs) {
    wire::PutU64(out, key);
    wire::PutI64(out, trips);
  }
  wire::PutU64(out, w.day.size());
  for (const auto& day : w.day) {
    for (int64_t v : day) wire::PutI64(out, v);
  }
  wire::PutU64(out, w.hour.size());
  for (const auto& hour : w.hour) {
    for (int64_t v : hour) wire::PutI64(out, v);
  }
  wire::PutU64(out, w.endpoint_count.size());
  for (int64_t v : w.endpoint_count) wire::PutI64(out, v);
}

bool GetWindowState(wire::Cursor* in, WindowGraphState* w) {
  const auto bounded = [in](uint64_t count) {
    return in->ok && count <= in->remaining;
  };
  w->watermark_seconds = in->I64();
  w->last_event_seconds = in->I64();
  w->ingested_count = in->U64();
  w->delta_desync_count = in->U64();
  w->live_count = in->U64();
  uint64_t count = in->U64();
  if (!bounded(count)) return false;
  w->ring.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    WindowGraphState::RingEvent e;
    e.start_seconds = in->I64();
    e.from = in->I32();
    e.to = in->I32();
    w->ring.push_back(e);
  }
  count = in->U64();
  if (!bounded(count)) return false;
  w->pairs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t key = in->U64();
    const int64_t trips = in->I64();
    w->pairs.emplace_back(key, trips);
  }
  count = in->U64();
  if (!bounded(count)) return false;
  w->day.resize(count);
  for (auto& day : w->day) {
    for (int64_t& v : day) v = in->I64();
  }
  count = in->U64();
  if (!bounded(count)) return false;
  w->hour.resize(count);
  for (auto& hour : w->hour) {
    for (int64_t& v : hour) v = in->I64();
  }
  count = in->U64();
  if (!bounded(count)) return false;
  w->endpoint_count.resize(count);
  for (int64_t& v : w->endpoint_count) v = in->I64();
  return in->ok;
}

}  // namespace

std::string SerializeCheckpoint(const EngineCheckpoint& c) {
  std::string out;
  wire::PutU64(&out, c.wal_seq);
  wire::PutU64(&out, c.station_count);
  wire::PutI64(&out, c.window_seconds);
  wire::PutI64(&out, c.max_lateness_seconds);
  wire::PutU8(&out, c.late_policy);
  wire::PutU8(&out, c.suppress_duplicates);
  wire::PutU8(&out, c.flushed);
  wire::PutU8(&out, c.snapshot_clean);
  wire::PutU64(&out, c.publisher_epoch);
  wire::PutI64(&out, c.published_window_start_seconds);
  wire::PutI64(&out, c.published_window_end_seconds);
  wire::PutU64(&out, c.delta_freeze_count);
  wire::PutU64(&out, c.full_freeze_count);
  wire::PutU64(&out, c.desyncs_published);

  // Shard 0's reorder buffer and window graph (legacy field positions).
  PutReorderState(&out, c.reorder);
  PutWindowState(&out, c.window);

  // Tracker.
  wire::PutU64(&out, c.tracker.refresh_count);
  wire::PutU64(&out, c.tracker.escalation_count);
  wire::PutDouble(&out, c.tracker.previous_modularity);
  wire::PutU8(&out, c.tracker.previous_partition.has_value() ? 1 : 0);
  if (c.tracker.previous_partition.has_value()) {
    const auto& assignment = c.tracker.previous_partition->assignment;
    wire::PutU64(&out, assignment.size());
    for (int32_t label : assignment) wire::PutI32(&out, label);
  }

  // Sharding extension: appended after every legacy block, so the
  // single-shard payload is a strict prefix extension (shard_count=1,
  // one seq, no extra component blocks).
  wire::PutU64(&out, c.shard_count);
  for (uint64_t i = 0; i < c.shard_count; ++i) {
    wire::PutU64(&out, i < c.shard_seqs.size() ? c.shard_seqs[i] : 0);
  }
  for (uint64_t i = 1; i < c.shard_count; ++i) {
    static const EngineCheckpoint::ShardComponents kEmpty;
    const auto& shard =
        i - 1 < c.extra_shards.size() ? c.extra_shards[i - 1] : kEmpty;
    PutReorderState(&out, shard.reorder);
    PutWindowState(&out, shard.window);
  }
  return out;
}

Result<EngineCheckpoint> ParseCheckpoint(const std::string& bytes) {
  // A fuse against a corrupt count field asking for terabytes: no vector
  // may claim more entries than bytes remaining.
  wire::Cursor in(bytes.data(), bytes.size());
  const auto bounded = [&in](uint64_t count) {
    return in.ok && count <= in.remaining;
  };
  EngineCheckpoint c;
  c.wal_seq = in.U64();
  c.station_count = in.U64();
  c.window_seconds = in.I64();
  c.max_lateness_seconds = in.I64();
  c.late_policy = in.U8();
  c.suppress_duplicates = in.U8();
  c.flushed = in.U8();
  c.snapshot_clean = in.U8();
  c.publisher_epoch = in.U64();
  c.published_window_start_seconds = in.I64();
  c.published_window_end_seconds = in.I64();
  c.delta_freeze_count = in.U64();
  c.full_freeze_count = in.U64();
  c.desyncs_published = in.U64();

  if (!GetReorderState(&in, &c.reorder) || !GetWindowState(&in, &c.window)) {
    return Status::DataLoss("corrupt checkpoint payload");
  }

  c.tracker.refresh_count = in.U64();
  c.tracker.escalation_count = in.U64();
  c.tracker.previous_modularity = in.Double();
  if (in.U8() != 0) {
    uint64_t count = in.U64();
    if (!bounded(count)) return Status::DataLoss("corrupt checkpoint payload");
    community::Partition partition;
    partition.assignment.resize(count);
    for (int32_t& label : partition.assignment) label = in.I32();
    c.tracker.previous_partition = std::move(partition);
  }

  // Sharding extension.
  c.shard_count = in.U64();
  if (c.shard_count == 0 || !bounded(c.shard_count)) {
    return Status::DataLoss("corrupt checkpoint payload");
  }
  c.shard_seqs.resize(c.shard_count);
  for (uint64_t& seq : c.shard_seqs) seq = in.U64();
  c.extra_shards.resize(c.shard_count - 1);
  for (auto& shard : c.extra_shards) {
    if (!GetReorderState(&in, &shard.reorder) ||
        !GetWindowState(&in, &shard.window)) {
      return Status::DataLoss("corrupt checkpoint payload");
    }
  }
  if (!in.ok || in.remaining != 0) {
    return Status::DataLoss("corrupt checkpoint payload");
  }
  return c;
}

Status WriteCheckpoint(const std::string& directory,
                       const EngineCheckpoint& checkpoint, IoEnv* env) {
  env = ResolveEnv(env);
  const std::string payload = SerializeCheckpoint(checkpoint);
  std::string file(kCheckpointMagic, sizeof(kCheckpointMagic));
  wire::PutU64(&file, payload.size());
  wire::PutU32(&file, Crc32c(payload.data(), payload.size()));
  file.append(payload);

  const std::string final_path =
      (fs::path(directory) / kCheckpointFile.Format(checkpoint.wal_seq))
          .string();
  const std::string tmp_path =
      (fs::path(directory) / kCheckpointTempFile.Format(checkpoint.wal_seq))
          .string();
  // A failed commit must leave the directory as it found it: every error
  // path below removes the temp (best-effort) so the previous checkpoint
  // set — still intact, never touched until the atomic rename — remains
  // the newest loadable state and the engine can simply retry later.
  const int fd =
      OpenRetryingEintr(env, tmp_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IOError("create checkpoint", tmp_path);
  if (!WriteAllRetryingEintr(env, fd, file.data(), file.size())) {
    const Status failed = IOError("write checkpoint", tmp_path);
    env->Close(fd);
    (void)env->Unlink(tmp_path.c_str());
    return failed;
  }
  if (env->Fsync(fd) != 0) {
    const Status failed = IOError("fsync checkpoint", tmp_path);
    env->Close(fd);
    (void)env->Unlink(tmp_path.c_str());
    return failed;
  }
  env->Close(fd);
  if (env->Rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const Status failed = IOError("rename checkpoint into place", final_path);
    (void)env->Unlink(tmp_path.c_str());
    return failed;
  }
  // Past the rename the new name may or may not survive a crash until
  // the directory is fsynced; if this fails, LoadNewestCheckpoint falls
  // back to the previous checkpoint (or sweeps a reverted .tmp).
  return FsyncDirectory(env, directory);
}

Result<CheckpointLoadResult> LoadNewestCheckpoint(
    const std::string& directory, IoEnv* env) {
  env = ResolveEnv(env);
  CheckpointLoadResult result;
  std::error_code ec;
  if (!fs::exists(directory, ec)) return result;
  std::vector<std::pair<uint64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (kCheckpointFile.Parse(name, &seq)) {
      candidates.emplace_back(seq, entry.path().string());
    } else if (kCheckpointTempFile.Parse(name, &seq)) {
      // A crash mid-checkpoint: the half-written temp never became a
      // .ckpt, so it carries no state anyone committed to. Clean it up
      // (best-effort — a stray temp is harmless, just litter).
      (void)env->Unlink(entry.path().string().c_str());
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());
  std::string bytes;
  for (const auto& [seq, path] : candidates) {
    BIKEGRAPH_ASSIGN_OR_RETURN(bytes, ReadWholeFile(env, path, "checkpoint"));
    bool valid = bytes.size() >= kFileHeaderBytes &&
                 std::memcmp(bytes.data(), kCheckpointMagic,
                             sizeof(kCheckpointMagic)) == 0;
    if (valid) {
      wire::Cursor header(bytes.data() + 8, kFileHeaderBytes - 8);
      const uint64_t payload_size = header.U64();
      const uint32_t crc = header.U32();
      valid = payload_size == bytes.size() - kFileHeaderBytes &&
              Crc32c(bytes.data() + kFileHeaderBytes, payload_size) == crc;
    }
    if (valid) {
      auto parsed =
          ParseCheckpoint(bytes.substr(kFileHeaderBytes));
      if (parsed.ok() && parsed->wal_seq == seq) {
        result.found = true;
        result.checkpoint = std::move(*parsed);
        result.path = path;
        return result;
      }
    }
    ++result.skipped;
  }
  return result;
}

Status PruneCheckpoints(const std::string& directory, size_t keep,
                        IoEnv* env) {
  env = ResolveEnv(env);
  if (keep == 0) keep = 1;  // never delete the checkpoint just written
  std::vector<std::pair<uint64_t, std::string>> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    uint64_t seq = 0;
    if (kCheckpointFile.Parse(entry.path().filename().string(), &seq)) {
      candidates.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  const size_t drop =
      candidates.size() > keep ? candidates.size() - keep : 0;
  for (size_t i = 0; i < drop; ++i) {
    // Gone already counts as pruned, as for the WAL's segments.
    if (env->Unlink(candidates[i].second.c_str()) != 0 && errno != ENOENT) {
      return IOError("remove checkpoint", candidates[i].second);
    }
  }
  return Status::OK();
}

}  // namespace bikegraph::stream
