#include "stream/checkpoint.h"

#include <fcntl.h>

#include <algorithm>
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

}  // namespace

std::string SerializeCheckpoint(const EngineCheckpoint& checkpoint) {
  std::string out;
  internal::Writer writer(&out);
  internal::CheckpointFields(writer, checkpoint);
  return out;
}

Result<EngineCheckpoint> ParseCheckpoint(const std::string& bytes) {
  EngineCheckpoint checkpoint;
  internal::Reader reader(bytes.data(), bytes.size());
  internal::CheckpointFields(reader, checkpoint);
  if (!reader.done()) return Status::DataLoss("corrupt checkpoint payload");
  return checkpoint;
}

Status WriteCheckpoint(const std::string& directory,
                       const EngineCheckpoint& checkpoint, IoEnv* env) {
  env = ResolveEnv(env);
  const std::string payload = SerializeCheckpoint(checkpoint);
  std::string file(kCheckpointMagic, sizeof(kCheckpointMagic));
  internal::Writer header(&file);
  header.U64(payload.size());
  header.U32(Crc32c(payload.data(), payload.size()));
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
      internal::Reader header(bytes.data() + 8, kFileHeaderBytes - 8);
      uint64_t payload_size = 0;
      uint32_t crc = 0;
      header.U64(payload_size);
      header.U32(crc);
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
