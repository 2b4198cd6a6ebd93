#include "stream/wal.h"

#include <fcntl.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "stream/durable_file.h"

namespace bikegraph::stream {

namespace {

namespace fs = std::filesystem;

using internal::FsyncDirectory;
using internal::IOError;
using internal::kCheckpointFile;
using internal::kSegmentFile;
using internal::OpenRetryingEintr;
using internal::ReadWholeFile;
using internal::ResolveEnv;
using internal::WriteAllRetryingEintr;

/// Frame header: u32 payload length + u32 CRC32C(payload).
constexpr size_t kFrameHeaderBytes = 8;
/// Segment header: 8-byte magic + u64 first_seq + u32 CRC of the 16
/// preceding bytes.
constexpr char kSegmentMagic[8] = {'B', 'G', 'W', 'A', 'L', '1', '\n', '\0'};
constexpr size_t kSegmentHeaderBytes = 20;
/// Engine records are tens of bytes; an explicit-spec detect record tops
/// out well under 1 KiB. Anything claiming more is framing garbage.
constexpr uint32_t kMaxPayloadBytes = 1u << 16;
/// User-space write-through threshold.
constexpr size_t kWriteBufferBytes = 64u << 10;

/// Little-endian u32 store into bytes already in place (a frame header
/// patched after its payload was encoded behind it).
void StoreU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// What a RetryUnderPolicy attempt returns, other than an errno: done,
/// or progress made and another call needed (after a short write).
constexpr int kDone = -1;
constexpr int kProgress = -2;

/// EAGAIN/EWOULDBLOCK and ENOSPC earn backed-off retries (FaultPolicy);
/// EINTR is handled separately (free), everything else is permanent.
bool IsTransientErrno(int err) {
  if (err == EAGAIN || err == ENOSPC) return true;
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
  if (err == EWOULDBLOCK) return true;
#endif
  return false;
}

std::string EncodeSegmentHeader(uint64_t first_seq) {
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  internal::Writer fields(&header);
  fields.U64(first_seq);
  fields.U32(Crc32c(header.data(), header.size()));
  return header;
}

/// Returns false (without touching `first_seq`) for a missing/corrupt
/// header.
bool DecodeSegmentHeader(const std::string& bytes, uint64_t* first_seq) {
  if (bytes.size() < kSegmentHeaderBytes) return false;
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return false;
  }
  internal::Reader in(bytes.data() + 8, kSegmentHeaderBytes - 8);
  uint64_t seq = 0;
  uint32_t crc = 0;
  in.U64(seq);
  in.U32(crc);
  if (crc != Crc32c(bytes.data(), 16)) return false;
  *first_seq = seq;
  return true;
}

/// Sorted (by first_seq) list of the WAL segments under `directory`.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& directory) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    uint64_t first_seq = 0;
    if (kSegmentFile.Parse(entry.path().filename().string(), &first_seq)) {
      segments.emplace_back(first_seq, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  // tables[k][b] is the CRC register after byte b followed by k zero
  // bytes, so eight table reads fold eight input bytes at once. Built
  // once, on first use (thread-safe under C++11 statics).
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[0][i] = crc;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  const auto load_le32 = [](const unsigned char* b) {
    return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 |
           static_cast<uint32_t>(b[3]) << 24;
  };
  uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = crc ^ load_le32(p);
    const uint32_t hi = load_le32(p + 4);
    crc = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
          tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
          tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = tables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const DurabilityConfig& config, uint64_t next_seq,
    const std::string& tail_segment_path, uint64_t tail_segment_bytes) {
  if (config.directory.empty()) {
    return Status::InvalidArgument("DurabilityConfig.directory is empty");
  }
  if (next_seq == 0) {
    return Status::InvalidArgument("WAL sequence numbers are 1-based");
  }
  auto writer = std::unique_ptr<WalWriter>(new WalWriter(config));
  writer->env_ = ResolveEnv(config.io_env);
  writer->next_seq_ = next_seq;
  if (tail_segment_path.empty()) {
    BIKEGRAPH_RETURN_NOT_OK(writer->OpenSegment(next_seq));
  } else {
    writer->fd_ = OpenRetryingEintr(writer->env_, tail_segment_path,
                                    O_WRONLY | O_APPEND);
    if (writer->fd_ < 0) return IOError("open WAL segment", tail_segment_path);
    writer->segment_bytes_ = tail_segment_bytes;
    writer->segment_empty_ = tail_segment_bytes <= kSegmentHeaderBytes;
  }
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    // Best-effort flush of buffered records; a process exiting cleanly
    // should not lose its own unsynced tail. Errors are unreportable
    // here — recovery's torn-tail handling covers the loss. (WriteBuffer
    // is a no-op on a poisoned writer: its buffered tail is suspect.)
    (void)WriteBuffer();
    env_->Close(fd_);
  }
}

template <typename Attempt>
Status WalWriter::RetryUnderPolicy(const char* what, const std::string& path,
                                   Attempt attempt) {
  uint32_t delayed_left = config_.faults.max_retries;
  int64_t backoff_ms =
      std::max<int64_t>(config_.faults.backoff_initial_ms, 1);
  bool had_transient = false;
  bool self_healed = false;
  for (;;) {
    const int err = attempt();
    if (err == kDone) break;
    if (err == kProgress) continue;
    if (err == EINTR) {
      had_transient = true;
      continue;
    }
    if (err == ENOSPC && !self_healed) {
      // Prune what Checkpoint() would, then one free retry. Errors are
      // deliberately swallowed: the retry reports the truth either way,
      // and a prune that freed nothing just means it fails too.
      self_healed = true;
      had_transient = true;
      ++enospc_prune_count_;
      uint64_t pruned = 0;
      (void)PruneWalSegments(
          config_.directory,
          WalPruneBound(config_.directory, config_.checkpoints_kept),
          &pruned, env_);
      continue;
    }
    if (IsTransientErrno(err) && delayed_left > 0) {
      --delayed_left;
      ++retry_count_;
      had_transient = true;
      env_->SleepMs(backoff_ms);
      backoff_ms = std::min<int64_t>(
          backoff_ms * 2, std::max<int64_t>(config_.faults.backoff_max_ms, 1));
      continue;
    }
    errno = err;
    poisoned_ = IOError(what, path);
    return poisoned_;
  }
  if (had_transient) ++transient_recovered_count_;
  return Status::OK();
}

Status WalWriter::OpenSegment(uint64_t first_seq) {
  const std::string path =
      (fs::path(config_.directory) / kSegmentFile.Format(first_seq)).string();
  BIKEGRAPH_RETURN_NOT_OK(RetryUnderPolicy("create segment", path, [&] {
    fd_ = env_->Open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    return fd_ >= 0 ? kDone : errno;
  }));
  // Appended, not assigned: the buffer keeps the capacity it grew to, so
  // a rotation costs no regrowth.
  buffer_.clear();
  buffer_ += EncodeSegmentHeader(first_seq);
  segment_bytes_ = buffer_.size();
  segment_empty_ = true;
  ++segments_opened_;
  BIKEGRAPH_RETURN_NOT_OK(WriteBuffer());
  // The new name must itself survive a crash before any record in it is
  // considered durable; until it does, the log tail is suspect.
  const Status named = FsyncDirectory(env_, config_.directory);
  if (!named.ok()) poisoned_ = named;
  return named;
}

Status WalWriter::WriteBuffer() {
  if (!poisoned_.ok()) return poisoned_;  // no Status copy on the hot path
  if (buffer_.empty()) return Status::OK();
  const char* p = buffer_.data();
  size_t left = buffer_.size();
  BIKEGRAPH_RETURN_NOT_OK(
      RetryUnderPolicy("write WAL segment", config_.directory, [&] {
        const int64_t n = env_->Write(fd_, p, left);
        if (n > 0) {
          p += n;  // short writes are legal; keep going
          left -= static_cast<size_t>(n);
          return left == 0 ? kDone : kProgress;
        }
        // write() returning 0 for a nonzero count is a zero-progress
        // oddity; treat it like EAGAIN so it gets the bounded-retry path,
        // not a spin.
        return n < 0 ? errno : EAGAIN;
      }));
  buffer_.clear();
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  if (!poisoned_.ok()) return poisoned_;  // no Status copy on the hot path
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  // Rotate *before* the record so a segment's name (its first record's
  // sequence number) stays truthful. A segment under the size limit
  // holding one oversized record is fine.
  if (segment_bytes_ >= config_.segment_bytes) {
    BIKEGRAPH_RETURN_NOT_OK(Rotate());
  }
  // Encode straight into the write buffer behind a reserved frame
  // header, then patch the header in place: no per-record allocation.
  const size_t frame = buffer_.size();
  buffer_.append(kFrameHeaderBytes, '\0');
  internal::Writer payload(&buffer_);
  internal::PayloadFields(payload, record);
  if (!payload.ok()) {
    buffer_.resize(frame);
    return Status::InvalidArgument(
        "WAL record type " +
        std::to_string(static_cast<unsigned>(record.type)) +
        " has no encoding");
  }
  const size_t payload_bytes = buffer_.size() - frame - kFrameHeaderBytes;
  char* header = buffer_.data() + frame;
  StoreU32(header, static_cast<uint32_t>(payload_bytes));
  StoreU32(header + 4, Crc32c(header + kFrameHeaderBytes, payload_bytes));
  segment_bytes_ += kFrameHeaderBytes + payload_bytes;
  segment_empty_ = false;
  ++next_seq_;
  ++records_since_sync_;
  if (buffer_.size() >= kWriteBufferBytes) {
    BIKEGRAPH_RETURN_NOT_OK(WriteBuffer());
  }
  if (config_.sync_interval_records > 0 &&
      records_since_sync_ >= config_.sync_interval_records) {
    return Sync();
  }
  return Status::OK();
}

Status WalWriter::Rotate() {
  if (!poisoned_.ok()) return poisoned_;
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (segment_empty_) return Status::OK();
  BIKEGRAPH_RETURN_NOT_OK(Sync());
  env_->Close(fd_);
  fd_ = -1;
  return OpenSegment(next_seq_);
}

Status WalWriter::Sync() {
  if (!poisoned_.ok()) return poisoned_;  // no Status copy on the hot path
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  BIKEGRAPH_RETURN_NOT_OK(WriteBuffer());
  if (records_since_sync_ == 0) return Status::OK();
  bool had_transient = false;
  while (env_->Fsync(fd_) != 0) {
    if (errno == EINTR) {
      had_transient = true;
      continue;
    }
    // Any other failed fsync is permanent, whatever the FaultPolicy: the
    // kernel may already have dropped the dirty pages, so retrying until
    // an fsync "succeeds" would certify bytes that never reached the
    // disk (the fsyncgate lesson).
    poisoned_ = IOError("fsync WAL segment", config_.directory);
    return poisoned_;
  }
  if (had_transient) ++transient_recovered_count_;
  records_since_sync_ = 0;
  ++sync_count_;
  return Status::OK();
}

Result<WalReadResult> ReadWal(const std::string& directory,
                              bool repair_torn_tail, uint64_t after_seq,
                              const WalVisitor& visit, IoEnv* env) {
  env = ResolveEnv(env);
  WalReadResult result;
  std::error_code ec;
  if (!fs::exists(directory, ec)) return result;  // empty log
  auto segments = ListSegments(directory);

  // A crash during rotation can leave a final segment whose header never
  // hit the disk; it holds no valid record, so drop it and resume on the
  // previous segment. The surviving tail's bytes are kept for the pass
  // below, so no segment is read twice.
  std::string tail_bytes;
  while (!segments.empty()) {
    const std::string& path = segments.back().second;
    BIKEGRAPH_ASSIGN_OR_RETURN(tail_bytes,
                               ReadWholeFile(env, path, "WAL segment"));
    uint64_t header_seq = 0;
    if (DecodeSegmentHeader(tail_bytes, &header_seq)) break;
    result.truncated_bytes += tail_bytes.size();
    if (repair_torn_tail) {
      if (env->Unlink(path.c_str()) != 0) {
        return IOError("remove header-torn WAL segment", path);
      }
    }
    segments.pop_back();
  }

  // Segment i holds sequence numbers [first_i, first_{i+1}); once its
  // successor starts at or below after_seq + 1 the caller already holds
  // all of them, so it is never opened.
  size_t first = 0;
  while (first + 1 < segments.size() &&
         segments[first + 1].first <= after_seq + 1) {
    ++first;
  }
  if (first < segments.size() && segments[first].first > after_seq + 1) {
    return Status::DataLoss(
        "WAL segment '" + segments[first].second + "' starts at seq " +
        std::to_string(segments[first].first) + " but the log must continue "
        "from seq " + std::to_string(after_seq + 1) +
        " — the records between are missing");
  }

  uint64_t expected_seq = 0;  // 0 = not yet anchored
  for (size_t i = first; i < segments.size(); ++i) {
    const bool is_tail = i + 1 == segments.size();
    const std::string& path = segments[i].second;
    std::string bytes;
    if (is_tail) {
      bytes = std::move(tail_bytes);
    } else {
      BIKEGRAPH_ASSIGN_OR_RETURN(bytes,
                                 ReadWholeFile(env, path, "WAL segment"));
    }
    uint64_t header_seq = 0;
    if (!DecodeSegmentHeader(bytes, &header_seq)) {
      // Only the tail may be header-torn, and those were peeled off
      // above.
      return Status::DataLoss("WAL segment '" + path +
                              "' has a corrupt header");
    }
    if (header_seq != segments[i].first) {
      return Status::DataLoss("WAL segment '" + path +
                              "' header seq does not match its filename");
    }
    if (expected_seq != 0 && header_seq != expected_seq) {
      return Status::DataLoss(
          "WAL segment '" + path + "' starts at seq " +
          std::to_string(header_seq) + " but seq " +
          std::to_string(expected_seq) +
          " was expected — a segment is missing or was truncated");
    }

    size_t valid_end = kSegmentHeaderBytes;
    size_t offset = kSegmentHeaderBytes;
    uint64_t seq = header_seq;
    for (;;) {
      valid_end = offset;
      if (offset == bytes.size()) break;
      bool valid = bytes.size() - offset >= kFrameHeaderBytes;
      uint32_t len = 0;
      uint32_t crc = 0;
      WalRecord record;
      if (valid) {
        internal::Reader frame(bytes.data() + offset, kFrameHeaderBytes);
        frame.U32(len);
        frame.U32(crc);
        valid = len <= kMaxPayloadBytes &&
                bytes.size() - offset - kFrameHeaderBytes >= len;
      }
      if (valid) {
        // A zero-length frame counts as torn: the writer never writes an
        // empty payload, and a tail a crash left zero-filled reads as
        // length 0 with CRC 0, the CRC32C of no bytes.
        const char* payload = bytes.data() + offset + kFrameHeaderBytes;
        valid = len > 0 && Crc32c(payload, len) == crc;
        if (valid) {
          // A payload the field list refuses (an unknown type, a short or
          // overlong body, a byte the writer never writes) behind a
          // matching CRC is no torn write, in any segment.
          internal::Reader fields(payload, len);
          internal::PayloadFields(fields, record);
          if (!fields.done()) {
            return Status::DataLoss(
                "WAL segment '" + path + "' holds a record at offset " +
                std::to_string(offset) +
                " whose CRC matches but whose payload no writer produces");
          }
        }
      }
      if (!valid) {
        if (!is_tail) {
          return Status::DataLoss(
              "WAL segment '" + path + "' is corrupt at offset " +
              std::to_string(offset) +
              " but is not the tail segment — the records after it "
              "cannot be trusted");
        }
        // Torn tail: keep the valid prefix, discard the rest.
        result.truncated_bytes += bytes.size() - offset;
        if (repair_torn_tail) {
          const int fd = OpenRetryingEintr(env, path, O_WRONLY);
          if (fd < 0) return IOError("open for repair", path);
          const int rc = env->Truncate(fd, static_cast<int64_t>(offset));
          const int sc = rc == 0 ? env->Fsync(fd) : 0;
          env->Close(fd);
          if (rc != 0 || sc != 0) return IOError("truncate torn tail", path);
        }
        break;
      }
      if (seq > after_seq) visit(record);
      ++seq;
      offset += kFrameHeaderBytes + len;
    }
    expected_seq = seq;
    ++result.segment_count;
    result.tail_segment_path = path;
    // The loop above stopped either at EOF or at the torn point; either
    // way `valid_end` is the segment's valid byte length.
    result.tail_segment_bytes = static_cast<uint64_t>(valid_end);
  }
  result.last_seq = expected_seq == 0 ? 0 : expected_seq - 1;
  return result;
}

Status PruneWalSegments(const std::string& directory, uint64_t through_seq,
                        uint64_t* pruned, IoEnv* env) {
  env = ResolveEnv(env);
  if (pruned != nullptr) *pruned = 0;
  auto segments = ListSegments(directory);
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i holds seqs [first_i, first_{i+1}); removable when they
    // are all covered.
    if (segments[i + 1].first <= through_seq + 1) {
      // Gone already counts as pruned: the writer's ENOSPC self-heal and
      // the checkpoint committer may prune the same segment at once.
      if (env->Unlink(segments[i].second.c_str()) != 0 && errno != ENOENT) {
        return IOError("remove WAL segment", segments[i].second);
      }
      if (pruned != nullptr) ++(*pruned);
    }
  }
  return Status::OK();
}

Status RemoveWalSegments(const std::string& directory, IoEnv* env) {
  env = ResolveEnv(env);
  for (const auto& segment : ListSegments(directory)) {
    if (env->Unlink(segment.second.c_str()) != 0) {
      return IOError("remove WAL segment", segment.second);
    }
  }
  return Status::OK();
}

uint64_t WalPruneBound(const std::string& directory,
                       size_t checkpoints_kept) {
  uint64_t oldest = 0;
  size_t count = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    uint64_t seq = 0;
    if (kCheckpointFile.Parse(entry.path().filename().string(), &seq)) {
      if (count == 0 || seq < oldest) oldest = seq;
      ++count;
    }
  }
  return count >= std::max<size_t>(checkpoints_kept, 1) ? oldest : 0;
}

bool DirectoryHasDurableState(const std::string& directory) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (kSegmentFile.Parse(name, &seq)) return true;
    if (kCheckpointFile.Parse(name, &seq)) return true;
    if (name == kDegradedMarkerName) return true;
  }
  return false;
}

void WriteDegradedMarker(const DurabilityConfig& config,
                         const Status& reason) {
  IoEnv* env = ResolveEnv(config.io_env);
  const std::string path =
      (fs::path(config.directory) / kDegradedMarkerName).string();
  const int fd =
      OpenRetryingEintr(env, path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  const std::string body = reason.ToString() + "\n";
  // Best-effort: a partial (even empty) marker is still loud.
  (void)WriteAllRetryingEintr(env, fd, body.data(), body.size());
  (void)env->Fsync(fd);
  env->Close(fd);
  (void)env->FsyncDir(config.directory.c_str());
}

bool HasDegradedMarker(const std::string& directory) {
  std::error_code ec;
  return fs::exists(fs::path(directory) / kDegradedMarkerName, ec);
}

}  // namespace bikegraph::stream
