#include "core/io_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <system_error>

// The one file where raw I/O syscalls are legal (the `naked-io-syscall`
// lint pins the whole durability protocol onto this seam; see
// docs/STATIC_ANALYSIS.md).
//
// lint: thread-ok: nanosleep is the backoff clock, not synchronization;
// the mutex serializes FaultInjectingIoEnv's calls from a durable
// engine's writer and checkpoint committer (see io_env.h).

namespace bikegraph {

namespace fs = std::filesystem;

IoEnv::~IoEnv() = default;

int IoEnv::Open(const char* path, int flags, unsigned int mode) {
  return ::open(path, flags, static_cast<mode_t>(mode));
}

int64_t IoEnv::Read(int fd, void* data, size_t size) {
  return static_cast<int64_t>(::read(fd, data, size));
}

int64_t IoEnv::Write(int fd, const void* data, size_t size) {
  return static_cast<int64_t>(::write(fd, data, size));
}

int IoEnv::Fsync(int fd) { return ::fsync(fd); }

int IoEnv::Rename(const char* from, const char* to) {
  return ::rename(from, to);
}

int IoEnv::Unlink(const char* path) { return ::unlink(path); }

int IoEnv::FsyncDir(const char* path) {
  const int fd = ::open(path, O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return -1;
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  errno = saved_errno;
  return rc;
}

int IoEnv::Truncate(int fd, int64_t size) {
  return ::ftruncate(fd, static_cast<off_t>(size));
}

int IoEnv::Close(int fd) { return ::close(fd); }

int IoEnv::Mkdir(const char* path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    errno = ec.value();
    return -1;
  }
  return 0;
}

void IoEnv::SleepMs(int64_t ms) {
  if (ms <= 0) {
    return;
  }
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

IoEnv* IoEnv::Default() {
  static IoEnv env;
  return &env;
}

namespace {

uint64_t RealFileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return 0;
  }
  return st.st_size >= 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

bool SameDirectory(const std::string& file, const std::string& directory) {
  return fs::path(file).lexically_normal().parent_path() ==
         fs::path(directory).lexically_normal();
}

}  // namespace

FaultInjectingIoEnv::FaultInjectingIoEnv(FaultPlan plan)
    : plan_(std::move(plan)) {}

FaultInjectingIoEnv::~FaultInjectingIoEnv() = default;

void FaultInjectingIoEnv::AddRule(const FaultPlan::Rule& rule) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_.rules.push_back(rule);
}

uint64_t FaultInjectingIoEnv::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

uint64_t FaultInjectingIoEnv::op_count(IoOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return op_counts_[static_cast<size_t>(op)];
}

uint64_t FaultInjectingIoEnv::crash_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crash_count_;
}

uint64_t FaultInjectingIoEnv::disk_used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_used_;
}

std::vector<int64_t> FaultInjectingIoEnv::sleep_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sleep_log_;
}

int64_t FaultInjectingIoEnv::virtual_now_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

FaultInjectingIoEnv::Fault FaultInjectingIoEnv::Inject(
    IoOp op, const std::string& path) {
  const uint64_t idx = op_counts_[static_cast<size_t>(op)]++;
  for (const FaultPlan::Rule& rule : plan_.rules) {
    if (rule.op != op || idx < rule.after || idx - rule.after >= rule.count) {
      continue;
    }
    if (!rule.path_substr.empty() &&
        path.find(rule.path_substr) == std::string::npos) {
      continue;
    }
    switch (rule.kind) {
      case FaultPlan::Kind::kError:
        ++faults_injected_;
        errno = rule.error;
        return Fault::kFail;
      case FaultPlan::Kind::kEintrStorm:
        ++faults_injected_;
        errno = EINTR;
        return Fault::kFail;
      case FaultPlan::Kind::kShortWrite:
        return op == IoOp::kWrite ? Fault::kShortWrite : Fault::kNone;
      case FaultPlan::Kind::kSyncLie:
        if (op != IoOp::kFsync && op != IoOp::kFsyncDir) return Fault::kNone;
        ++faults_injected_;
        return Fault::kSyncLie;
    }
    return Fault::kNone;
  }
  return Fault::kNone;
}

std::string FaultInjectingIoEnv::PathOf(int fd) const {
  const auto it = fds_.find(fd);
  return it == fds_.end() ? std::string() : it->second;
}

FaultInjectingIoEnv::FileState* FaultInjectingIoEnv::Tracked(
    const std::string& path) {
  const auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

int FaultInjectingIoEnv::Open(const char* path, int flags,
                              unsigned int mode) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Inject(IoOp::kOpen, path) == Fault::kFail) return -1;
  const bool existed = ::access(path, F_OK) == 0;
  const int fd = IoEnv::Open(path, flags, mode);
  if (fd < 0) {
    return fd;
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    FileState state;
    if (existed) {
      // First sight of a pre-existing file: its current content predates
      // this environment and is treated as durable.
      state.size = RealFileSize(path);
      state.synced = state.size;
    } else {
      pending_creates_.push_back(path);
    }
    it = files_.emplace(path, state).first;
  }
  if (existed && (flags & O_TRUNC) != 0) {
    it->second.size = 0;
    it->second.synced = 0;
  }
  fds_[fd] = path;
  return fd;
}

int64_t FaultInjectingIoEnv::Read(int fd, void* data, size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Inject(IoOp::kRead, PathOf(fd)) == Fault::kFail) return -1;
  return IoEnv::Read(fd, data, size);
}

int64_t FaultInjectingIoEnv::Write(int fd, const void* data, size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = PathOf(fd);
  size_t effective = size;
  switch (Inject(IoOp::kWrite, path)) {
    case Fault::kFail:
      return -1;
    case Fault::kShortWrite:
      if (size > 1) {
        effective = size / 2;
        ++faults_injected_;
      }
      break;
    case Fault::kNone:
    case Fault::kSyncLie:
      break;
  }
  if (plan_.disk_capacity_bytes > 0) {
    if (disk_used_ >= plan_.disk_capacity_bytes) {
      ++faults_injected_;
      errno = ENOSPC;
      return -1;
    }
    // A nearly-full disk writes what fits and the next attempt hits
    // ENOSPC — the short-write-then-fail shape real filesystems produce.
    effective = std::min<uint64_t>(effective,
                                   plan_.disk_capacity_bytes - disk_used_);
  }
  const int64_t written = IoEnv::Write(fd, data, effective);
  if (written > 0) {
    disk_used_ += static_cast<uint64_t>(written);
    if (FileState* file = Tracked(path)) {
      file->size += static_cast<uint64_t>(written);
    }
  }
  return written;
}

int FaultInjectingIoEnv::Fsync(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = PathOf(fd);
  switch (Inject(IoOp::kFsync, path)) {
    case Fault::kFail:
      return -1;
    case Fault::kSyncLie:
      // Report success without marking anything durable: the caller's
      // bytes stay in the crash-vulnerable window.
      return 0;
    case Fault::kNone:
    case Fault::kShortWrite:
      break;
  }
  const int rc = IoEnv::Fsync(fd);
  if (rc == 0) {
    if (FileState* file = Tracked(path)) {
      file->synced = file->size;
    }
  }
  return rc;
}

int FaultInjectingIoEnv::Rename(const char* from, const char* to) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Inject(IoOp::kRename, std::string(from) + "|" + to) == Fault::kFail) {
    return -1;
  }
  const int rc = IoEnv::Rename(from, to);
  if (rc == 0) {
    const auto it = files_.find(from);
    if (it != files_.end()) {
      files_[to] = it->second;
      files_.erase(it);
    }
    for (auto& [fd, fd_path] : fds_) {
      (void)fd;
      if (fd_path == from) {
        fd_path = to;
      }
    }
    pending_renames_.emplace_back(from, to);
  }
  return rc;
}

int FaultInjectingIoEnv::Unlink(const char* path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Inject(IoOp::kUnlink, path) == Fault::kFail) return -1;
  const FileState* file = Tracked(path);
  const uint64_t freed = file != nullptr ? file->size : RealFileSize(path);
  const int rc = IoEnv::Unlink(path);
  if (rc == 0) {
    disk_used_ -= std::min(disk_used_, freed);
    files_.erase(path);
    pending_creates_.erase(
        std::remove(pending_creates_.begin(), pending_creates_.end(), path),
        pending_creates_.end());
    // A rename whose target was unlinked can no longer be undone; the
    // crash outcome for that path is "gone" either way.
    pending_renames_.erase(
        std::remove_if(pending_renames_.begin(), pending_renames_.end(),
                       [&](const auto& entry) { return entry.second == path; }),
        pending_renames_.end());
  }
  return rc;
}

int FaultInjectingIoEnv::FsyncDir(const char* path) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (Inject(IoOp::kFsyncDir, path)) {
    case Fault::kFail:
      return -1;
    case Fault::kSyncLie:
      // Claims the metadata barrier happened; the pending creates and
      // renames stay crash-vulnerable.
      return 0;
    case Fault::kNone:
    case Fault::kShortWrite:
      break;
  }
  const int rc = IoEnv::FsyncDir(path);
  if (rc == 0) {
    pending_creates_.erase(
        std::remove_if(pending_creates_.begin(), pending_creates_.end(),
                       [&](const std::string& p) {
                         return SameDirectory(p, path);
                       }),
        pending_creates_.end());
    pending_renames_.erase(
        std::remove_if(pending_renames_.begin(), pending_renames_.end(),
                       [&](const auto& entry) {
                         return SameDirectory(entry.second, path);
                       }),
        pending_renames_.end());
  }
  return rc;
}

int FaultInjectingIoEnv::Truncate(int fd, int64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = PathOf(fd);
  if (Inject(IoOp::kTruncate, path) == Fault::kFail) return -1;
  const int rc = IoEnv::Truncate(fd, size);
  if (rc == 0) {
    if (FileState* file = Tracked(path)) {
      const uint64_t new_size =
          size >= 0 ? static_cast<uint64_t>(size) : 0;
      if (new_size < file->size) {
        disk_used_ -= std::min(disk_used_, file->size - new_size);
      }
      file->size = new_size;
      file->synced = std::min(file->synced, new_size);
    }
  }
  return rc;
}

int FaultInjectingIoEnv::Close(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  fds_.erase(fd);
  return IoEnv::Close(fd);
}

int FaultInjectingIoEnv::Mkdir(const char* path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Inject(IoOp::kMkdir, path) == Fault::kFail) return -1;
  return IoEnv::Mkdir(path);
}

void FaultInjectingIoEnv::SleepMs(int64_t ms) {
  std::lock_guard<std::mutex> lock(mu_);
  sleep_log_.push_back(ms);
  virtual_now_ms_ += ms;
}

void FaultInjectingIoEnv::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  ++crash_count_;
  // Metadata first, newest-first: a rename the directory never committed
  // rolls back to the old name; a create it never committed disappears.
  for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
       ++it) {
    if (::rename(it->second.c_str(), it->first.c_str()) == 0) {
      const auto state = files_.find(it->second);
      if (state != files_.end()) {
        files_[it->first] = state->second;
        files_.erase(state);
      }
    }
  }
  pending_renames_.clear();
  for (auto it = pending_creates_.rbegin(); it != pending_creates_.rend();
       ++it) {
    if (::unlink(it->c_str()) == 0 || errno == ENOENT) {
      files_.erase(*it);
    }
  }
  pending_creates_.clear();
  // Data second: every surviving file keeps only what a truthful fsync
  // covered (a lying fsync left `synced` behind `size` — this is where
  // the lie lands).
  for (auto& [path, file] : files_) {
    if (file.size > file.synced) {
      if (::truncate(path.c_str(), static_cast<off_t>(file.synced)) == 0) {
        disk_used_ -= std::min(disk_used_, file.size - file.synced);
        file.size = file.synced;
      }
    }
  }
}

}  // namespace bikegraph
