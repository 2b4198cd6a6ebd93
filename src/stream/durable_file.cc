#include "stream/durable_file.h"

#include <fcntl.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace bikegraph::stream::internal {

namespace {

constexpr size_t kSeqDigits = 20;

}  // namespace

std::string SeqFileName::Format(uint64_t seq) const {
  char digits[kSeqDigits + 1];
  std::snprintf(digits, sizeof(digits), "%020" PRIu64, seq);
  return std::string(prefix) + digits + std::string(suffix);
}

bool SeqFileName::Parse(std::string_view name, uint64_t* seq) const {
  if (name.size() != prefix.size() + kSeqDigits + suffix.size() ||
      name.substr(0, prefix.size()) != prefix ||
      name.substr(prefix.size() + kSeqDigits) != suffix) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : name.substr(prefix.size(), kSeqDigits)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

Status IOError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

int OpenRetryingEintr(IoEnv* env, const std::string& path, int flags,
                      unsigned int mode) {
  for (;;) {
    const int fd = env->Open(path.c_str(), flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

bool WriteAllRetryingEintr(IoEnv* env, int fd, const char* data,
                           size_t size) {
  while (size > 0) {
    const int64_t n = env->Write(fd, data, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

Status FsyncDirectory(IoEnv* env, const std::string& directory) {
  if (env->FsyncDir(directory.c_str()) != 0) {
    return IOError("fsync directory", directory);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(IoEnv* env, const std::string& path,
                                  const std::string& kind) {
  const int fd = OpenRetryingEintr(env, path, O_RDONLY);
  if (fd < 0) return IOError("open " + kind, path);
  std::string out;
  char buf[1u << 16];
  for (;;) {
    const int64_t n = env->Read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status failed = IOError("read " + kind, path);
      env->Close(fd);
      return failed;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  env->Close(fd);
  return out;
}

}  // namespace bikegraph::stream::internal
