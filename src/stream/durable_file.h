#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/io_env.h"
#include "core/result.h"

namespace bikegraph::stream::internal {

/// The file helpers the WAL and the checkpoint code share. Every I/O call
/// goes through the IoEnv it is given, so fault plans reach it.

/// \brief One family of durable files, named `<prefix><seq><suffix>`
/// with `seq` written as exactly 20 zero-padded decimal digits.
struct SeqFileName {
  std::string_view prefix;
  std::string_view suffix;

  std::string Format(uint64_t seq) const;
  /// False, leaving `seq` untouched, for any other name.
  bool Parse(std::string_view name, uint64_t* seq) const;
};

inline constexpr SeqFileName kSegmentFile{"wal-", ".log"};
inline constexpr SeqFileName kCheckpointFile{"ckpt-", ".ckpt"};
/// The temp a checkpoint is written to before its atomic rename.
inline constexpr SeqFileName kCheckpointTempFile{"ckpt-", ".ckpt.tmp"};

/// A null env means the process default.
inline IoEnv* ResolveEnv(IoEnv* env) {
  return env != nullptr ? env : IoEnv::Default();
}

/// IOError "<what> '<path>': <strerror(errno)>".
Status IOError(const std::string& what, const std::string& path);

/// `env->Open`, retried for as long as it fails with EINTR. -1 with
/// errno set on any other failure.
int OpenRetryingEintr(IoEnv* env, const std::string& path, int flags,
                      unsigned int mode = 0);

/// Writes all `size` bytes at `data` to `fd` through `env->Write`,
/// retrying EINTR and resuming after short writes. False when a write
/// fails (errno says why) or makes no progress.
bool WriteAllRetryingEintr(IoEnv* env, int fd, const char* data, size_t size);

/// Fsyncs `directory`, so the names created or removed in it are durable.
Status FsyncDirectory(IoEnv* env, const std::string& directory);

/// The whole of `path`. IOError "open <kind>" or "read <kind>" on failure.
Result<std::string> ReadWholeFile(IoEnv* env, const std::string& path,
                                  const std::string& kind);

}  // namespace bikegraph::stream::internal
