// Golden-bad: raw ::read / ::pread in library code outside
// src/core/io_env.cc. Recovery reads its WAL segments and checkpoints
// through IoEnv::Read, so a fault plan can fail or interrupt them; a
// direct read is invisible to every fault schedule, which leaves the
// "read WAL segment" and "read checkpoint" error paths untestable. The
// naked-io-syscall check must flag both calls under src/.

#include <fcntl.h>
#include <unistd.h>

#include <string>

namespace bikegraph {

std::string SlurpRaw(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  char header[8];
  (void)::pread(fd, header, sizeof(header), 0);
  return out;
}

}  // namespace bikegraph
