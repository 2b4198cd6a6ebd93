// Golden-bad: std::filesystem calls that change the disk, in library code
// outside src/core/io_env.cc. Like a raw syscall, each bypasses the IoEnv
// seam, so no fault schedule can make it fail and the crash tests never
// see it. The naked-io-syscall check must flag every call below under
// src/ (fs::rename is flagged everywhere by the raw-syscall pattern), and
// accept the same file under tests/, where temp directories are created
// and deleted legitimately.

#include <filesystem>
#include <system_error>

namespace bikegraph {

namespace fs = std::filesystem;

void CasualDirectoryWork(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir / "a" / "b", ec);
  fs::create_directory(dir / "c", ec);
  std::filesystem::resize_file(dir / "a" / "log", 0, ec);
  fs::remove(dir / "c", ec);
  std::filesystem::remove_all(dir / "a", ec);
}

}  // namespace bikegraph
