#pragma once

#include <array>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

// lint: thread-ok: FaultInjectingIoEnv serializes its calls on one mutex,
// because a durable engine's writer and its checkpoint committer issue
// I/O through the same environment at once.

namespace bikegraph {

/// \brief The I/O operations the durability protocol performs, named so a
/// fault plan can target them individually (see FaultPlan::Rule).
enum class IoOp : uint8_t {
  kOpen = 0,
  kWrite,
  kFsync,
  kRename,
  kUnlink,
  kFsyncDir,
  kTruncate,
  kMkdir,
  kRead,
};
inline constexpr size_t kIoOpCount = 9;

/// \brief The syscall seam under the durability protocol. Every raw
/// `::open/::read/::write/::fsync/::rename/::unlink` and directory
/// creation the engine, WAL writer and reader, checkpoint commit and
/// load, and WAL repair perform goes through one of these virtual
/// methods (enforced by the `naked-io-syscall` lint), so tests can
/// substitute a FaultInjectingIoEnv and exercise ENOSPC, EINTR storms,
/// short writes, torn renames, and lying fsyncs deterministically.
///
/// The base class *is* the production implementation: a zero-cost
/// passthrough to the POSIX calls (one predictable virtual dispatch per
/// I/O operation — invisible next to the syscall itself; the bench guard
/// in BENCH_perf.json holds WAL-on ingest within 1.15× of the pre-seam
/// numbers). All methods follow POSIX conventions: -1 with `errno` set on
/// failure; Read and Write return the byte count (possibly short).
///
/// Thread model: a durable engine issues I/O from two threads at once —
/// the ingestion thread (WAL appends, syncs, rotations, the ENOSPC
/// self-heal) and its checkpoint committer (checkpoint write and the
/// prunes) — so an implementation must accept concurrent calls. The
/// production passthrough holds no state and already does.
class IoEnv {
 public:
  virtual ~IoEnv();

  /// `::open(path, flags, mode)`.
  virtual int Open(const char* path, int flags, unsigned int mode);
  /// `::read(fd, data, size)`: the byte count, 0 at end of file.
  virtual int64_t Read(int fd, void* data, size_t size);
  /// `::write(fd, data, size)`; short writes are legal per POSIX and the
  /// callers loop.
  virtual int64_t Write(int fd, const void* data, size_t size);
  /// `::fsync(fd)`.
  virtual int Fsync(int fd);
  /// `::rename(from, to)`.
  virtual int Rename(const char* from, const char* to);
  /// `::unlink(path)`.
  virtual int Unlink(const char* path);
  /// Opens `path` as a directory and fsyncs it (the rename/create
  /// metadata barrier of the commit protocols in docs/DURABILITY.md).
  virtual int FsyncDir(const char* path);
  /// `::ftruncate(fd, size)` (WAL torn-tail repair).
  virtual int Truncate(int fd, int64_t size);
  /// `::close(fd)`.
  virtual int Close(int fd);
  /// `mkdir -p path` (std::filesystem::create_directories): creates
  /// `path` and any missing parents; an existing directory is success.
  virtual int Mkdir(const char* path);

  /// Blocks for `ms` milliseconds — the retry-backoff clock (see
  /// DurabilityConfig::faults). Virtual so tests can inject a clock that
  /// records instead of sleeping; production nanosleeps.
  virtual void SleepMs(int64_t ms);

  /// The process-wide production environment (the passthrough above).
  static IoEnv* Default();
};

/// \brief A deterministic, seeded schedule of injected I/O faults.
///
/// Grammar: a plan is (a) a list of rules, each targeting one IoOp over a
/// half-open window of that op's call indices, plus (b) an optional
/// simulated disk capacity. Call indices count per-op across the whole
/// environment lifetime (the 0th fsync, the 7th write, ...), so the same
/// plan against the same workload injects the same faults — no wall
/// clock, no global RNG (the fault suites draw randomized plans up front
/// from a seeded bikegraph::Rng; see tests/chaos_test_util.h).
struct FaultPlan {
  enum class Kind : uint8_t {
    /// The call fails with `error` for every call in the window.
    kError,
    /// Write only: the call writes at most half the requested bytes (a
    /// legal POSIX short write; callers must loop).
    kShortWrite,
    /// The call fails with EINTR for every call in the window (the
    /// signal-storm scenario; callers must retry for free).
    kEintrStorm,
    /// Fsync/FsyncDir only: the call *reports success* without making
    /// anything durable — the lying-fsync scenario. The lie becomes
    /// visible at SimulateCrash(), which drops the un-durable bytes and
    /// metadata the caller believed were safe.
    kSyncLie,
  };
  struct Rule {
    IoOp op = IoOp::kWrite;
    Kind kind = Kind::kError;
    /// Fires on matching calls with per-op index in [after, after+count).
    uint64_t after = 0;
    uint64_t count = 1;
    /// errno injected by kError.
    int error = EIO;
    /// When non-empty, the rule applies only to paths containing this
    /// substring (e.g. "ckpt-" to target checkpoint files). The per-op
    /// index still counts every call of the op.
    std::string path_substr;
  };
  std::vector<Rule> rules;
  /// Simulated disk: total bytes writable through the environment before
  /// Write fails with ENOSPC. Unlinking a file credits its bytes back —
  /// which is exactly what the WAL writer's ENOSPC self-heal (prune old
  /// segments, retry) relies on. 0 = unlimited.
  uint64_t disk_capacity_bytes = 0;
};

/// \brief An IoEnv that executes real I/O but injects the faults a
/// FaultPlan schedules, and models crash durability: it tracks, per file,
/// how many bytes a *truthful* fsync has made durable and which creates/
/// renames a directory fsync has committed, so SimulateCrash() can roll
/// the real filesystem back to exactly what a power cut would have left.
///
/// Usage: construct with a plan, point DurabilityConfig::io_env at it,
/// run the workload, destroy the engine (its writer flushes through the
/// environment), then SimulateCrash() and recover with a clean
/// environment.
///
/// Thread-safe: one mutex guards the whole model and is held across each
/// call's syscall, so calls from the writer and the committer apply to
/// the disk and to the model in one order. Op indices stay global across
/// threads: a plan aimed at a call another thread may issue concurrently
/// hits whichever call takes that index.
class FaultInjectingIoEnv final : public IoEnv {
 public:
  explicit FaultInjectingIoEnv(FaultPlan plan);
  ~FaultInjectingIoEnv() override;

  int Open(const char* path, int flags, unsigned int mode) override;
  /// Injects kError / kEintrStorm (the recovery read paths).
  int64_t Read(int fd, void* data, size_t size) override;
  int64_t Write(int fd, const void* data, size_t size) override;
  int Fsync(int fd) override;
  int Rename(const char* from, const char* to) override;
  int Unlink(const char* path) override;
  int FsyncDir(const char* path) override;
  int Truncate(int fd, int64_t size) override;
  int Close(int fd) override;
  /// Injects kError / kEintrStorm; created directories are not part of
  /// the crash model (SimulateCrash never removes them).
  int Mkdir(const char* path) override;
  /// Advances the virtual clock and records the sleep; never blocks —
  /// the retry-determinism tests assert the exact schedule.
  void SleepMs(int64_t ms) override;

  /// Appends a rule mid-run (windows are relative to the op counters, so
  /// `{op, kind, op_count(op)}` targets the very next call of `op`).
  void AddRule(const FaultPlan::Rule& rule);

  /// Rolls the real filesystem back to the crash-consistent state: undoes
  /// renames and deletes creations no directory fsync committed (newest
  /// first), then truncates every tracked file to its last truthfully
  /// fsynced length. Call with no fds open through this environment (the
  /// writing engine must be destroyed first).
  void SimulateCrash();

  uint64_t faults_injected() const;
  uint64_t op_count(IoOp op) const;
  uint64_t crash_count() const;
  uint64_t disk_used_bytes() const;
  /// Every SleepMs duration, in call order (the backoff schedule).
  std::vector<int64_t> sleep_log() const;
  /// Sum of the recorded sleeps — the virtual "now".
  int64_t virtual_now_ms() const;

 private:
  struct FileState {
    uint64_t size = 0;    ///< bytes written (through this env)
    uint64_t synced = 0;  ///< bytes a truthful fsync covered
  };
  /// What the plan does to one call (see Inject).
  enum class Fault : uint8_t { kNone, kFail, kShortWrite, kSyncLie };

  /// Counts this call of `op` (index = calls of `op` so far) and applies
  /// the first rule matching it and `path`. kError and kEintrStorm fail
  /// the call here: errno is set, the fault counted, and the caller
  /// returns -1 (kFail). kShortWrite is returned only for Write, which
  /// halves the request and counts it; kSyncLie only for Fsync/FsyncDir,
  /// counted here. On any other op those two kinds pass through (kNone).
  /// Caller holds mu_.
  Fault Inject(IoOp op, const std::string& path);
  std::string PathOf(int fd) const;
  FileState* Tracked(const std::string& path);

  mutable std::mutex mu_;
  FaultPlan plan_;
  std::array<uint64_t, kIoOpCount> op_counts_{};
  uint64_t faults_injected_ = 0;
  uint64_t crash_count_ = 0;
  uint64_t disk_used_ = 0;
  std::vector<int64_t> sleep_log_;
  int64_t virtual_now_ms_ = 0;
  std::map<int, std::string> fds_;
  std::map<std::string, FileState> files_;
  /// Creations/renames no directory fsync has committed yet, in op
  /// order; a crash undoes them newest-first.
  std::vector<std::string> pending_creates_;
  std::vector<std::pair<std::string, std::string>> pending_renames_;
};

}  // namespace bikegraph
