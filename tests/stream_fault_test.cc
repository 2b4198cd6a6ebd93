// Deterministic I/O fault injection: the IoEnv seam and its crash model,
// the WAL writer's transient-retry/backoff policy (injected clock — no
// real sleeps on the retry paths), ENOSPC self-healing, torn checkpoint
// renames, loud degraded mode, the background checkpoint committer, and
// the gate the archetype demands: randomized FaultPlans crossed with
// kill points must recover bit-identical or fail loudly — never silently
// diverge.
//
// lint: thread-ok: a durable engine commits checkpoints on its own
// thread; the test environments below lock like FaultInjectingIoEnv, and
// the committer cases wait on and hold that thread.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/civil_time.h"
#include "core/io_env.h"
#include "core/rng.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/testing.h"
#include "stream/wal.h"

#include <fcntl.h>

#include <gtest/gtest.h>

#include "chaos_test_util.h"

namespace bikegraph::stream {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("bg_fault_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileContents(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TripEvent MakeEvent(int64_t rental_id, int32_t from, int32_t to,
                    int64_t start_seconds) {
  TripEvent event;
  event.rental_id = rental_id;
  event.from_station = from;
  event.to_station = to;
  event.start_time = CivilTime(start_seconds);
  event.end_time = CivilTime(start_seconds + 600);
  return event;
}

// ---------------------------------------------------------------------
// IoEnv: production passthrough.

TEST(IoEnvTest, DefaultPassthroughRoundTrips) {
  IoEnv* env = IoEnv::Default();
  const fs::path dir = FreshDir("passthrough");
  const std::string a = (dir / "a.bin").string();
  const std::string b = (dir / "b.bin").string();

  const int fd = env->Open(a.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  const std::string payload = "hello, durable world";
  size_t off = 0;
  while (off < payload.size()) {
    const int64_t n =
        env->Write(fd, payload.data() + off, payload.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  EXPECT_EQ(env->Fsync(fd), 0);
  EXPECT_EQ(env->Truncate(fd, 5), 0);
  EXPECT_EQ(env->Close(fd), 0);

  ASSERT_EQ(env->Rename(a.c_str(), b.c_str()), 0);
  EXPECT_EQ(env->FsyncDir(dir.string().c_str()), 0);
  EXPECT_FALSE(fs::exists(a));
  EXPECT_EQ(ReadFileContents(b), "hello");

  ASSERT_EQ(env->Unlink(b.c_str()), 0);
  EXPECT_FALSE(fs::exists(b));
  // Error convention: -1 with errno set.
  errno = 0;
  EXPECT_EQ(env->Unlink(b.c_str()), -1);
  EXPECT_EQ(errno, ENOENT);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// FaultInjectingIoEnv: deterministic schedules and the crash model.

TEST(FaultEnvTest, InjectsTheSameScheduleEveryRun) {
  const fs::path dir = FreshDir("deterministic");
  FaultPlan plan;
  {
    FaultPlan::Rule rule;
    rule.op = IoOp::kWrite;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = 1;
    rule.count = 2;
    rule.error = EIO;
    plan.rules.push_back(rule);
  }
  const auto run = [&](const std::string& name) {
    FaultInjectingIoEnv env(plan);
    const std::string path = (dir / name).string();
    const int fd = env.Open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    EXPECT_GE(fd, 0);
    std::vector<int64_t> results;
    for (int i = 0; i < 5; ++i) {
      errno = 0;
      results.push_back(env.Write(fd, "x", 1));
      results.push_back(errno);
    }
    env.Close(fd);
    EXPECT_EQ(env.op_count(IoOp::kWrite), 5u);
    EXPECT_EQ(env.faults_injected(), 2u);
    return results;
  };
  const auto first = run("one.bin");
  const auto second = run("two.bin");
  EXPECT_EQ(first, second) << "same plan + same workload must inject "
                              "identical faults";
  // Write call indices 1 and 2 failed with EIO; 0, 3, 4 succeeded.
  ASSERT_EQ(first.size(), 10u);
  EXPECT_EQ(first[0], 1);
  EXPECT_EQ(first[2], -1);
  EXPECT_EQ(first[3], EIO);
  EXPECT_EQ(first[4], -1);
  EXPECT_EQ(first[6], 1);
  EXPECT_EQ(first[8], 1);
  fs::remove_all(dir);
}

TEST(FaultEnvTest, ShortWritesHalveAndEintrStormsSetErrno) {
  const fs::path dir = FreshDir("short_eintr");
  FaultPlan plan;
  {
    FaultPlan::Rule rule;
    rule.op = IoOp::kWrite;
    rule.kind = FaultPlan::Kind::kShortWrite;
    rule.after = 0;
    rule.count = 1;
    plan.rules.push_back(rule);
  }
  {
    FaultPlan::Rule rule;
    rule.op = IoOp::kFsync;
    rule.kind = FaultPlan::Kind::kEintrStorm;
    rule.after = 0;
    rule.count = 2;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  const std::string path = (dir / "f.bin").string();
  const int fd = env.Open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(env.Write(fd, "12345678", 8), 4) << "short write: half";
  errno = 0;
  EXPECT_EQ(env.Fsync(fd), -1);
  EXPECT_EQ(errno, EINTR);
  errno = 0;
  EXPECT_EQ(env.Fsync(fd), -1);
  EXPECT_EQ(errno, EINTR);
  EXPECT_EQ(env.Fsync(fd), 0) << "storm window over";
  env.Close(fd);
  EXPECT_EQ(env.faults_injected(), 3u);
  fs::remove_all(dir);
}

TEST(FaultEnvTest, DiskBudgetRunsOutAndUnlinkCreditsItBack) {
  const fs::path dir = FreshDir("disk_budget");
  FaultPlan plan;
  plan.disk_capacity_bytes = 10;
  FaultInjectingIoEnv env(plan);
  const std::string a = (dir / "a.bin").string();
  const std::string b = (dir / "b.bin").string();
  const int fda = env.Open(a.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fda, 0);
  // A nearly-full disk takes what fits, then fails.
  EXPECT_EQ(env.Write(fda, "123456", 6), 6);
  EXPECT_EQ(env.Write(fda, "123456", 6), 4);
  errno = 0;
  EXPECT_EQ(env.Write(fda, "12", 2), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(env.disk_used_bytes(), 10u);
  env.Close(fda);

  // Deleting the file frees its bytes — the self-heal contract.
  ASSERT_EQ(env.Unlink(a.c_str()), 0);
  EXPECT_EQ(env.disk_used_bytes(), 0u);
  const int fdb = env.Open(b.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fdb, 0);
  EXPECT_EQ(env.Write(fdb, "12345", 5), 5);
  env.Close(fdb);
  fs::remove_all(dir);
}

TEST(FaultEnvTest, SimulateCrashDropsWhatOnlyALyingFsyncCovered) {
  const fs::path dir = FreshDir("sync_lie");
  FaultPlan plan;
  {
    // The second fsync in this environment lies.
    FaultPlan::Rule rule;
    rule.op = IoOp::kFsync;
    rule.kind = FaultPlan::Kind::kSyncLie;
    rule.after = 1;
    rule.count = 1;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  const std::string honest = (dir / "honest.bin").string();
  const std::string liar = (dir / "liar.bin").string();

  const int fd1 = env.Open(honest.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd1, 0);
  ASSERT_EQ(env.Write(fd1, "safe", 4), 4);
  ASSERT_EQ(env.Fsync(fd1), 0);  // truthful (index 0)
  env.Close(fd1);

  const int fd2 = env.Open(liar.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(env.Write(fd2, "gone", 4), 4);
  ASSERT_EQ(env.Fsync(fd2), 0);  // the lie (index 1): reports success
  env.Close(fd2);

  // Commit both directory entries so the files themselves survive.
  ASSERT_EQ(env.FsyncDir(dir.string().c_str()), 0);
  env.SimulateCrash();
  EXPECT_EQ(env.crash_count(), 1u);
  EXPECT_EQ(ReadFileContents(honest), "safe");
  EXPECT_EQ(ReadFileContents(liar), "") << "the lying fsync's bytes must "
                                           "not survive the crash";
  fs::remove_all(dir);
}

TEST(FaultEnvTest, SimulateCrashUndoesUncommittedCreatesAndRenames) {
  const fs::path dir = FreshDir("crash_metadata");
  FaultInjectingIoEnv env(FaultPlan{});
  const std::string committed = (dir / "committed.bin").string();
  const std::string doomed = (dir / "doomed.bin").string();
  const std::string renamed = (dir / "renamed.bin").string();

  const auto create = [&](const std::string& path) {
    const int fd = env.Open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(env.Write(fd, "x", 1), 1);
    ASSERT_EQ(env.Fsync(fd), 0);
    env.Close(fd);
  };
  create(committed);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_EQ(env.FsyncDir(dir.string().c_str()), 0);  // commits `committed`
  create(doomed);  // never committed by a directory fsync
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // Rename the committed file without re-syncing the directory: the
  // crash must roll the name back.
  ASSERT_EQ(env.Rename(committed.c_str(), renamed.c_str()), 0);
  ASSERT_TRUE(fs::exists(renamed));

  env.SimulateCrash();
  EXPECT_TRUE(fs::exists(committed)) << "uncommitted rename rolled back";
  EXPECT_FALSE(fs::exists(renamed));
  EXPECT_FALSE(fs::exists(doomed)) << "uncommitted create disappears";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Randomized plans (the chaos dimension's generator).

TEST(FaultPlanTest, RandomPlansAreDeterministicAndShaped) {
  FaultChaosConfig config;
  config.seed = 42;
  config.rules = 6;
  config.max_burst = 3;
  const FaultPlan a = MakeRandomFaultPlan(config);
  const FaultPlan b = MakeRandomFaultPlan(config);
  ASSERT_EQ(a.rules.size(), 6u);
  ASSERT_EQ(b.rules.size(), 6u);
  for (size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].op, b.rules[i].op) << "rule " << i;
    EXPECT_EQ(a.rules[i].kind, b.rules[i].kind) << "rule " << i;
    EXPECT_EQ(a.rules[i].after, b.rules[i].after) << "rule " << i;
    EXPECT_EQ(a.rules[i].count, b.rules[i].count) << "rule " << i;
    EXPECT_EQ(a.rules[i].error, b.rules[i].error) << "rule " << i;
    // Stride-60 windows: rule i fires in [60i, 60i+40+count), and
    // count <= 59, so windows on the same op can never chain.
    EXPECT_GE(a.rules[i].after, i * 60) << "rule " << i;
    EXPECT_LT(a.rules[i].after, i * 60 + 40) << "rule " << i;
    EXPECT_LE(a.rules[i].count, 59u) << "rule " << i;
  }
  EXPECT_EQ(a.disk_capacity_bytes, b.disk_capacity_bytes);
}

TEST(FaultPlanTest, TransientOnlyPlansDrawOnlyAbsorbableFaults) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultChaosConfig config;
    config.seed = seed;
    config.rules = 5;
    config.max_burst = 3;
    config.transient_only = true;
    const FaultPlan plan = MakeRandomFaultPlan(config);
    EXPECT_EQ(plan.disk_capacity_bytes, 0u) << "seed " << seed;
    size_t budget_rules = 0;
    for (const FaultPlan::Rule& rule : plan.rules) {
      EXPECT_LE(rule.count, 3u) << "seed " << seed;
      if (rule.kind == FaultPlan::Kind::kError) {
        ++budget_rules;
        EXPECT_EQ(rule.error, EAGAIN) << "seed " << seed
                                      << ": only EAGAIN consumes budget";
      } else {
        EXPECT_TRUE(rule.kind == FaultPlan::Kind::kEintrStorm ||
                    rule.kind == FaultPlan::Kind::kShortWrite)
            << "seed " << seed;
      }
    }
    EXPECT_LE(budget_rules, 1u)
        << "seed " << seed << ": at most one budget-consuming burst, so "
        << "max_retries >= max_burst rides out every plan";
  }
}

// ---------------------------------------------------------------------
// Satellite 1: ENOSPC self-healing via WAL pruning.

std::vector<fs::path> SortedFiles(const fs::path& dir,
                                  const std::string& extension) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == extension) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// First sequence number of a WAL segment, from its name
/// ("wal-<seq20>.log").
uint64_t SegmentSeq(const fs::path& segment) {
  return std::stoull(segment.filename().string().substr(4, 20));
}

WalRecord AdvanceRecord(int64_t watermark) {
  WalRecord record;
  record.type = WalRecordType::kAdvance;
  record.watermark_seconds = watermark;
  return record;
}

/// Writer config for the ENOSPC self-heal cases: 256-byte segments
/// (rotate every ~14 records), an fsync per record, two retries.
DurabilityConfig EnospcConfig(const fs::path& dir, IoEnv* env) {
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  config.segment_bytes = 256;
  config.sync_interval_records = 1;
  config.faults.max_retries = 2;
  config.faults.backoff_initial_ms = 1;
  config.io_env = env;
  return config;
}

/// An empty checkpoint file named for `wal_seq`: only the *name* matters
/// to WalPruneBound.
void TouchCheckpoint(const fs::path& dir, int wal_seq) {
  const std::string digits = std::to_string(wal_seq);
  std::ofstream marker(
      dir / ("ckpt-" + std::string(20 - digits.size(), '0') + digits +
             ".ckpt"));
}

TEST(WalFaultTest, EnospcSelfHealsByPruningCoveredSegments) {
  const fs::path dir = FreshDir("enospc_heal");
  // checkpoints_kept (2) checkpoints, the older covering sequence 400,
  // make every full segment below it prunable.
  TouchCheckpoint(dir, 400);
  TouchCheckpoint(dir, 500);
  FaultPlan plan;
  plan.disk_capacity_bytes = 600;  // ~2 full segments
  FaultInjectingIoEnv env(plan);

  auto writer = WalWriter::Open(EnospcConfig(dir, &env), /*next_seq=*/1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int i = 0; i < 120; ++i) {
    const Status status = (*writer)->Append(AdvanceRecord(1000 + i));
    ASSERT_TRUE(status.ok())
        << "append " << i << " should have self-healed: "
        << status.ToString();
  }
  EXPECT_GE((*writer)->enospc_prune_count(), 1u)
      << "the 600-byte disk cannot hold 120 records without pruning";
  EXPECT_GE((*writer)->transient_recovered_count(), 1u);
  EXPECT_LE(env.disk_used_bytes(), 600u);
  writer->reset();

  // Every surviving segment, written through the ENOSPC retries, still
  // reads back whole and in sequence, from the oldest to the tail.
  const std::vector<fs::path> segments = SortedFiles(dir, ".log");
  ASSERT_FALSE(segments.empty());
  const uint64_t first = SegmentSeq(segments.front());
  uint64_t seq = first;
  bool in_order = true;
  auto read = ReadWal(dir.string(), /*repair_torn_tail=*/false, first - 1,
                      [&](const WalRecord& record) {
                        in_order &= record.watermark_seconds ==
                                    static_cast<int64_t>(1000 + seq - 1);
                        ++seq;
                      });
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->segment_count, segments.size());
  EXPECT_EQ(read->last_seq, 120u);
  EXPECT_EQ(seq, 121u);
  EXPECT_TRUE(in_order);
  EXPECT_FALSE(fs::exists(dir / "wal-00000000000000000001.log"))
      << "self-heal must have pruned";
  fs::remove_all(dir);
}

TEST(WalFaultTest, EnospcSelfHealKeepsTheLogUntilCheckpointsKeptExist) {
  const fs::path dir = FreshDir("enospc_first_ckpt");
  // One checkpoint of the two kept: the log from seq 1 is the fallback
  // for the one not yet written, so the self-heal prunes by the rule
  // Checkpoint() does and frees nothing.
  TouchCheckpoint(dir, 500);
  FaultPlan plan;
  plan.disk_capacity_bytes = 600;
  FaultInjectingIoEnv env(plan);

  auto writer = WalWriter::Open(EnospcConfig(dir, &env), /*next_seq=*/1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  Status failed = Status::OK();
  for (int i = 0; i < 120 && failed.ok(); ++i) {
    failed = (*writer)->Append(AdvanceRecord(1000 + i));
  }
  ASSERT_FALSE(failed.ok()) << "600 bytes cannot hold 120 records";
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_GE((*writer)->enospc_prune_count(), 1u);
  EXPECT_TRUE(fs::exists(dir / "wal-00000000000000000001.log"))
      << "the self-heal pruned the log a missing fallback needs";
  writer->reset();
  fs::remove_all(dir);
}

TEST(WalFaultTest, EnospcWithNothingToPrunePoisonsLoudly) {
  const fs::path dir = FreshDir("enospc_poison");
  FaultPlan plan;
  plan.disk_capacity_bytes = 64;  // header + ~2 records, no checkpoint
  FaultInjectingIoEnv env(plan);

  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  config.sync_interval_records = 1;
  config.faults.max_retries = 1;
  config.faults.backoff_initial_ms = 1;
  config.io_env = &env;

  auto writer = WalWriter::Open(config, /*next_seq=*/1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  Status failed = Status::OK();
  for (int i = 0; i < 10 && failed.ok(); ++i) {
    failed = (*writer)->Append(AdvanceRecord(1000 + i));
  }
  ASSERT_FALSE(failed.ok()) << "64 bytes cannot absorb 10 records";
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  // The self-heal ran (and freed nothing), the budgeted retry ran (and
  // slept on the virtual clock), and then the writer poisoned.
  EXPECT_GE((*writer)->enospc_prune_count(), 1u);
  EXPECT_EQ((*writer)->retry_count(), 1u);
  EXPECT_EQ(env.sleep_log().size(), 1u);
  const Status again = (*writer)->Append(AdvanceRecord(0));
  EXPECT_EQ(again.code(), StatusCode::kIOError) << "poisoned for good";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Satellite 2: torn checkpoint renames.

StreamEngineConfig SmallEngineConfig(const fs::path& dir, IoEnv* env) {
  StreamEngineConfig config;
  config.station_count = 8;
  config.window_seconds = 86400;
  config.max_lateness_seconds = 1800;
  config.suppress_duplicate_rentals = true;
  config.detection.options.seed = 7;
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  config.durability.sync_interval_records = 1;
  config.durability.io_env = env;
  return config;
}

size_t CountByExtension(const fs::path& dir, const std::string& extension) {
  size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == extension) ++count;
  }
  return count;
}

TEST(CheckpointFaultTest, FailedRenameLeavesPreviousCheckpointIntact) {
  const fs::path dir = FreshDir("torn_rename_soft");
  FaultInjectingIoEnv env(FaultPlan{});
  {
    StreamEngine engine(SmallEngineConfig(dir, &env));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          engine.Ingest(MakeEvent(i + 1, i % 8, (i + 3) % 8,
                                  1'600'000'000 + i * 60))
              .ok());
    }
    ASSERT_TRUE(engine.Checkpoint().ok());  // checkpoint A
    ASSERT_TRUE(engine.SyncWal().ok());     // ...committed
    EXPECT_EQ(CountByExtension(dir, ".ckpt"), 1u);

    // The very next rename fails: checkpoint B's commit is torn before
    // the atomic step, so its temp is cleaned up and A stays newest. The
    // commit runs in the background; SyncWal() waits for it and reports
    // its failure.
    FaultPlan::Rule rule;
    rule.op = IoOp::kRename;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = env.op_count(IoOp::kRename);
    rule.count = 1;
    rule.error = EACCES;
    env.AddRule(rule);

    ASSERT_TRUE(
        engine.Ingest(MakeEvent(11, 0, 1, 1'600'001'000)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    const Status failed = engine.SyncWal();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIOError);
    EXPECT_EQ(CountByExtension(dir, ".ckpt"), 1u) << "A still newest";
    EXPECT_EQ(CountByExtension(dir, ".tmp"), 0u) << "temp cleaned up";

    // A failed checkpoint commit is not a poison: the engine keeps
    // ingesting and the next attempt succeeds.
    ASSERT_TRUE(
        engine.Ingest(MakeEvent(12, 1, 2, 1'600'001'060)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.SyncWal().ok());
    EXPECT_EQ(CountByExtension(dir, ".ckpt"), 2u);
  }
  fs::remove_all(dir);
}

TEST(CheckpointFaultTest, CrashBetweenRenameAndDirSyncFallsBackToPrevious) {
  const fs::path dir = FreshDir("torn_rename_crash");
  FaultInjectingIoEnv env(FaultPlan{});
  StreamEngineConfig config = SmallEngineConfig(dir, &env);
  std::vector<TripEvent> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(
        MakeEvent(i + 1, i % 8, (i + 3) % 8, 1'600'000'000 + i * 60));
  }
  uint64_t ckpt_a_seq = 0;
  {
    StreamEngine engine(config);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine.Ingest(events[static_cast<size_t>(i)]).ok());
    }
    ASSERT_TRUE(engine.Checkpoint().ok());  // checkpoint A, seq 10
    ASSERT_TRUE(engine.SyncWal().ok());     // ...committed
    ckpt_a_seq = engine.wal_seq();

    // The directory fsync after checkpoint B's rename fails: B is
    // renamed into place but the directory entry is never committed.
    // (B's first directory fsync commits its WAL rotation; the rename's
    // is the second, on the committer, and SyncWal() reports it.)
    FaultPlan::Rule rule;
    rule.op = IoOp::kFsyncDir;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = env.op_count(IoOp::kFsyncDir) + 1;
    rule.count = 1;
    rule.error = EIO;
    env.AddRule(rule);

    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(engine.Ingest(events[static_cast<size_t>(i)]).ok());
    }
    ASSERT_TRUE(engine.Checkpoint().ok());
    const Status failed = engine.SyncWal();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIOError);
    EXPECT_EQ(CountByExtension(dir, ".ckpt"), 2u) << "B renamed into place";
  }
  // The crash undoes the uncommitted rename (and with it the temp file
  // that never survived either): only checkpoint A remains.
  env.SimulateCrash();
  EXPECT_EQ(CountByExtension(dir, ".ckpt"), 1u);
  EXPECT_EQ(CountByExtension(dir, ".tmp"), 0u);

  auto loaded = LoadNewestCheckpoint(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->checkpoint.wal_seq, ckpt_a_seq);

  // Recovery replays the synced WAL past A and reaches the full run.
  StreamEngineConfig recover_config = config;
  recover_config.durability.io_env = nullptr;
  StreamEngine::RecoveryStats stats;
  auto recovered = StreamEngine::Recover(recover_config, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(stats.checkpoint_seq, ckpt_a_seq);
  EXPECT_EQ(stats.recovered_seq, 20u)
      << "every record was truthfully synced before the crash";
  fs::remove_all(dir);
}

TEST(CheckpointFaultTest, StrayTempFilesAreSweptOnLoad) {
  const fs::path dir = FreshDir("tmp_sweep");
  const fs::path stray =
      dir / ("ckpt-" + std::string(17, '0') + "042.ckpt.tmp");
  {
    std::ofstream out(stray, std::ios::binary);
    out << "half-written checkpoint";
  }
  ASSERT_TRUE(fs::exists(stray));
  auto loaded = LoadNewestCheckpoint(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->found);
  EXPECT_FALSE(fs::exists(stray)) << "LoadNewestCheckpoint sweeps temps";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Recovery's WAL reset goes through the IoEnv seam: when the checkpoint
// covers every surviving record, Recover deletes the old segments, and a
// failed delete is an error, not a stale segment that the next Recover
// would misread as a sequence gap.

TEST(RecoveryFaultTest, FailedSegmentResetFailsRecoverAndRetrySucceeds) {
  const fs::path dir = FreshDir("recover_reset");
  FaultInjectingIoEnv env(FaultPlan{});
  const StreamEngineConfig config = SmallEngineConfig(dir, &env);
  {
    StreamEngine engine(config);
    for (int i = 0; i < 10; ++i) {
      if (i == 5) {
        // From record 6 on, WAL fsyncs report success but keep nothing.
        FaultPlan::Rule rule;
        rule.op = IoOp::kFsync;
        rule.kind = FaultPlan::Kind::kSyncLie;
        rule.after = env.op_count(IoOp::kFsync);
        rule.count = 1000;
        rule.path_substr = "wal-";
        env.AddRule(rule);
      }
      ASSERT_TRUE(engine
                      .Ingest(MakeEvent(i + 1, i % 8, (i + 3) % 8,
                                        1'600'000'000 + i * 60))
                      .ok());
    }
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_EQ(engine.wal_seq(), 10u);
  }
  // The crash keeps WAL records 1-5 only, all covered by the checkpoint
  // at seq 10, so Recover must delete the segment and start afresh. (The
  // segment the checkpoint rotated to lost its unsynced header; Recover
  // first drops it as a torn tail, the unlink before the reset's.)
  env.SimulateCrash();
  {
    FaultPlan::Rule rule;
    rule.op = IoOp::kUnlink;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = env.op_count(IoOp::kUnlink) + 1;
    rule.count = 1;
    rule.error = EIO;
    rule.path_substr = "wal-00000000000000000001.log";
    env.AddRule(rule);
  }
  const uint64_t unlinks_before = env.op_count(IoOp::kUnlink);
  auto failed = StreamEngine::Recover(config);
  ASSERT_FALSE(failed.ok()) << "the failed segment delete was ignored";
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_EQ(env.op_count(IoOp::kUnlink), unlinks_before + 2);
  EXPECT_TRUE(fs::exists(dir / "wal-00000000000000000001.log"));

  // The fault has passed: a retry recovers from the checkpoint...
  StreamEngine::RecoveryStats stats;
  {
    auto recovered = StreamEngine::Recover(config, &stats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(stats.used_checkpoint);
    EXPECT_EQ(stats.recovered_seq, 10u);
  }
  // ...and leaves no stale segment behind to fail the next one.
  auto again = StreamEngine::Recover(config, &stats);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(stats.recovered_seq, 10u);
  fs::remove_all(dir);
}

// Creating the durability directory goes through the seam as well: a
// failed mkdir parks in a fresh engine's durability status, surfaces at
// its first durable call, and fails Recover outright.

TEST(RecoveryFaultTest, FailedDirectoryCreationIsAnIOError) {
  const fs::path parent = FreshDir("mkdir");
  const fs::path dir = parent / "nested";
  FaultPlan plan;
  {
    FaultPlan::Rule rule;
    rule.op = IoOp::kMkdir;
    rule.kind = FaultPlan::Kind::kError;
    rule.count = 2;  // the fresh engine's mkdir, then Recover's
    rule.error = EACCES;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  const StreamEngineConfig config = SmallEngineConfig(dir, &env);
  {
    StreamEngine engine(config);
    const Status status =
        engine.Ingest(MakeEvent(1, 0, 3, 1'600'000'000));
    EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
    EXPECT_EQ(engine.wal_seq(), 0u);
  }
  auto recovered = StreamEngine::Recover(config);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIOError);
  EXPECT_EQ(env.op_count(IoOp::kMkdir), 2u);
  EXPECT_EQ(env.faults_injected(), 2u);
  EXPECT_FALSE(fs::exists(dir));
  fs::remove_all(parent);
}

// Recovery reads the checkpoint and the WAL segments through the seam
// too: a failed read is an IOError naming what was read, and an EINTR
// storm on reads is retried for free.

/// Leaves a durable run on `dir`: 30 events, checkpointed after the 20th,
/// so Recover reads one checkpoint and one segment. Returns the run's
/// final state.
std::string WriteRunForReadFaults(const fs::path& dir) {
  StreamEngine engine(SmallEngineConfig(dir, nullptr));
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(engine
                    .Ingest(MakeEvent(i + 1, i % 8, (i + 3) % 8,
                                      1'600'000'000 + i * 60))
                    .ok());
    if (i == 19) {
      EXPECT_TRUE(engine.Checkpoint().ok());
    }
  }
  return SerializeCheckpoint(engine.CaptureState());
}

FaultPlan ReadFaultPlan(FaultPlan::Kind kind, uint64_t count,
                        const std::string& path_substr) {
  FaultPlan plan;
  FaultPlan::Rule rule;
  rule.op = IoOp::kRead;
  rule.kind = kind;
  rule.count = count;
  rule.error = EIO;
  rule.path_substr = path_substr;
  plan.rules.push_back(rule);
  return plan;
}

TEST(RecoveryFaultTest, ReadErrorOnWalSegmentIsAnIOError) {
  const fs::path dir = FreshDir("read_wal");
  (void)WriteRunForReadFaults(dir);
  FaultInjectingIoEnv env(
      ReadFaultPlan(FaultPlan::Kind::kError, 1000, "wal-"));
  auto recovered = StreamEngine::Recover(SmallEngineConfig(dir, &env));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIOError);
  EXPECT_NE(recovered.status().message().find("read WAL segment"),
            std::string::npos)
      << recovered.status().ToString();
  EXPECT_EQ(env.faults_injected(), 1u);
  fs::remove_all(dir);
}

TEST(RecoveryFaultTest, ReadErrorOnNewestCheckpointIsAnIOError) {
  const fs::path dir = FreshDir("read_ckpt");
  (void)WriteRunForReadFaults(dir);
  FaultInjectingIoEnv env(
      ReadFaultPlan(FaultPlan::Kind::kError, 1000, "ckpt-"));
  auto recovered = StreamEngine::Recover(SmallEngineConfig(dir, &env));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIOError);
  EXPECT_NE(recovered.status().message().find("read checkpoint"),
            std::string::npos)
      << recovered.status().ToString();
  EXPECT_EQ(env.faults_injected(), 1u);
  fs::remove_all(dir);
}

TEST(RecoveryFaultTest, EintrStormOnReadsStillRecoversBitIdentically) {
  const fs::path dir = FreshDir("read_eintr");
  const std::string want = WriteRunForReadFaults(dir);
  // Every read fails with EINTR three times over before one gets through.
  FaultPlan plan;
  for (uint64_t after = 0; after < 64; after += 4) {
    FaultPlan::Rule rule = ReadFaultPlan(FaultPlan::Kind::kEintrStorm, 3, "")
                               .rules.front();
    rule.after = after;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  StreamEngine::RecoveryStats stats;
  auto recovered = StreamEngine::Recover(SmallEngineConfig(dir, &env), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(stats.replayed_records, 10u);
  EXPECT_EQ(SerializeCheckpoint((*recovered)->CaptureState()), want);
  // A checkpoint and a segment, each read to its end: four reads through.
  EXPECT_EQ(env.op_count(IoOp::kRead), 16u);
  EXPECT_EQ(env.faults_injected(), 12u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Satellite 3: retry/backoff determinism on the injected clock, at one
// and at two shards (the WAL is written on the ingestion thread before
// dispatch, so shard count must not change a single counter).

struct RetryRunResult {
  std::vector<int64_t> sleeps;
  uint64_t retries = 0;
  uint64_t recovered = 0;
  uint64_t wal_seq = 0;
};

RetryRunResult RunBackoffSchedule(size_t shard_count,
                                  const std::string& tag) {
  const fs::path dir = FreshDir(tag);
  FaultPlan plan;
  {
    // Write call indices 2 and 3 (the second record's frame, twice) fail
    // with EAGAIN; index 4 succeeds.
    FaultPlan::Rule rule;
    rule.op = IoOp::kWrite;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = 2;
    rule.count = 2;
    rule.error = EAGAIN;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  StreamEngineConfig config = SmallEngineConfig(dir, &env);
  config.shard_count = shard_count;
  config.durability.faults.max_retries = 4;
  config.durability.faults.backoff_initial_ms = 1;
  config.durability.faults.backoff_max_ms = 64;

  RetryRunResult result;
  {
    StreamEngine engine(config);
    for (int i = 0; i < 4; ++i) {
      const Status status = engine.Ingest(
          MakeEvent(i + 1, i % 8, (i + 3) % 8, 1'600'000'000 + i * 60));
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    result.retries = engine.wal_retry_count();
    result.recovered = engine.wal_transient_recovered_count();
    result.wal_seq = engine.wal_seq();
  }
  result.sleeps = env.sleep_log();
  fs::remove_all(dir);
  return result;
}

TEST(RetryBackoffTest, ExactScheduleAndCountersAtAnyShardCount) {
  const RetryRunResult one = RunBackoffSchedule(1, "backoff_n1");
  const RetryRunResult two = RunBackoffSchedule(2, "backoff_n2");

  // The exact deterministic schedule: two budgeted retries, backoff
  // doubling from 1 ms, one call that failed transiently then succeeded.
  const std::vector<int64_t> want_sleeps = {1, 2};
  EXPECT_EQ(one.sleeps, want_sleeps);
  EXPECT_EQ(one.retries, 2u);
  EXPECT_EQ(one.recovered, 1u);
  EXPECT_EQ(one.wal_seq, 4u);

  // Sharding must not move a single number.
  EXPECT_EQ(two.sleeps, one.sleeps);
  EXPECT_EQ(two.retries, one.retries);
  EXPECT_EQ(two.recovered, one.recovered);
  EXPECT_EQ(two.wal_seq, one.wal_seq);
}

TEST(RetryBackoffTest, EintrStormsAreFreeEvenWithZeroBudget) {
  const fs::path dir = FreshDir("eintr_free");
  FaultPlan plan;
  {
    FaultPlan::Rule rule;
    rule.op = IoOp::kFsync;
    rule.kind = FaultPlan::Kind::kEintrStorm;
    rule.after = 1;
    rule.count = 3;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  // Default FaultPolicy: max_retries = 0. EINTR must still be absorbed.
  StreamEngineConfig config = SmallEngineConfig(dir, &env);
  {
    StreamEngine engine(config);
    for (int i = 0; i < 3; ++i) {
      const Status status = engine.Ingest(
          MakeEvent(i + 1, i % 8, (i + 3) % 8, 1'600'000'000 + i * 60));
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    EXPECT_EQ(engine.wal_retry_count(), 0u) << "EINTR is never budgeted";
    EXPECT_EQ(engine.wal_transient_recovered_count(), 1u);
  }
  EXPECT_TRUE(env.sleep_log().empty()) << "EINTR retries never back off";
  EXPECT_EQ(env.faults_injected(), 3u);
  fs::remove_all(dir);
}

// Creating a segment takes the schedule a write does: a rotation whose
// create fails twice with EAGAIN sleeps 1 ms, then 2 ms, and the third
// attempt opens the segment.
TEST(RetryBackoffTest, RotationSegmentCreateBacksOffLikeAWrite) {
  const fs::path dir = FreshDir("backoff_create");
  FaultPlan plan;
  {
    // Open call 0 creates the first segment; calls 1 and 2, the
    // rotation's create, fail with EAGAIN; call 3 succeeds.
    FaultPlan::Rule rule;
    rule.op = IoOp::kOpen;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = 1;
    rule.count = 2;
    rule.error = EAGAIN;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  config.segment_bytes = 1;  // rotate before every record but the first
  config.faults.max_retries = 4;
  config.faults.backoff_initial_ms = 1;
  config.faults.backoff_max_ms = 64;
  config.io_env = &env;
  {
    auto writer = WalWriter::Open(config, /*next_seq=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Append(AdvanceRecord(1000)).ok());
    const Status rotated = (*writer)->Append(AdvanceRecord(1001));
    ASSERT_TRUE(rotated.ok()) << rotated.ToString();
    EXPECT_EQ((*writer)->segments_opened(), 2u);
    EXPECT_EQ((*writer)->retry_count(), 2u);
    EXPECT_EQ((*writer)->transient_recovered_count(), 1u);
  }
  EXPECT_EQ(env.sleep_log(), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(env.op_count(IoOp::kOpen), 4u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Degraded mode: loudly non-durable, never silently recovered.

TEST(DegradeTest, ExhaustedBudgetDegradesLoudlyAndKeepsIngesting) {
  const fs::path dir = FreshDir("degrade");
  FaultPlan plan;
  {
    // Write indices 2..4 fail with EAGAIN: with max_retries = 2 the
    // second record exhausts its budget and the engine degrades. The
    // marker write (index 5) is past the window and succeeds.
    FaultPlan::Rule rule;
    rule.op = IoOp::kWrite;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = 2;
    rule.count = 3;
    rule.error = EAGAIN;
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  StreamEngineConfig config = SmallEngineConfig(dir, &env);
  config.durability.faults.max_retries = 2;
  config.durability.faults.backoff_initial_ms = 1;
  config.durability.faults.degrade_on_exhausted = true;

  {
    StreamEngine engine(config);
    for (int i = 0; i < 6; ++i) {
      const Status status = engine.Ingest(
          MakeEvent(i + 1, i % 8, (i + 3) % 8, 1'600'000'000 + i * 60));
      EXPECT_TRUE(status.ok())
          << "a degrading engine keeps serving: " << status.ToString();
    }
    EXPECT_TRUE(engine.degraded());
    EXPECT_FALSE(engine.degrade_reason().ok());
    EXPECT_EQ(engine.wal_seq(), 1u) << "only the first record was logged";
    // A degraded engine still processes: advance the watermark past every
    // event and all six land in the window graph.
    ASSERT_TRUE(engine.Advance(CivilTime(1'600'100'000)).ok());
    EXPECT_EQ(engine.ingested_count(), 6u);
    // Counters are conserved across the degrade (the engine keeps the
    // poisoned writer it stopped using).
    EXPECT_EQ(engine.wal_retry_count(), 2u);
    EXPECT_EQ(engine.wal_transient_recovered_count(), 0u);
    const std::vector<int64_t> want_sleeps = {1, 2};
    EXPECT_EQ(env.sleep_log(), want_sleeps);
    EXPECT_TRUE(HasDegradedMarker(dir.string()));
    // Checkpointing a non-durable engine would freeze a lie.
    EXPECT_EQ(engine.Checkpoint().code(), StatusCode::kFailedPrecondition);
  }

  // Recovery refuses the directory: the log is not the whole run.
  StreamEngineConfig recover_config = config;
  recover_config.durability.io_env = nullptr;
  auto refused = StreamEngine::Recover(recover_config);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find(kDegradedMarkerName),
            std::string::npos)
      << "the refusal must name the marker: "
      << refused.status().ToString();

  // Deleting the marker is the operator's explicit acceptance of the
  // loss; recovery then serves the logged prefix.
  fs::remove(dir / kDegradedMarkerName);
  StreamEngine::RecoveryStats stats;
  auto recovered = StreamEngine::Recover(recover_config, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(stats.recovered_seq, 1u);
  EXPECT_FALSE((*recovered)->degraded())
      << "removing the marker restores a fully durable engine";
  ASSERT_TRUE((*recovered)->Advance(CivilTime(1'600'100'000)).ok());
  EXPECT_EQ((*recovered)->ingested_count(), 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// The gate: randomized FaultPlans × kill points. Invariant: recovery is
// bit-identical to the uninterrupted run, or loudly failed — a silent
// divergence is the one forbidden outcome.

struct Op {
  enum Kind : uint8_t { kIngest, kAdvance, kSnapshot, kDetect, kFlush };
  Kind kind = kIngest;
  TripEvent event{};
  int64_t watermark = 0;
};

/// Mirrors stream_durability_test.cc's script: every op appends exactly
/// one WAL record, so `ops[i]` ↔ WAL sequence `i + 1` and recovery's
/// `recovered_seq` is a resume index.
std::vector<Op> BuildOpScript(int64_t lateness, uint64_t seed) {
  auto jittered = JitterArrivalOrder(
      testing::PlantedStream(16, 3, /*days=*/2, /*trips_per_day=*/200, seed),
      /*shuffle_seconds=*/lateness, seed);
  std::vector<Op> ops;
  ops.reserve(jittered.events.size() + jittered.events.size() / 40 + 8);
  int64_t last_advance = INT64_MIN;
  for (size_t i = 0; i < jittered.events.size(); ++i) {
    Op op;
    op.kind = Op::kIngest;
    op.event = jittered.events[i];
    ops.push_back(op);
    if ((i + 1) % 60 == 0) {
      last_advance = std::max(last_advance + 1, jittered.report_seconds[i]);
      ops.push_back({Op::kAdvance, {}, last_advance});
      if ((i + 1) % 120 == 0) ops.push_back({Op::kSnapshot, {}, 0});
      if ((i + 1) % 240 == 0) ops.push_back({Op::kDetect, {}, 0});
    }
  }
  last_advance = std::max(last_advance + 1,
                          jittered.report_seconds.back() + lateness + 1);
  ops.push_back({Op::kAdvance, {}, last_advance});
  ops.push_back({Op::kFlush, {}, 0});
  ops.push_back({Op::kDetect, {}, 0});
  return ops;
}

/// Non-asserting ApplyOp: under fault injection any op may fail, and the
/// gate's job is to stop there and prove recovery, not to abort.
Status TryApplyOp(StreamEngine& engine, const Op& op) {
  switch (op.kind) {
    case Op::kIngest:
      return engine.Ingest(op.event);
    case Op::kAdvance:
      return engine.Advance(CivilTime(op.watermark));
    case Op::kSnapshot:
      return engine.Snapshot().status();
    case Op::kDetect:
      return engine.DetectCurrent().status();
    case Op::kFlush:
      return engine.Flush();
  }
  return Status::OK();
}

/// The bit-lock comparator from the durability suite: everything in the
/// checkpoint except the WAL position and freeze-path counters.
std::string ComparableState(const StreamEngine& engine) {
  EngineCheckpoint c = engine.CaptureState();
  c.wal_seq = 0;
  c.delta_freeze_count = 0;
  c.full_freeze_count = 0;
  return SerializeCheckpoint(c);
}

/// The engine the gate and the kill-point cases run the op script on.
StreamEngineConfig ScriptEngineConfig(int64_t lateness) {
  StreamEngineConfig base;
  base.station_count = 16;
  base.window_seconds = 86400;
  base.max_lateness_seconds = lateness;
  base.suppress_duplicate_rentals = true;
  base.detection.options.seed = 7;
  return base;
}

void RunFaultScheduleGate(bool transient_only, uint64_t seed_base,
                          const std::string& tag) {
  const int64_t lateness = 900;
  const std::vector<Op> ops = BuildOpScript(lateness, 5);
  const StreamEngineConfig base = ScriptEngineConfig(lateness);

  // The uninterrupted reference run, no durability.
  StreamEngine reference(base);
  for (const Op& op : ops) {
    const Status status = TryApplyOp(reference, op);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  Rng rng(seed_base * 1000003 + 29);
  size_t loud_failures = 0;
  const uint64_t trials = 5;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    SCOPED_TRACE(tag + " trial " + std::to_string(trial));
    const fs::path dir = FreshDir(tag + "_" + std::to_string(trial));

    FaultChaosConfig fault_config;
    fault_config.seed = seed_base + trial;
    fault_config.rules = 4;
    fault_config.max_burst = 3;
    fault_config.transient_only = transient_only;
    FaultInjectingIoEnv env(MakeRandomFaultPlan(fault_config));

    StreamEngineConfig durable = base;
    durable.durability.enabled = true;
    durable.durability.directory = dir.string();
    durable.durability.segment_bytes = 1 << 12;  // force rotations
    durable.durability.sync_interval_records = 16;
    durable.durability.io_env = &env;
    durable.durability.faults.max_retries = 4;  // >= max_burst
    durable.durability.faults.backoff_initial_ms = 1;

    const auto kill = static_cast<size_t>(rng.NextBounded(ops.size() + 1));
    const size_t checkpoint_every =
        120 + static_cast<size_t>(rng.NextBounded(120));
    size_t applied = 0;
    bool op_failed = false;
    {
      StreamEngine engine(durable);
      for (size_t i = 0; i < kill; ++i) {
        const Status status = TryApplyOp(engine, ops[i]);
        if (!status.ok()) {
          op_failed = true;
          ASSERT_FALSE(transient_only)
              << "a transient-only schedule with max_retries >= max_burst "
              << "must never surface a failure, got: " << status.ToString();
          break;
        }
        applied = i + 1;
        ASSERT_EQ(engine.wal_seq(), applied) << "op/seq mapping drifted";
        if (applied % checkpoint_every == 0) {
          // A failed checkpoint commit is loud to its caller but leaves
          // the previous checkpoint intact; the run continues. SyncWal()
          // waits for the background commit — after the rotation it
          // issues no I/O itself — so the commit's ops keep their place
          // in the global op order and the seeded schedule reproduces.
          Status ckpt = engine.Checkpoint();
          const Status committed = engine.SyncWal();
          if (ckpt.ok()) ckpt = committed;
          if (!ckpt.ok() && transient_only) {
            // Transient faults can still fail one commit attempt (the
            // checkpoint path retries only EINTR); the engine itself
            // must stay healthy, which the remaining ops prove.
            continue;
          }
        }
      }
      if (transient_only) {
        EXPECT_FALSE(engine.degraded());
        EXPECT_EQ(engine.wal_retry_count(),
                  static_cast<uint64_t>(env.sleep_log().size()))
            << "every budgeted retry slept exactly once on the virtual "
            << "clock — counters must be conserved";
      }
    }  // engine destroyed: best-effort flush, then the power cut

    env.SimulateCrash();

    StreamEngineConfig recover_config = durable;
    recover_config.durability.io_env = nullptr;  // clean environment
    StreamEngine::RecoveryStats stats;
    auto recovered = StreamEngine::Recover(recover_config, &stats);
    if (!recovered.ok()) {
      // Loud failure is an accepted outcome — but only for hostile
      // schedules, and it must be an error status, never a wrong engine.
      ASSERT_FALSE(transient_only)
          << "transient faults must never sink recovery: "
          << recovered.status().ToString();
      ++loud_failures;
      continue;
    }
    ASSERT_LE(stats.recovered_seq, applied);
    EXPECT_EQ((*recovered)->wal_seq(), stats.recovered_seq);

    // Resume exactly where the surviving log ends and finish the script
    // fault-free: the result must be bit-identical to the reference.
    for (size_t i = stats.recovered_seq; i < ops.size(); ++i) {
      const Status status = TryApplyOp(**recovered, ops[i]);
      ASSERT_TRUE(status.ok()) << "resume op " << i << ": "
                               << status.ToString();
    }
    EXPECT_EQ(ComparableState(**recovered), ComparableState(reference))
        << "silent divergence: recovery succeeded but the state is wrong";
    (void)op_failed;
    fs::remove_all(dir);
  }
  if (transient_only) {
    EXPECT_EQ(loud_failures, 0u);
  }
}

TEST(FaultScheduleGateTest, HostileSchedulesRecoverBitIdenticalOrLoud) {
  RunFaultScheduleGate(/*transient_only=*/false, /*seed_base=*/100,
                       "gate_hostile");
}

TEST(FaultScheduleGateTest, TransientSchedulesCompleteWithoutPoisoning) {
  RunFaultScheduleGate(/*transient_only=*/true, /*seed_base=*/200,
                       "gate_transient");
}

// ---------------------------------------------------------------------
// Kill points inside Checkpoint() and Recover(): the process dies right
// after its n-th I/O op, for every n the call issues. A second Recover()
// must still match the uninterrupted run bit for bit.

/// Passes every call through to a FaultInjectingIoEnv (thread-safe
/// itself); the environments below override the calls they intercept.
class ForwardingIoEnv : public IoEnv {
 public:
  explicit ForwardingIoEnv(FaultInjectingIoEnv* disk) : disk_(disk) {}

  int Open(const char* path, int flags, unsigned int mode) override {
    return disk_->Open(path, flags, mode);
  }
  int64_t Read(int fd, void* data, size_t size) override {
    return disk_->Read(fd, data, size);
  }
  int64_t Write(int fd, const void* data, size_t size) override {
    return disk_->Write(fd, data, size);
  }
  int Fsync(int fd) override { return disk_->Fsync(fd); }
  int Rename(const char* from, const char* to) override {
    return disk_->Rename(from, to);
  }
  int Unlink(const char* path) override { return disk_->Unlink(path); }
  int FsyncDir(const char* path) override { return disk_->FsyncDir(path); }
  int Truncate(int fd, int64_t size) override {
    return disk_->Truncate(fd, size);
  }
  int Close(int fd) override { return disk_->Close(fd); }
  int Mkdir(const char* path) override { return disk_->Mkdir(path); }
  void SleepMs(int64_t ms) override { disk_->SleepMs(ms); }

 protected:
  FaultInjectingIoEnv* disk_;
};

/// Lets `ops_allowed` I/O ops through to a FaultInjectingIoEnv, then fails
/// every later one with EIO without touching the disk, as if the process
/// had stopped there; SimulateCrash() on the inner environment then drops
/// what the dead process had not made durable. One lock, held across each
/// op, orders the writer's and the committer's ops, so "the first
/// `ops_allowed`" means the first to reach the disk.
class CrashAfterOpsEnv final : public ForwardingIoEnv {
 public:
  CrashAfterOpsEnv(FaultInjectingIoEnv* disk, uint64_t ops_allowed)
      : ForwardingIoEnv(disk), left_(ops_allowed) {}

  int Open(const char* path, int flags, unsigned int mode) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->Open(path, flags, mode) : Dead();
  }
  int64_t Write(int fd, const void* data, size_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->Write(fd, data, size) : Dead();
  }
  int Fsync(int fd) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->Fsync(fd) : Dead();
  }
  int Rename(const char* from, const char* to) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->Rename(from, to) : Dead();
  }
  int Unlink(const char* path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->Unlink(path) : Dead();
  }
  int FsyncDir(const char* path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->FsyncDir(path) : Dead();
  }
  int Truncate(int fd, int64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->Truncate(fd, size) : Dead();
  }
  int Mkdir(const char* path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return Alive() ? disk_->Mkdir(path) : Dead();
  }
  // Close, Read and SleepMs pass through: a dead process's descriptors
  // close all the same, and a read changes nothing a crash could tear.

  /// Ops that reached the disk.
  uint64_t ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }

 private:
  bool Alive() {
    if (left_ == 0) return false;
    --left_;
    ++ops_;
    return true;
  }
  static int Dead() {
    errno = EIO;
    return -1;
  }

  mutable std::mutex mu_;
  uint64_t left_;
  uint64_t ops_ = 0;
};

constexpr uint64_t kNoCrash = ~uint64_t{0};

StreamEngineConfig KillPointConfig(const fs::path& dir, IoEnv* env) {
  StreamEngineConfig config = ScriptEngineConfig(/*lateness=*/900);
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  config.durability.segment_bytes = 1 << 11;  // several per interval
  config.durability.sync_interval_records = 16;
  config.durability.io_env = env;
  return config;
}

/// Recovers `dir` in a clean environment, finishes the script and
/// compares with the uninterrupted run.
void ExpectRecoversToReference(const fs::path& dir, const std::vector<Op>& ops,
                               const std::string& want) {
  StreamEngine::RecoveryStats stats;
  auto recovered = StreamEngine::Recover(KillPointConfig(dir, nullptr), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(stats.replay_errors, 0u);
  for (size_t i = stats.recovered_seq; i < ops.size(); ++i) {
    const Status status = TryApplyOp(**recovered, ops[i]);
    ASSERT_TRUE(status.ok()) << "resume op " << i << ": " << status.ToString();
  }
  EXPECT_EQ(ComparableState(**recovered), want)
      << "recovered state diverged from the uninterrupted run";
}

std::string UninterruptedState(const std::vector<Op>& ops) {
  StreamEngine reference(ScriptEngineConfig(/*lateness=*/900));
  for (const Op& op : ops) {
    const Status status = TryApplyOp(reference, op);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  return ComparableState(reference);
}

constexpr size_t kKillCheckpointEvery = 100;

/// Runs ops [0, count) into a durable engine on `dir`, checkpointing every
/// kKillCheckpointEvery ops and waiting for each commit; returns the I/O
/// ops issued through `env` before the final checkpoint (at op `count`),
/// which is the call a crash interrupts, and by the end of the run. With
/// `ops_after` == 0 the run waits for the final commit too; otherwise it
/// applies up to `ops_after` more ops straight away, stopping at the
/// first failure, while the commit runs in the background.
void RunToCheckpoint(const std::vector<Op>& ops, size_t count,
                     const fs::path& dir, uint64_t ops_allowed,
                     size_t ops_after, uint64_t* before, uint64_t* after) {
  FaultInjectingIoEnv disk(FaultPlan{});
  CrashAfterOpsEnv env(&disk, ops_allowed);
  {
    StreamEngine engine(KillPointConfig(dir, &env));
    for (size_t i = 0; i < count; ++i) {
      const Status status = TryApplyOp(engine, ops[i]);
      ASSERT_TRUE(status.ok()) << status.ToString();
      if ((i + 1) % kKillCheckpointEvery == 0 && i + 1 < count) {
        ASSERT_TRUE(engine.Checkpoint().ok());
        ASSERT_TRUE(engine.SyncWal().ok());
      }
    }
    *before = env.ops();
    // Dies inside the rotation or the background commit when ops_allowed
    // runs out. SyncWal() waits for the commit and, right after a
    // rotation, issues no I/O of its own.
    const Status checkpointed = engine.Checkpoint();
    if (ops_after == 0) {
      (void)engine.SyncWal();
    } else if (checkpointed.ok()) {
      for (size_t i = count;
           i < count + ops_after && TryApplyOp(engine, ops[i]).ok(); ++i) {
      }
    }
  }  // the destructor lets the commit in flight finish (or die) first
  *after = env.ops();
  disk.SimulateCrash();
}

TEST(KillPointTest, CrashAfterEachIoOpOfCheckpoint) {
  const std::vector<Op> ops = BuildOpScript(/*lateness=*/900, 5);
  const std::string want = UninterruptedState(ops);
  // The third checkpoint rotates the WAL, drops the first checkpoint and
  // deletes the segments only that one still needed.
  const size_t count = 3 * kKillCheckpointEvery;
  ASSERT_LT(count, ops.size());
  uint64_t first_op = 0;
  uint64_t end_op = 0;
  const fs::path probe = FreshDir("kill_ckpt_probe");
  RunToCheckpoint(ops, count, probe, kNoCrash, /*ops_after=*/0, &first_op,
                  &end_op);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // The call rotated at seq 301 and pruned down to the checkpoints at 200
  // and 300 and the log past 200.
  EXPECT_EQ(SortedFiles(probe, ".ckpt").size(), 2u);
  const std::vector<fs::path> segments = SortedFiles(probe, ".log");
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().filename(), "wal-00000000000000000201.log");
  EXPECT_EQ(segments.back().filename(), "wal-00000000000000000301.log");
  fs::remove_all(probe);
  EXPECT_GE(end_op - first_op, 10u);
  for (uint64_t allowed = first_op; allowed <= end_op; ++allowed) {
    SCOPED_TRACE("crash after I/O op " + std::to_string(allowed));
    const fs::path dir = FreshDir("kill_ckpt");
    uint64_t before = 0;
    uint64_t after = 0;
    RunToCheckpoint(ops, count, dir, allowed, /*ops_after=*/0, &before,
                    &after);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_EQ(after, allowed);
    ExpectRecoversToReference(dir, ops, want);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    fs::remove_all(dir);
  }
}

// The same kill points with no barrier: the run checkpoints and goes
// straight on with the script, so the commit's ops interleave with the
// writer's appends, group fsyncs and size rotations however the two
// threads are scheduled. Wherever the crash lands, recovery must resume
// bit-identically.
TEST(KillPointTest, CrashAfterEachIoOpOfBackgroundCommitWhileIngesting) {
  const std::vector<Op> ops = BuildOpScript(/*lateness=*/900, 5);
  const std::string want = UninterruptedState(ops);
  const size_t count = 3 * kKillCheckpointEvery;
  const size_t ops_after = 64;
  ASSERT_LT(count + ops_after, ops.size());
  uint64_t first_op = 0;
  uint64_t end_op = 0;
  const fs::path probe = FreshDir("kill_commit_probe");
  RunToCheckpoint(ops, count, probe, kNoCrash, ops_after, &first_op, &end_op);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  fs::remove_all(probe);
  // The commit's ops plus the 64 ops' group fsyncs and rotations.
  EXPECT_GE(end_op - first_op, 20u);
  for (uint64_t allowed = first_op; allowed <= end_op; ++allowed) {
    SCOPED_TRACE("crash after I/O op " + std::to_string(allowed));
    const fs::path dir = FreshDir("kill_commit");
    uint64_t before = 0;
    uint64_t after = 0;
    RunToCheckpoint(ops, count, dir, allowed, ops_after, &before, &after);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_EQ(before, first_op);
    ASSERT_EQ(after, allowed);
    ExpectRecoversToReference(dir, ops, want);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    fs::remove_all(dir);
  }
}

/// Crashes a Recover() of a copy of `tmpl` after each of its I/O ops, then
/// recovers again and compares with the uninterrupted run. `stats`
/// receives what an uninterrupted Recover() of the template did.
void RunRecoverKillPoints(const fs::path& tmpl, const std::vector<Op>& ops,
                          const std::string& want, const std::string& tag,
                          StreamEngine::RecoveryStats* stats) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("bg_fault_" + tag);
  const auto copy_template = [&] {
    fs::remove_all(dir);
    fs::copy(tmpl, dir, fs::copy_options::recursive);
  };
  uint64_t total = 0;
  {
    copy_template();
    FaultInjectingIoEnv disk(FaultPlan{});
    CrashAfterOpsEnv env(&disk, kNoCrash);
    auto recovered = StreamEngine::Recover(KillPointConfig(dir, &env), stats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    total = env.ops();
  }
  for (uint64_t allowed = 0; allowed <= total; ++allowed) {
    SCOPED_TRACE(tag + ": crash after I/O op " + std::to_string(allowed));
    copy_template();
    FaultInjectingIoEnv disk(FaultPlan{});
    CrashAfterOpsEnv env(&disk, allowed);
    // The result, and any engine in it, is gone before the power cut.
    (void)StreamEngine::Recover(KillPointConfig(dir, &env));
    disk.SimulateCrash();
    ExpectRecoversToReference(dir, ops, want);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  fs::remove_all(dir);
}

TEST(KillPointTest, CrashAfterEachIoOpOfRecoverRepairAndReattach) {
  const std::vector<Op> ops = BuildOpScript(/*lateness=*/900, 5);
  const std::string want = UninterruptedState(ops);
  // A run stopped 50 ops past its second checkpoint.
  const fs::path tmpl = FreshDir("kill_recover_template");
  {
    StreamEngine engine(KillPointConfig(tmpl, nullptr));
    for (size_t i = 0; i < 250; ++i) {
      const Status status = TryApplyOp(engine, ops[i]);
      ASSERT_TRUE(status.ok()) << status.ToString();
      if ((i + 1) % kKillCheckpointEvery == 0) {
        ASSERT_TRUE(engine.Checkpoint().ok());
      }
    }
  }
  StreamEngine::RecoveryStats stats;

  // A crash mid-rotation: the next segment never got its header.
  const fs::path header_torn = tmpl / "wal-00000000000000000251.log";
  { std::ofstream(header_torn, std::ios::binary) << "BGWAL"; }
  RunRecoverKillPoints(tmpl, ops, want, "kill_recover_header", &stats);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(stats.truncated_bytes, 5u);
  EXPECT_EQ(stats.recovered_seq, 250u);

  // A crash mid-append: the tail's last frame is torn.
  fs::remove(header_torn);
  const std::vector<fs::path> segments = SortedFiles(tmpl, ".log");
  fs::resize_file(segments.back(), fs::file_size(segments.back()) - 3);
  RunRecoverKillPoints(tmpl, ops, want, "kill_recover_frame", &stats);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.recovered_seq, 249u);
  fs::remove_all(tmpl);
}

TEST(KillPointTest, CrashAfterEachIoOpOfRecoverReset) {
  const std::vector<Op> ops = BuildOpScript(/*lateness=*/900, 5);
  const std::string want = UninterruptedState(ops);
  // The checkpoint covers seq 100 but the log kept records 1-60 only, as
  // a lying fsync leaves it: Recover deletes the segments and starts a
  // fresh one.
  const fs::path tmpl = FreshDir("kill_reset_template");
  {
    StreamEngine engine(KillPointConfig(tmpl, nullptr));
    for (size_t i = 0; i < 60; ++i) {
      const Status status = TryApplyOp(engine, ops[i]);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }
  StreamEngine reference(ScriptEngineConfig(/*lateness=*/900));
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(TryApplyOp(reference, ops[i]).ok());
  }
  EngineCheckpoint checkpoint = reference.CaptureState();
  checkpoint.wal_seq = 100;
  ASSERT_TRUE(WriteCheckpoint(tmpl.string(), checkpoint).ok());
  ASSERT_GE(SortedFiles(tmpl, ".log").size(), 2u);

  StreamEngine::RecoveryStats stats;
  RunRecoverKillPoints(tmpl, ops, want, "kill_recover_reset", &stats);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(stats.checkpoint_seq, 100u);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(stats.recovered_seq, 100u);
  fs::remove_all(tmpl);
}

// ---------------------------------------------------------------------
// The background checkpoint committer: where its failures surface, what
// the destructor waits for, and prunes racing the writer's self-heal.

/// Ingests event `id`: station id % 8 to (id + 3) % 8, at minute `id`.
Status IngestEvent(StreamEngine& engine, int64_t id) {
  return engine.Ingest(MakeEvent(id, static_cast<int32_t>(id % 8),
                                 static_cast<int32_t>((id + 3) % 8),
                                 1'600'000'000 + id * 60));
}

/// Polls `done` for up to 10 s; false if it never held.
template <typename Done>
bool EventuallyTrue(Done done) {
  for (int i = 0; i < 10'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(CommitterTest, FailedCommitIsReportedOnceAndIsNoPoison) {
  const fs::path dir = FreshDir("commit_failure");
  FaultInjectingIoEnv env(FaultPlan{});
  StreamEngine engine(SmallEngineConfig(dir, &env));
  int64_t id = 0;
  // Fails the next rename, the atomic step of the next commit; the failed
  // commit then unlinks its temp, its last op.
  const auto fail_next_commit = [&env] {
    FaultPlan::Rule rule;
    rule.op = IoOp::kRename;
    rule.kind = FaultPlan::Kind::kError;
    rule.after = env.op_count(IoOp::kRename);
    rule.count = 1;
    rule.error = EACCES;
    env.AddRule(rule);
    return env.op_count(IoOp::kUnlink) + 1;
  };
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(IngestEvent(engine, ++id).ok());

  const uint64_t cleaned = fail_next_commit();
  ASSERT_TRUE(engine.Checkpoint().ok()) << "the commit runs in the background";
  ASSERT_TRUE(EventuallyTrue(
      [&] { return env.op_count(IoOp::kUnlink) >= cleaned; }));
  // The data path never reports it.
  EXPECT_TRUE(IngestEvent(engine, ++id).ok());
  EXPECT_TRUE(engine.Advance(CivilTime(1'600'000'000 + id * 60)).ok());
  EXPECT_TRUE(engine.Snapshot().ok());
  EXPECT_TRUE(engine.DetectCurrent().ok());
  // SyncWal() does, once.
  EXPECT_EQ(engine.SyncWal().code(), StatusCode::kIOError);
  EXPECT_TRUE(engine.SyncWal().ok()) << "a commit failure is reported once";
  EXPECT_EQ(CountByExtension(dir, ".ckpt"), 0u);
  EXPECT_EQ(CountByExtension(dir, ".tmp"), 0u);

  // Or the next Checkpoint() does, and starts no checkpoint: no rotation.
  (void)fail_next_commit();
  ASSERT_TRUE(engine.Checkpoint().ok());
  ASSERT_TRUE(IngestEvent(engine, ++id).ok());
  const size_t segments = CountByExtension(dir, ".log");
  const uint64_t wal_seq = engine.wal_seq();
  EXPECT_EQ(engine.Checkpoint().code(), StatusCode::kIOError);
  EXPECT_EQ(CountByExtension(dir, ".log"), segments);
  EXPECT_TRUE(engine.SyncWal().ok()) << "a commit failure is reported once";

  // Not a poison: the engine stays durable and the next commit lands.
  EXPECT_FALSE(engine.degraded());
  ASSERT_TRUE(IngestEvent(engine, ++id).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  ASSERT_TRUE(engine.SyncWal().ok());
  EXPECT_EQ(CountByExtension(dir, ".ckpt"), 1u);
  auto loaded = LoadNewestCheckpoint(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->checkpoint.wal_seq, wal_seq + 1);
  fs::remove_all(dir);
}

TEST(CommitterTest, DestroyingTheEngineRightAfterCheckpointCommitsIt) {
  // Three checkpoints, at seq 10, 20 and 30. The last commit writes
  // ckpt 30, prunes ckpt 10 and the segment only it needed (from seq 11).
  const auto run = [](const fs::path& dir, bool wait_for_last_commit) {
    {
      StreamEngine engine(SmallEngineConfig(dir, nullptr));
      int64_t id = 0;
      for (int checkpoint = 0; checkpoint < 3; ++checkpoint) {
        for (int i = 0; i < 10; ++i) EXPECT_TRUE(IngestEvent(engine, ++id).ok());
        EXPECT_TRUE(engine.Checkpoint().ok());
        if (checkpoint < 2 || wait_for_last_commit) {
          EXPECT_TRUE(engine.SyncWal().ok());
        }
      }
    }
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const fs::path waited_dir = FreshDir("commit_waited");
  const fs::path dropped_dir = FreshDir("commit_dropped");
  const std::vector<std::string> want = {
      "ckpt-00000000000000000020.ckpt", "ckpt-00000000000000000030.ckpt",
      "wal-00000000000000000021.log", "wal-00000000000000000031.log"};
  EXPECT_EQ(run(waited_dir, true), want);
  EXPECT_EQ(run(dropped_dir, false), want);
  fs::remove_all(waited_dir);
  fs::remove_all(dropped_dir);
}

/// Holds the committer's first WAL segment unlink until Release(); every
/// other call, and every call from the thread that built it, passes
/// straight through.
class HoldCommitterUnlinkEnv final : public ForwardingIoEnv {
 public:
  explicit HoldCommitterUnlinkEnv(FaultInjectingIoEnv* disk)
      : ForwardingIoEnv(disk), writer_(std::this_thread::get_id()) {}

  int Unlink(const char* path) override {
    if (std::this_thread::get_id() != writer_ &&
        std::string(path).find("wal-") != std::string::npos) {
      std::unique_lock<std::mutex> lock(mu_);
      if (held_path_.empty()) {
        held_path_ = path;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    return disk_->Unlink(path);
  }

  /// The path the committer is held on, once it is (empty after 10 s).
  std::string AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10),
                 [this] { return !held_path_.empty(); });
    return held_path_;
  }
  /// Lets the held unlink, and any later one, through.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  const std::thread::id writer_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string held_path_;
  bool released_ = false;
};

TEST(CommitterTest, EnospcSelfHealOverlapsTheCommittersPrune) {
  const fs::path dir = FreshDir("heal_overlap");
  FaultInjectingIoEnv disk(FaultPlan{});
  HoldCommitterUnlinkEnv env(&disk);
  {
    StreamEngine engine(SmallEngineConfig(dir, &env));
    int64_t id = 0;
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(IngestEvent(engine, ++id).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.SyncWal().ok());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(IngestEvent(engine, ++id).ok());
    // With two checkpoints on disk this commit prunes the log through
    // seq 10; it stops at its first segment unlink.
    ASSERT_TRUE(engine.Checkpoint().ok());
    const std::string held = env.AwaitHeld();
    EXPECT_NE(held.find("wal-00000000000000000001.log"), std::string::npos)
        << held;
    // Meanwhile the writer runs out of disk: its self-heal prunes by the
    // same bound and removes that segment first. (The self-heal ignores
    // its own prune's errors by design, so only the committer's side can
    // report one.)
    FaultPlan::Rule full;
    full.op = IoOp::kWrite;
    full.kind = FaultPlan::Kind::kError;
    full.after = disk.op_count(IoOp::kWrite);
    full.count = 1;
    full.error = ENOSPC;
    disk.AddRule(full);
    EXPECT_TRUE(IngestEvent(engine, ++id).ok()) << "the self-heal freed disk";
    EXPECT_EQ(engine.wal_enospc_prune_count(), 1u);
    EXPECT_FALSE(fs::exists(dir / "wal-00000000000000000001.log"));
    env.Release();
    // The committer finds the segment gone and counts it pruned.
    EXPECT_TRUE(engine.SyncWal().ok());
    EXPECT_EQ(SortedFiles(dir, ".ckpt").size(), 2u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bikegraph::stream
