// Durability: WAL framing and torn-tail repair, crash-consistent
// checkpoints, and the headline lock — an engine killed at a randomized
// point and recovered (checkpoint + WAL replay) must be bit-identical to
// the uninterrupted run, for sliding and landmark windows alike.

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/civil_time.h"
#include "core/io_env.h"
#include "core/rng.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/testing.h"
#include "stream/wal.h"

#include <gtest/gtest.h>

namespace bikegraph::stream {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("bg_dur_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<fs::path> SortedFiles(const fs::path& dir,
                                  const std::string& extension) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == extension) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void FlipByteAt(const fs::path& path, int64_t offset_from_end) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(0, std::ios::end);
  const int64_t size = file.tellg();
  ASSERT_GT(size, offset_from_end);
  file.seekg(size - offset_from_end);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(size - offset_from_end);
  file.write(&byte, 1);
}

/// Reads the log past `after_seq`, collecting the visited records.
Result<WalReadResult> ReadRecords(const fs::path& dir, bool repair_torn_tail,
                                  std::vector<WalRecord>* records,
                                  uint64_t after_seq = 0) {
  return ReadWal(dir.string(), repair_torn_tail, after_seq,
                 [records](const WalRecord& record) {
                   records->push_back(record);
                 });
}

// ---------------------------------------------------------------------
// CRC32C + WAL unit coverage.

/// The byte-at-a-time table CRC32C: the reference the sliced Crc32c must
/// match on every length, alignment and seed.
uint32_t ReferenceCrc32c(const unsigned char* p, size_t size, uint32_t seed) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    table[i] = crc;
  }
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswer) {
  // RFC 3720 check value for the Castagnoli polynomial.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Seed chaining: CRC of a split buffer equals CRC of the whole.
  const uint32_t whole = Crc32c("123456789", 9);
  EXPECT_EQ(Crc32c("6789", 4, Crc32c("12345", 5)), whole);

  // Randomized against the byte-at-a-time reference: every length 0-64
  // and a checkpoint-sized 249 KB buffer, at each start offset 0-7, with
  // random seeds, and chained across a random split.
  Rng rng(0xC5C32C);
  std::vector<unsigned char> buffer(249'000 + 8);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextBounded(256));
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(249'000);
  for (const size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      SCOPED_TRACE("length " + std::to_string(n) + " offset " +
                   std::to_string(offset));
      const unsigned char* p = buffer.data() + offset;
      const auto seed = static_cast<uint32_t>(rng.NextBounded(1ull << 32));
      const uint32_t want = ReferenceCrc32c(p, n, seed);
      ASSERT_EQ(Crc32c(p, n, seed), want);
      const size_t split = static_cast<size_t>(rng.NextBounded(n + 1));
      ASSERT_EQ(Crc32c(p + split, n - split, Crc32c(p, split, seed)), want);
    }
  }
}

TEST(WalTest, RoundTripsEveryRecordType) {
  const fs::path dir = FreshDir("roundtrip");
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();

  TripEvent event;
  event.rental_id = 77;
  event.from_station = 3;
  event.to_station = 9;
  event.start_time = CivilTime(1'600'000'123);
  event.end_time = CivilTime(1'600'000'999);
  community::DetectSpec spec;
  spec.options.seed = 42;
  spec.options.resolution = 1.5;
  spec.options.max_levels = 3;
  spec.options.min_gain = 0.25;

  {
    auto writer = WalWriter::Open(config, /*next_seq=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalRecord record;
    record.type = WalRecordType::kEvent;
    record.event = event;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kAdvance;
    record.watermark_seconds = 1'600'003'600;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kSnapshot;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kDetect;
    record.default_spec = true;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kDetect;
    record.default_spec = false;
    record.spec = spec;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kFlush;
    ASSERT_TRUE((*writer)->Append(record).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->next_seq(), 7u);
  }

  std::vector<WalRecord> records;
  auto read = ReadRecords(dir, /*repair_torn_tail=*/false, &records);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(read->last_seq, 6u);
  EXPECT_EQ(read->truncated_bytes, 0u);
  const WalRecord& r0 = records[0];
  EXPECT_EQ(r0.type, WalRecordType::kEvent);
  EXPECT_EQ(r0.event.rental_id, event.rental_id);
  EXPECT_EQ(r0.event.from_station, event.from_station);
  EXPECT_EQ(r0.event.to_station, event.to_station);
  EXPECT_EQ(r0.event.start_time, event.start_time);
  EXPECT_EQ(r0.event.end_time, event.end_time);
  EXPECT_EQ(records[1].type, WalRecordType::kAdvance);
  EXPECT_EQ(records[1].watermark_seconds, 1'600'003'600);
  EXPECT_EQ(records[2].type, WalRecordType::kSnapshot);
  EXPECT_EQ(records[3].type, WalRecordType::kDetect);
  EXPECT_TRUE(records[3].default_spec);
  const WalRecord& r4 = records[4];
  EXPECT_EQ(r4.type, WalRecordType::kDetect);
  EXPECT_FALSE(r4.default_spec);
  EXPECT_EQ(r4.spec.algorithm, spec.algorithm);
  EXPECT_EQ(r4.spec.options.seed, spec.options.seed);
  EXPECT_EQ(r4.spec.options.resolution, spec.options.resolution);
  EXPECT_EQ(r4.spec.options.max_levels, spec.options.max_levels);
  EXPECT_EQ(r4.spec.options.min_gain, spec.options.min_gain);
  EXPECT_EQ(records[5].type, WalRecordType::kFlush);
  fs::remove_all(dir);
}

// The frame encoding is an on-disk format: one event record's segment,
// byte for byte (20-byte segment header, then length 33, CRC32C and the
// little-endian payload: type, rental id, endpoints, start and end).
TEST(WalTest, EventFrameBytesArePinned) {
  const fs::path dir = FreshDir("frame_bytes");
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  {
    auto writer = WalWriter::Open(config, /*next_seq=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalRecord record;
    record.type = WalRecordType::kEvent;
    record.event.rental_id = 77;
    record.event.from_station = 3;
    record.event.to_station = 9;
    record.event.start_time = CivilTime(1'600'000'123);
    record.event.end_time = CivilTime(1'600'000'999);
    ASSERT_TRUE((*writer)->Append(record).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::vector<unsigned char> want = {
      0x42, 0x47, 0x57, 0x41, 0x4c, 0x31, 0x0a, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x6b, 0x05, 0xda, 0x17, 0x21, 0x00, 0x00, 0x00,
      0x16, 0x25, 0x56, 0xda, 0x01, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x03, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x7b, 0x10, 0x5e,
      0x5f, 0x00, 0x00, 0x00, 0x00, 0xe7, 0x13, 0x5e, 0x5f, 0x00, 0x00, 0x00,
      0x00};
  const auto segments = SortedFiles(dir, ".log");
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0], std::ios::binary);
  const std::vector<unsigned char> got((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want);
  fs::remove_all(dir);
}

/// Lower-case hex of `bytes`, two digits a byte.
std::string ToHex(const std::string& bytes) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex += kDigits[static_cast<unsigned char>(c) >> 4];
    hex += kDigits[static_cast<unsigned char>(c) & 0xF];
  }
  return hex;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Every other record type's frame, pinned in one segment: kAdvance (type,
// watermark), kFlush and kSnapshot (type only), a default-spec kDetect
// (type, default_spec 1) and an explicit-spec one (type, default_spec 0,
// then algorithm, seed, resolution, max_levels, max_sweeps_per_level and
// max_iterations as a has-value byte and an i32 slot, max_merges, and
// min_gain and min_improvement as a has-value byte and a double slot).
TEST(WalTest, EveryRecordTypeFrameBytesArePinned) {
  const fs::path dir = FreshDir("frame_types");
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  {
    auto writer = WalWriter::Open(config, /*next_seq=*/5);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalRecord record;
    record.type = WalRecordType::kAdvance;
    record.watermark_seconds = 1'600'003'600;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kFlush;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kSnapshot;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kDetect;
    ASSERT_TRUE((*writer)->Append(record).ok());
    record = WalRecord{};
    record.type = WalRecordType::kDetect;
    record.default_spec = false;
    record.spec.algorithm = community::AlgorithmId::kLabelPropagation;
    record.spec.options.seed = 42;
    record.spec.options.resolution = 1.5;
    record.spec.options.max_levels = 3;
    record.spec.options.max_iterations = -7;
    record.spec.options.max_merges = 5;
    record.spec.options.min_gain = 0.25;
    ASSERT_TRUE((*writer)->Append(record).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::string want_hex =
      "424757414c310a0005000000000000000687c7360900000014ca876702101e5e"
      "5f0000000001000000a5a02d4103010000004ec4e79504020000007a0d225e05"
      "013f0000004370a9430500010000002a00000000000000000000000000f83f01"
      "03000000000000000001f9ffffff050000000000000001000000000000d03f00"
      "0000000000000000";
  const auto segments = SortedFiles(dir, ".log");
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(ToHex(ReadFileBytes(segments[0])), want_hex);
  fs::remove_all(dir);
}

// A record the log could not read back is refused, not acknowledged:
// nothing reaches the segment, its sequence number is not spent, and the
// writer keeps appending.
TEST(WalTest, AppendRefusesAnUnknownRecordType) {
  const fs::path dir = FreshDir("unknown_type");
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  {
    auto writer = WalWriter::Open(config, /*next_seq=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalRecord unknown;
    unknown.type = static_cast<WalRecordType>(99);
    const Status refused = (*writer)->Append(unknown);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << refused.ToString();
    EXPECT_NE(refused.message().find("99"), std::string::npos)
        << refused.ToString();
    EXPECT_EQ((*writer)->next_seq(), 1u);
    WalRecord advance;
    advance.type = WalRecordType::kAdvance;
    advance.watermark_seconds = 1234;
    ASSERT_TRUE((*writer)->Append(advance).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->next_seq(), 2u);
  }
  std::vector<WalRecord> records;
  auto read = ReadRecords(dir, /*repair_torn_tail=*/false, &records);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kAdvance);
  EXPECT_EQ(records[0].watermark_seconds, 1234);
  EXPECT_EQ(read->last_seq, 1u);
  EXPECT_EQ(read->truncated_bytes, 0u);
  fs::remove_all(dir);
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  const fs::path dir = FreshDir("torn");
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  {
    auto writer = WalWriter::Open(config, 1);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      WalRecord record;
      record.type = WalRecordType::kAdvance;
      record.watermark_seconds = 1000 + i;
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
  }
  auto segments = SortedFiles(dir, ".log");
  ASSERT_EQ(segments.size(), 1u);
  // Tear three bytes off the tail — a crash mid-append.
  fs::resize_file(segments[0], fs::file_size(segments[0]) - 3);

  std::vector<WalRecord> records;
  auto read = ReadRecords(dir, /*repair_torn_tail=*/true, &records);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(read->last_seq, 4u);
  EXPECT_GT(read->truncated_bytes, 0u);

  // The repair ftruncated the torn bytes away: a second read is clean.
  records.clear();
  auto again = ReadRecords(dir, /*repair_torn_tail=*/false, &records);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(again->truncated_bytes, 0u);
  fs::remove_all(dir);
}

TEST(WalTest, CorruptionAwayFromTailIsDataLoss) {
  const fs::path dir = FreshDir("midrot");
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  config.segment_bytes = 1;  // rotate before every append after the first
  {
    auto writer = WalWriter::Open(config, 1);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 4; ++i) {
      WalRecord record;
      record.type = WalRecordType::kAdvance;
      record.watermark_seconds = i;
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
    EXPECT_EQ((*writer)->segments_opened(), 4u);
  }
  auto segments = SortedFiles(dir, ".log");
  ASSERT_EQ(segments.size(), 4u);
  FlipByteAt(segments[1], 1);  // corrupt a non-tail segment's payload
  std::vector<WalRecord> records;
  auto read = ReadRecords(dir, /*repair_torn_tail=*/true, &records);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  fs::remove_all(dir);
}

TEST(WalTest, RotationKeepsSequenceAndPruneRespectsBound) {
  const fs::path dir = FreshDir("rotate");
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  config.segment_bytes = 1;
  {
    auto writer = WalWriter::Open(config, 1);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 6; ++i) {
      WalRecord record;
      record.type = WalRecordType::kAdvance;
      record.watermark_seconds = i;
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
  }
  ASSERT_EQ(SortedFiles(dir, ".log").size(), 6u);
  std::vector<WalRecord> records;
  auto read = ReadRecords(dir, false, &records);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->last_seq, 6u);
  EXPECT_EQ(read->segment_count, 6u);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].watermark_seconds, 0);

  // A reader that already holds seqs 1-3 opens only the segments past
  // them and is handed only records 4-6.
  records.clear();
  auto past = ReadRecords(dir, false, &records, /*after_seq=*/3);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(past->last_seq, 6u);
  EXPECT_EQ(past->segment_count, 3u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].watermark_seconds, 3);

  // Pruning through seq 3 keeps every segment a replay from 4 needs.
  uint64_t pruned = 0;
  ASSERT_TRUE(PruneWalSegments(dir.string(), 3, &pruned).ok());
  EXPECT_EQ(pruned, 3u);
  records.clear();
  auto tail = ReadRecords(dir, false, &records, /*after_seq=*/3);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->last_seq, 6u);
  EXPECT_EQ(tail->segment_count, 3u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].watermark_seconds, 3);
  // A reader that holds nothing cannot continue from seq 4: a hole.
  auto hole = ReadRecords(dir, false, &records);
  ASSERT_FALSE(hole.ok());
  EXPECT_EQ(hole.status().code(), StatusCode::kDataLoss);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Checkpoint unit coverage.

EngineCheckpoint SampleCheckpoint() {
  EngineCheckpoint c;
  c.wal_seq = 41;
  c.station_count = 4;
  c.window_seconds = 3600;
  c.max_lateness_seconds = 60;
  c.late_policy = LateEventPolicy::kError;
  c.suppress_duplicates = true;
  c.flushed = false;
  c.snapshot_clean = true;
  c.publisher_epoch = 3;
  c.published_window_start_seconds = 100;
  c.published_window_end_seconds = 4200;
  c.delta_freeze_count = 2;
  c.full_freeze_count = 1;
  c.desyncs_published = 0;
  c.tracker.refresh_count = 2;
  c.tracker.previous_modularity = 0.4375;
  community::Partition partition;
  partition.assignment = {0, 0, 1, 1};
  c.tracker.previous_partition = std::move(partition);
  // Two shards, each with its own applied counter and components.
  c.shards.resize(2);
  EngineCheckpoint::Shard& first = c.shards[0];
  first.applied = 7;
  first.reorder.watermark_seconds = 4200;
  first.reorder.reordered_count = 5;
  first.reorder.released_count = 11;
  TripEvent buffered;
  buffered.rental_id = 9;
  buffered.from_station = 1;
  buffered.to_station = 2;
  buffered.start_time = CivilTime(4199);
  buffered.end_time = CivilTime(4300);
  first.reorder.buffered.push_back(buffered);
  first.reorder.seen.emplace_back(4199, 9);
  first.window.watermark_seconds = 4200;
  first.window.last_event_seconds = 4190;
  first.window.ingested_count = 11;
  first.window.live_count = 1;
  first.window.ring.push_back({4190, 1, 2});
  EngineCheckpoint::Shard& second = c.shards[1];
  second.applied = 5;
  second.reorder.watermark_seconds = 4100;
  second.reorder.released_count = 4;
  second.window.watermark_seconds = 4100;
  second.window.last_event_seconds = 4090;
  second.window.ingested_count = 4;
  second.window.live_count = 1;
  second.window.ring.push_back({4090, 0, 3});
  return c;
}

TEST(CheckpointTest, SerializeParseRoundTrip) {
  const EngineCheckpoint original = SampleCheckpoint();
  const std::string bytes = SerializeCheckpoint(original);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeCheckpoint(*parsed), bytes);
  ASSERT_EQ(parsed->shards.size(), 2u);
  EXPECT_EQ(parsed->shards[0].applied, 7u);
  EXPECT_EQ(parsed->shards[1].applied, 5u);
  EXPECT_EQ(parsed->shards[1].window.ring.size(), 1u);

  // Truncation and trailing garbage are both DataLoss, not UB.
  EXPECT_FALSE(ParseCheckpoint(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(ParseCheckpoint(bytes + 'x').ok());
  EXPECT_FALSE(ParseCheckpoint("").ok());

  // A default checkpoint holds one shard and round-trips too: its trailer
  // is the shard count 1 and one applied counter.
  const EngineCheckpoint single;
  const std::string single_bytes = SerializeCheckpoint(single);
  auto single_parsed = ParseCheckpoint(single_bytes);
  ASSERT_TRUE(single_parsed.ok()) << single_parsed.status().ToString();
  ASSERT_EQ(single_parsed->shards.size(), 1u);
  EXPECT_EQ(single_parsed->shards[0].applied, 0u);
  EXPECT_EQ(SerializeCheckpoint(*single_parsed), single_bytes);
}

// The checkpoint payload is an on-disk format too: a 3-station landmark
// engine after four trips and one freeze, byte for byte. Its window block
// carries the pairs (0, 1), (1, 2) and (2, 2) as (key, trips), keys
// strictly ascending, then the day, hour and endpoint counters.
TEST(CheckpointTest, LandmarkPayloadBytesArePinned) {
  StreamEngineConfig config;
  config.station_count = 3;
  config.window_seconds = 0;
  StreamEngine engine(config);
  const int32_t trips[][2] = {{0, 1}, {1, 0}, {2, 2}, {2, 1}};
  int64_t id = 0;
  for (const auto& [from, to] : trips) {
    TripEvent event;
    event.rental_id = ++id;
    event.from_station = from;
    event.to_station = to;
    event.start_time = CivilTime(1'600'000'000 + (id - 1) * 3600);
    event.end_time = event.start_time.AddSeconds(600);
    ASSERT_TRUE(engine.Ingest(event).ok());
  }
  ASSERT_TRUE(engine.Snapshot().ok());
  const std::string want_hex =
      "0000000000000000030000000000000000000000000000000000000000000000"
      "0100000101000000000000000000000000000080303a5e5f0000000000000000"
      "0000000001000000000000000000000000000000303a5e5f0000000000000000"
      "0000000000000000000000000000000000000000000400000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000303a5e"
      "5f00000000303a5e5f0000000004000000000000000000000000000000040000"
      "0000000000000000000000000003000000000000000100000000000000020000"
      "0000000000020000000100000001000000000000000200000002000000010000"
      "0000000000030000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000020000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000300000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000003000000000000000300000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000010000"
      "0000000000010000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000010000"
      "0000000000010000000000000000000000000000000100000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000002000000000000000100000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000030000"
      "0000000000020000000000000003000000000000000300000000000000000000"
      "0000000000000000000000000000000000000000000001000000000000000400"
      "000000000000";
  const std::string bytes = SerializeCheckpoint(engine.CaptureState());
  std::string got_hex;
  for (const char c : bytes) {
    constexpr char kDigits[] = "0123456789abcdef";
    got_hex += kDigits[static_cast<unsigned char>(c) >> 4];
    got_hex += kDigits[static_cast<unsigned char>(c) & 0xF];
  }
  EXPECT_EQ(got_hex, want_hex);
}

/// The payload of a 3-station sliding-window engine with a 600 s reorder
/// horizon and duplicate suppression, after five trips (one out of
/// order), one redelivery and one freeze: two trips released into the
/// ring, three still buffered, five ids seen.
std::string PinnedSlidingPayload(size_t shard_count) {
  StreamEngineConfig config;
  config.station_count = 3;
  config.window_seconds = 7200;
  config.max_lateness_seconds = 600;
  config.suppress_duplicate_rentals = true;
  config.shard_count = shard_count;
  StreamEngine engine(config);
  // (rental id, from, to, start offset); id 5 arrives after a later
  // start and id 4 is redelivered.
  const int64_t trips[][4] = {{1, 0, 1, 0},    {2, 1, 2, 300},
                              {3, 2, 0, 1000}, {4, 0, 0, 1500},
                              {5, 1, 1, 1400}, {4, 0, 0, 1500}};
  for (const auto& [id, from, to, offset] : trips) {
    TripEvent event;
    event.rental_id = id;
    event.from_station = static_cast<int32_t>(from);
    event.to_station = static_cast<int32_t>(to);
    event.start_time = CivilTime(1'600'000'000 + offset);
    event.end_time = event.start_time.AddSeconds(600);
    const Status ingested = engine.Ingest(event);
    EXPECT_TRUE(ingested.ok()) << ingested.ToString();
  }
  EXPECT_TRUE(engine.Snapshot().ok());
  return SerializeCheckpoint(engine.CaptureState());
}

// A single-shard sliding payload: the reorder block with its buffered
// events and seen ids, the window block with its ring (and no landmark
// aggregates), the tracker, and the trailer (shard count 1, one applied
// counter).
TEST(CheckpointTest, SlidingPayloadBytesArePinned) {
  const std::string want_hex =
      "00000000000000000300000000000000201c0000000000005802000000000000"
      "0101000101000000000000000cf55d5f000000002c115e5f0000000000000000"
      "0000000001000000000000000000000000000000dc155e5f0000000000010000"
      "0000000000000000000000000001000000000000000200000000000000030000"
      "0000000000000000000000000003000000000000000300000000000000020000"
      "0000000000e8135e5f0000000040165e5f000000000500000000000000010000"
      "000100000078155e5f00000000d0175e5f000000000400000000000000000000"
      "0000000000dc155e5f0000000034185e5f000000000300000000000000e8135e"
      "5f00000000030000000000000078155e5f000000000500000000000000dc155e"
      "5f0000000004000000000000002c115e5f000000002c115e5f00000000020000"
      "000000000000000000000000000200000000000000020000000000000000105e"
      "5f0000000000000000010000002c115e5f000000000100000002000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000001000000000000000600"
      "000000000000";
  EXPECT_EQ(ToHex(PinnedSlidingPayload(1)), want_hex);
}

// A 3-shard payload: shard 0's blocks where a single-shard payload keeps
// them, then the trailer: the shard count, each shard's applied counter,
// and shards 1 and 2's reorder and window blocks.
TEST(CheckpointTest, ShardedPayloadBytesArePinned) {
  const std::string want_hex =
      "00000000000000000300000000000000201c0000000000005802000000000000"
      "0101000101000000000000000cf55d5f000000002c115e5f0000000000000000"
      "0000000001000000000000000000000000000000dc155e5f0000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "00000000000000000000000000000000000000000000000000000000002c115e"
      "5f00000000000000000000008000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000300000000000000020000000000000006000000000000000400"
      "000000000000dc155e5f00000000000000000000000000000000000000000001"
      "0000000000000001000000000000000200000000000000000000000000000002"
      "0000000000000003000000000000000200000000000000e8135e5f0000000040"
      "165e5f0000000004000000000000000000000000000000dc155e5f0000000034"
      "185e5f000000000200000000000000e8135e5f000000000300000000000000dc"
      "155e5f0000000004000000000000002c115e5f0000000000105e5f0000000001"
      "0000000000000000000000000000000100000000000000010000000000000000"
      "105e5f0000000000000000010000000000000000000000000000000000000000"
      "000000000000000000000000000000dc155e5f00000000000100000000000000"
      "0000000000000000000000000000000001000000000000000100000000000000"
      "0000000000000000010000000000000005000000000000000100000001000000"
      "78155e5f00000000d0175e5f00000000010000000000000078155e5f00000000"
      "05000000000000002c115e5f000000002c115e5f000000000100000000000000"
      "0000000000000000010000000000000001000000000000002c115e5f00000000"
      "0100000002000000000000000000000000000000000000000000000000000000"
      "0000000000000000";
  EXPECT_EQ(ToHex(PinnedSlidingPayload(3)), want_hex);
}

TEST(CheckpointTest, NewestCorruptFallsBackToOlderAndTmpIsSwept) {
  const fs::path dir = FreshDir("ckpt_fallback");
  EngineCheckpoint older = SampleCheckpoint();
  older.wal_seq = 5;
  EngineCheckpoint newer = SampleCheckpoint();
  newer.wal_seq = 9;
  ASSERT_TRUE(WriteCheckpoint(dir.string(), older).ok());
  ASSERT_TRUE(WriteCheckpoint(dir.string(), newer).ok());
  auto files = SortedFiles(dir, ".ckpt");
  ASSERT_EQ(files.size(), 2u);
  FlipByteAt(files[1], 4);  // bit-rot the newest
  // The temp a checkpoint crashed before renaming leaves behind.
  const fs::path stray_tmp = dir / "ckpt-00000000000000000007.ckpt.tmp";
  { std::ofstream stray(stray_tmp); stray << "half"; }

  auto loaded = LoadNewestCheckpoint(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->checkpoint.wal_seq, 5u);
  EXPECT_EQ(loaded->skipped, 1u);
  EXPECT_FALSE(fs::exists(stray_tmp));

  // The WAL prune bound waits for `checkpoints_kept` checkpoints, then
  // follows the oldest.
  EXPECT_EQ(WalPruneBound(dir.string(), 2), 5u);
  EXPECT_EQ(WalPruneBound(dir.string(), 3), 0u);
  // Prune keeps the newest (corrupt or not — pruning is by name).
  ASSERT_TRUE(PruneCheckpoints(dir.string(), 1).ok());
  EXPECT_EQ(SortedFiles(dir, ".ckpt").size(), 1u);
  EXPECT_EQ(WalPruneBound(dir.string(), 1), 9u);
  EXPECT_EQ(WalPruneBound(dir.string(), 2), 0u);
  fs::remove_all(dir);
}

TEST(CheckpointTest, MissingDirectoryIsNotFoundNotError) {
  auto loaded = LoadNewestCheckpoint(
      (fs::path(::testing::TempDir()) / "bg_dur_never_created").string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->found);
}

// ---------------------------------------------------------------------
// Engine-level durability plumbing.

TEST(StreamEngineDurabilityTest, FreshEngineRefusesDirectoryWithState) {
  const fs::path dir = FreshDir("refuse");
  StreamEngineConfig config;
  config.station_count = 4;
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  {
    StreamEngine engine(config);
    TripEvent event;
    event.rental_id = 1;
    event.from_station = 0;
    event.to_station = 1;
    event.start_time = CivilTime(1000);
    event.end_time = CivilTime(1100);
    ASSERT_TRUE(engine.Ingest(event).ok());
    EXPECT_EQ(engine.wal_seq(), 1u);
  }
  StreamEngine second(config);
  TripEvent event;
  event.rental_id = 2;
  event.from_station = 0;
  event.to_station = 1;
  event.start_time = CivilTime(2000);
  event.end_time = CivilTime(2100);
  const Status status = second.Ingest(event);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  fs::remove_all(dir);
}

TEST(StreamEngineDurabilityTest, DisabledDurabilityHasNoDurableSurface) {
  StreamEngineConfig config;
  config.station_count = 4;
  StreamEngine engine(config);
  EXPECT_EQ(engine.wal_seq(), 0u);
  EXPECT_TRUE(engine.SyncWal().ok());
  const Status status = engine.Checkpoint();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// Satellite regression (PR 7): in durable mode Advance write-ahead-logs
// the watermark move, so its Status can carry a real WAL I/O failure.
// examples/live_monitoring.cpp used to `(void)` that Status; this pins
// the engine behaviour the example (and every caller) must respect: the
// failed append surfaces at Advance, and poisons later durable calls
// rather than letting the log silently diverge from memory.
TEST(StreamEngineDurabilityTest, AdvanceSurfacesWalFailureAndPoisons) {
  const fs::path dir = FreshDir("advance_fail");
  StreamEngineConfig config;
  config.station_count = 4;
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  // One record per segment: every append after the first rotates, and
  // rotation must create a file — which fails once the directory is gone.
  config.durability.segment_bytes = 1;
  StreamEngine engine(config);
  TripEvent event;
  event.rental_id = 1;
  event.from_station = 0;
  event.to_station = 1;
  event.start_time = CivilTime(1000);
  event.end_time = CivilTime(1100);
  ASSERT_TRUE(engine.Ingest(event).ok());
  fs::remove_all(dir);

  const Status status = engine.Advance(CivilTime(2000));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The writer is poisoned: the next durable call reports the same
  // failure instead of pretending the log is healthy.
  const Status again = engine.Advance(CivilTime(3000));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kIOError);
}

TEST(StreamEngineDurabilityTest, RecoverEmptyDirectoryIsAFreshEngine) {
  const fs::path dir = FreshDir("recover_empty");
  StreamEngineConfig config;
  config.station_count = 4;
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  StreamEngine::RecoveryStats stats;
  auto engine = StreamEngine::Recover(config, &stats);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE(stats.used_checkpoint);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(stats.recovered_seq, 0u);
  TripEvent event;
  event.rental_id = 1;
  event.from_station = 0;
  event.to_station = 1;
  event.start_time = CivilTime(1000);
  event.end_time = CivilTime(1100);
  ASSERT_TRUE((*engine)->Ingest(event).ok());
  EXPECT_EQ((*engine)->wal_seq(), 1u);
  fs::remove_all(dir);
}

TEST(StreamEngineDurabilityTest, RecoverRejectsConfigFingerprintMismatch) {
  const fs::path dir = FreshDir("fingerprint");
  StreamEngineConfig config;
  config.station_count = 4;
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  {
    StreamEngine engine(config);
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  StreamEngineConfig other = config;
  other.station_count = 8;
  auto recovered = StreamEngine::Recover(other);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
  fs::remove_all(dir);
}

TEST(StreamEngineDurabilityTest, RecoverRejectsShardCountMismatch) {
  // shard_count is part of the durable fingerprint: per-shard sequence
  // spaces and components only make sense under the partition that
  // wrote them.
  const fs::path dir = FreshDir("shard_fingerprint");
  StreamEngineConfig config;
  config.station_count = 8;
  config.shard_count = 2;
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  {
    StreamEngine engine(config);
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  StreamEngineConfig other = config;
  other.shard_count = 3;
  auto recovered = StreamEngine::Recover(other);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
  // The matching shard count recovers cleanly.
  auto matching = StreamEngine::Recover(config);
  ASSERT_TRUE(matching.ok()) << matching.status().ToString();
  EXPECT_EQ((*matching)->shard_count(), 2u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// The headline lock: randomized kill-point recovery, bit for bit.

struct Op {
  enum Kind : uint8_t { kIngest, kAdvance, kSnapshot, kDetect, kFlush };
  Kind kind = kIngest;
  TripEvent event{};
  int64_t watermark = 0;
};

/// An operation script where, by construction, every op appends exactly
/// one WAL record (Snapshot ops always directly follow a strictly-forward
/// Advance, so they never hit the unlogged reuse path; Flush appears
/// once). That makes `ops[i]` ↔ WAL seq `i + 1`, which is how the kill
/// test knows where to resume.
std::vector<Op> BuildOpScript(int64_t lateness, uint64_t seed) {
  auto jittered = JitterArrivalOrder(
      testing::PlantedStream(24, 3, /*days=*/3, /*trips_per_day=*/400, seed),
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
      if ((i + 1) % 360 == 0) ops.push_back({Op::kDetect, {}, 0});
    }
  }
  last_advance = std::max(last_advance + 1,
                          jittered.report_seconds.back() + lateness + 1);
  ops.push_back({Op::kAdvance, {}, last_advance});
  ops.push_back({Op::kFlush, {}, 0});
  ops.push_back({Op::kDetect, {}, 0});
  return ops;
}

void ApplyOp(StreamEngine& engine, const Op& op) {
  switch (op.kind) {
    case Op::kIngest: {
      const Status status = engine.Ingest(op.event);
      ASSERT_TRUE(status.ok()) << status.ToString();
      break;
    }
    case Op::kAdvance: {
      const Status status = engine.Advance(CivilTime(op.watermark));
      ASSERT_TRUE(status.ok()) << status.ToString();
      break;
    }
    case Op::kSnapshot: {
      auto snapshot = engine.Snapshot();
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      break;
    }
    case Op::kDetect: {
      auto outcome = engine.DetectCurrent();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      break;
    }
    case Op::kFlush: {
      const Status status = engine.Flush();
      ASSERT_TRUE(status.ok()) << status.ToString();
      break;
    }
  }
}

/// The bit-lock comparator: everything in the checkpoint except the WAL
/// position and the freeze-path counters (a recovered engine's first
/// post-recovery freeze may legitimately take the full path where the
/// uninterrupted run used a delta — the *results* are still identical,
/// which is exactly what the delta lock guarantees).
std::string ComparableState(const StreamEngine& engine) {
  EngineCheckpoint c = engine.CaptureState();
  c.wal_seq = 0;
  c.delta_freeze_count = 0;
  c.full_freeze_count = 0;
  return SerializeCheckpoint(c);
}

void ExpectGraphsIdentical(const graphdb::WeightedGraph& a,
                           const graphdb::WeightedGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  ASSERT_EQ(a.self_loop_count(), b.self_loop_count());
  EXPECT_EQ(a.total_weight(), b.total_weight());  // bitwise, not NEAR
  for (size_t u = 0; u < a.node_count(); ++u) {
    const auto ui = static_cast<int32_t>(u);
    EXPECT_EQ(a.self_weight(ui), b.self_weight(ui)) << "node " << u;
    auto na = a.neighbors(ui);
    auto nb = b.neighbors(ui);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].node, nb[i].node) << "node " << u << " nb " << i;
      EXPECT_EQ(na[i].weight, nb[i].weight) << "node " << u << " nb " << i;
    }
  }
}

void RunKillPointLock(int64_t window_seconds, uint64_t seed,
                      const std::string& tag) {
  const int64_t lateness = 900;
  const std::vector<Op> ops = BuildOpScript(lateness, seed);

  StreamEngineConfig base;
  base.station_count = 24;
  base.window_seconds = window_seconds;
  base.max_lateness_seconds = lateness;
  base.suppress_duplicate_rentals = true;
  base.detection.options.seed = 7;

  // The uninterrupted reference run, no durability.
  StreamEngine reference(base);
  for (const Op& op : ops) {
    ApplyOp(reference, op);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }

  Rng rng(seed * 1000003 + 17);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const fs::path dir = FreshDir(tag + "_" + std::to_string(trial));
    StreamEngineConfig durable = base;
    durable.durability.enabled = true;
    durable.durability.directory = dir.string();
    durable.durability.segment_bytes = 1 << 14;  // force rotations
    durable.durability.sync_interval_records = 64;

    const auto kill = static_cast<size_t>(rng.NextBounded(ops.size() + 1));
    const size_t checkpoint_every = 150 + rng.NextBounded(200);
    size_t checkpoints = 0;
    {
      StreamEngine engine(durable);
      for (size_t i = 0; i < kill; ++i) {
        ApplyOp(engine, ops[i]);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        ASSERT_EQ(engine.wal_seq(), i + 1) << "op/seq mapping drifted";
        if ((i + 1) % checkpoint_every == 0) {
          ASSERT_TRUE(engine.Checkpoint().ok());
          ++checkpoints;
        }
      }
    }  // "crash" — the writer flushed its buffer, nothing else ran

    // Maybe tear the WAL tail: a crash mid-append leaves a half frame.
    if (rng.NextDouble() < 0.5) {
      auto segments = SortedFiles(dir, ".log");
      if (!segments.empty()) {
        const fs::path& tail = segments.back();
        const auto size = static_cast<int64_t>(fs::file_size(tail));
        const int64_t tear =
            std::min<int64_t>(size, 1 + rng.NextInt(0, 39));
        fs::resize_file(tail, static_cast<uint64_t>(size - tear));
      }
    }
    // Maybe bit-rot the newest checkpoint — only when an older one
    // survives to fall back to, the case this lock pins.
    if (checkpoints >= 2 && rng.NextDouble() < 0.5) {
      auto files = SortedFiles(dir, ".ckpt");
      if (files.size() >= 2) FlipByteAt(files.back(), 6);
    }

    StreamEngine::RecoveryStats stats;
    auto recovered = StreamEngine::Recover(durable, &stats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_LE(stats.recovered_seq, kill);
    EXPECT_EQ(stats.replay_errors, 0u);
    EXPECT_EQ((*recovered)->wal_seq(), stats.recovered_seq);

    // Resume exactly where the log left off and finish the script.
    for (size_t i = stats.recovered_seq; i < ops.size(); ++i) {
      ApplyOp(**recovered, ops[i]);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      ASSERT_EQ((*recovered)->wal_seq(), i + 1);
    }

    EXPECT_EQ(ComparableState(**recovered), ComparableState(reference))
        << "recovered state diverged from the uninterrupted run";
    auto snap_a = (*recovered)->LatestSnapshot();
    auto snap_b = reference.LatestSnapshot();
    ASSERT_NE(snap_a, nullptr);
    ASSERT_NE(snap_b, nullptr);
    EXPECT_EQ(snap_a->epoch, snap_b->epoch);
    EXPECT_EQ(snap_a->window_start, snap_b->window_start);
    EXPECT_EQ(snap_a->window_end, snap_b->window_end);
    EXPECT_EQ(snap_a->trip_count, snap_b->trip_count);
    ExpectGraphsIdentical(snap_a->graph, snap_b->graph);
    EXPECT_EQ(snap_a->profiles.day, snap_b->profiles.day);
    EXPECT_EQ(snap_a->profiles.hour, snap_b->profiles.hour);
    fs::remove_all(dir);
  }
}

TEST(StreamDurabilityLockTest, KillPointRecoveryIsBitIdenticalSliding) {
  RunKillPointLock(/*window_seconds=*/86400, /*seed=*/11, "kill_sliding");
}

TEST(StreamDurabilityLockTest, KillPointRecoveryIsBitIdenticalLandmark) {
  RunKillPointLock(/*window_seconds=*/0, /*seed=*/12, "kill_landmark");
}

// ---------------------------------------------------------------------
// Sharded kill-point recovery. The raw-checkpoint comparator above does
// not transfer to shard_count > 1: Checkpoint()'s barrier mutates shard
// clocks without logging anything (the mutations are idempotent maxima
// the next barrier re-derives), so a run recovered from an *older*
// checkpoint can lag the uninterrupted run's per-shard watermarks and
// applied counters until the next barrier — while every published
// snapshot stays bit-identical. The sharded lock therefore compares
// what the engine actually serves after the script's final barrier:
// the published snapshot, the Louvain partition, and the aggregate
// stream counters.

void RunShardedKillPointLock(int64_t window_seconds, size_t shard_count,
                             uint64_t seed, const std::string& tag) {
  const int64_t lateness = 900;
  const std::vector<Op> ops = BuildOpScript(lateness, seed);

  StreamEngineConfig base;
  base.station_count = 24;
  base.window_seconds = window_seconds;
  base.max_lateness_seconds = lateness;
  base.suppress_duplicate_rentals = true;
  base.detection.options.seed = 7;
  base.shard_count = shard_count;

  // The uninterrupted sharded reference, no durability.
  StreamEngine reference(base);
  for (const Op& op : ops) {
    ApplyOp(reference, op);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }

  Rng rng(seed * 1000003 + 29);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const fs::path dir = FreshDir(tag + "_" + std::to_string(trial));
    StreamEngineConfig durable = base;
    durable.durability.enabled = true;
    durable.durability.directory = dir.string();
    durable.durability.segment_bytes = 1 << 14;
    durable.durability.sync_interval_records = 64;

    const auto kill = static_cast<size_t>(rng.NextBounded(ops.size() + 1));
    // Fixed cadence: which checkpoints exist must not depend on the
    // trial, only where the kill lands relative to them.
    const size_t checkpoint_every = 180;
    {
      StreamEngine engine(durable);
      ASSERT_EQ(engine.shard_count(), shard_count);
      for (size_t i = 0; i < kill; ++i) {
        ApplyOp(engine, ops[i]);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        ASSERT_EQ(engine.wal_seq(), i + 1) << "op/seq mapping drifted";
        if ((i + 1) % checkpoint_every == 0) {
          ASSERT_TRUE(engine.Checkpoint().ok());
        }
      }
    }  // "crash": workers joined, writer flushed, nothing else ran

    if (rng.NextDouble() < 0.5) {
      auto segments = SortedFiles(dir, ".log");
      if (!segments.empty()) {
        const fs::path& tail = segments.back();
        const auto size = static_cast<int64_t>(fs::file_size(tail));
        const int64_t tear = std::min<int64_t>(size, 1 + rng.NextInt(0, 39));
        fs::resize_file(tail, static_cast<uint64_t>(size - tear));
      }
    }

    StreamEngine::RecoveryStats stats;
    auto recovered = StreamEngine::Recover(durable, &stats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_LE(stats.recovered_seq, kill);
    EXPECT_EQ(stats.replay_errors, 0u);
    EXPECT_EQ((*recovered)->wal_seq(), stats.recovered_seq);
    EXPECT_EQ((*recovered)->shard_count(), shard_count);

    for (size_t i = stats.recovered_seq; i < ops.size(); ++i) {
      ApplyOp(**recovered, ops[i]);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      ASSERT_EQ((*recovered)->wal_seq(), i + 1);
    }

    // The script ends with Flush (a full barrier) + Detect: both engines
    // are quiescent and aligned, so the aggregate counters and the
    // served snapshot must agree exactly.
    EXPECT_EQ((*recovered)->ingested_count(), reference.ingested_count());
    EXPECT_EQ((*recovered)->trip_count(), reference.trip_count());
    EXPECT_EQ((*recovered)->expired_count(), reference.expired_count());
    EXPECT_EQ((*recovered)->watermark(), reference.watermark());
    EXPECT_EQ((*recovered)->reordered_count(), reference.reordered_count());
    EXPECT_EQ((*recovered)->late_dropped_count(),
              reference.late_dropped_count());
    EXPECT_EQ((*recovered)->duplicate_count(), reference.duplicate_count());
    EXPECT_EQ((*recovered)->buffered_count(), 0u);

    auto snap_a = (*recovered)->LatestSnapshot();
    auto snap_b = reference.LatestSnapshot();
    ASSERT_NE(snap_a, nullptr);
    ASSERT_NE(snap_b, nullptr);
    EXPECT_EQ(snap_a->epoch, snap_b->epoch);
    EXPECT_EQ(snap_a->window_start, snap_b->window_start);
    EXPECT_EQ(snap_a->window_end, snap_b->window_end);
    EXPECT_EQ(snap_a->trip_count, snap_b->trip_count);
    ExpectGraphsIdentical(snap_a->graph, snap_b->graph);
    EXPECT_EQ(snap_a->profiles.day, snap_b->profiles.day);
    EXPECT_EQ(snap_a->profiles.hour, snap_b->profiles.hour);

    auto detect_a = (*recovered)->DetectCurrent();
    auto detect_b = reference.DetectCurrent();
    ASSERT_TRUE(detect_a.ok());
    ASSERT_TRUE(detect_b.ok());
    EXPECT_EQ(detect_a->result.partition.assignment,
              detect_b->result.partition.assignment);
    EXPECT_EQ(detect_a->result.modularity,
              detect_b->result.modularity);  // bitwise
    fs::remove_all(dir);
  }
}

TEST(StreamDurabilityLockTest, ShardedKillPointRecoveryConvergesSliding) {
  RunShardedKillPointLock(/*window_seconds=*/86400, /*shard_count=*/2,
                          /*seed=*/13, "kill_sharded_sliding");
}

TEST(StreamDurabilityLockTest, ShardedKillPointRecoveryConvergesLandmark) {
  RunShardedKillPointLock(/*window_seconds=*/0, /*shard_count=*/3,
                          /*seed=*/14, "kill_sharded_landmark");
}

// ---------------------------------------------------------------------
// Bounded recovery. Checkpoint() rotates the WAL, so every segment older
// than the newest checkpoint's boundary holds only records it covers:
// Recover never opens those segments, and Checkpoint() deletes them once
// the oldest kept checkpoint covers them too.

/// The sequence number in a "wal-<seq20>.log" or "ckpt-<seq20>.ckpt"
/// name.
uint64_t SeqOf(const fs::path& file) {
  const std::string name = file.filename().string();
  return std::stoull(name.substr(name.find('-') + 1, 20));
}

/// A durable run stopped after 1000 ops of the lock script, with a
/// checkpoint every 300 ops and small segments.
struct CoveredLog {
  StreamEngineConfig config;
  /// ComparableState of an uninterrupted run over the same ops.
  std::string reference_state;
  /// Segments the newest checkpoint (seq 900) covers.
  std::vector<fs::path> covered;
};

void BuildCoveredLog(const fs::path& dir, CoveredLog* log) {
  const std::vector<Op> ops = BuildOpScript(/*lateness=*/900, /*seed=*/21);
  const size_t run = 1000;
  ASSERT_GT(ops.size(), run);
  StreamEngineConfig base;
  base.station_count = 24;
  base.window_seconds = 86400;
  base.max_lateness_seconds = 900;
  base.suppress_duplicate_rentals = true;
  base.detection.options.seed = 7;
  log->config = base;
  log->config.durability.enabled = true;
  log->config.durability.directory = dir.string();
  log->config.durability.segment_bytes = 1 << 12;  // several per interval
  log->config.durability.sync_interval_records = 64;

  StreamEngine reference(base);
  {
    StreamEngine engine(log->config);
    for (size_t i = 0; i < run; ++i) {
      ApplyOp(engine, ops[i]);
      ApplyOp(reference, ops[i]);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      if ((i + 1) % 300 == 0) {
        ASSERT_TRUE(engine.Checkpoint().ok());
      }
    }
  }
  log->reference_state = ComparableState(reference);
  const auto checkpoints = SortedFiles(dir, ".ckpt");
  ASSERT_EQ(checkpoints.size(), 2u);
  const uint64_t newest = SeqOf(checkpoints.back());
  ASSERT_EQ(newest, 900u);
  const auto segments = SortedFiles(dir, ".log");
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (SeqOf(segments[i + 1]) <= newest + 1) {
      log->covered.push_back(segments[i]);
    }
  }
  ASSERT_FALSE(log->covered.empty());
}

TEST(BoundedRecoveryTest, CoveredSegmentsAreNeverOpened) {
  const fs::path dir = FreshDir("bounded_open");
  CoveredLog log;
  BuildCoveredLog(dir, &log);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // Opening any covered segment fails.
  FaultPlan plan;
  for (const fs::path& segment : log.covered) {
    FaultPlan::Rule rule;
    rule.op = IoOp::kOpen;
    rule.kind = FaultPlan::Kind::kError;
    rule.count = uint64_t{1} << 40;
    rule.error = EIO;
    rule.path_substr = segment.filename().string();
    plan.rules.push_back(rule);
  }
  FaultInjectingIoEnv env(plan);
  StreamEngineConfig config = log.config;
  config.durability.io_env = &env;
  StreamEngine::RecoveryStats stats;
  auto recovered = StreamEngine::Recover(config, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(env.faults_injected(), 0u) << "a covered segment was opened";
  EXPECT_EQ(stats.checkpoint_seq, 900u);
  EXPECT_EQ(stats.replayed_records, 100u);
  EXPECT_EQ(ComparableState(**recovered), log.reference_state);
  recovered->reset();
  fs::remove_all(dir);
}

// The trade of never reading covered segments: corruption inside one is
// no longer reported. Nothing needs those records; the checkpoint holds
// their effect.
TEST(BoundedRecoveryTest, CorruptCoveredSegmentIsNotRead) {
  const fs::path dir = FreshDir("bounded_corrupt");
  CoveredLog log;
  BuildCoveredLog(dir, &log);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  for (const fs::path& segment : log.covered) FlipByteAt(segment, 5);
  StreamEngine::RecoveryStats stats;
  auto recovered = StreamEngine::Recover(log.config, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(stats.checkpoint_seq, 900u);
  EXPECT_EQ(ComparableState(**recovered), log.reference_state);
  fs::remove_all(dir);
}

TEST(BoundedRecoveryTest, WalHoldsAboutTwoCheckpointIntervals) {
  const fs::path dir = FreshDir("bounded_bytes");
  StreamEngineConfig config;
  config.station_count = 8;
  config.durability.enabled = true;  // default segment size and retention
  config.durability.directory = dir.string();
  const auto wal_bytes = [&dir] {
    uint64_t total = 0;
    for (const fs::path& segment : SortedFiles(dir, ".log")) {
      total += fs::file_size(segment);
    }
    return total;
  };
  StreamEngine engine(config);
  const uint64_t header = wal_bytes();
  ASSERT_GT(header, 0u);
  const int kIntervals = 20;
  const int kEventsPerInterval = 200;
  uint64_t interval_bytes = 0;
  uint64_t peak = 0;
  int64_t id = 0;
  for (int interval = 0; interval < kIntervals; ++interval) {
    for (int i = 0; i < kEventsPerInterval; ++i, ++id) {
      TripEvent event;
      event.rental_id = id;
      event.from_station = static_cast<int32_t>(id % 8);
      event.to_station = static_cast<int32_t>((id + 3) % 8);
      event.start_time = CivilTime(1'600'000'000 + id * 60);
      event.end_time = event.start_time.AddSeconds(600);
      ASSERT_TRUE(engine.Ingest(event).ok());
    }
    ASSERT_TRUE(engine.SyncWal().ok());
    const uint64_t bytes = wal_bytes();
    if (interval == 0) interval_bytes = bytes - header;
    peak = std::max(peak, bytes);
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.SyncWal().ok());  // the commit and its prunes landed
    // Alone on disk, the first checkpoint's fallback is the log from
    // seq 1; the second checkpoint takes over that role.
    EXPECT_EQ(fs::exists(dir / "wal-00000000000000000001.log"), interval == 0)
        << "after checkpoint " << interval;
  }
  // Just before each checkpoint the directory holds the interval the
  // oldest kept checkpoint still needs and the current one, each in its
  // own segment — not the 20 intervals logged.
  EXPECT_LE(peak, 2 * (interval_bytes + header));
  EXPECT_LE(SortedFiles(dir, ".log").size(), 2u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Foreign files. The durable code owns the names "wal-<seq20>.log" and
// "ckpt-<seq20>.ckpt", the degraded marker and the "ckpt-<seq20>.ckpt.tmp"
// temps a crashed checkpoint leaves; any other name, near misses
// included, is someone else's file and is never read, counted or deleted.

TEST(ForeignFilesTest, NearMissNamesAreNeverTouched) {
  const std::vector<std::string> foreign = {
      "wal-1.log",
      "wal-0000000000000000000x.log",
      "wal-00000000000000000001.log.bak",
      "ckpt-abc.ckpt",
      "ckpt-00000000000000000001.ckpt.bak",
      "ckpt-notes.tmp",
      "ckpt-junk.ckpt.tmp",
      "notes.txt"};
  const auto is_foreign = [&foreign](const fs::path& file) {
    return std::find(foreign.begin(), foreign.end(),
                     file.filename().string()) != foreign.end();
  };
  // Recovers `dir`, checks the state, checkpoints once more and lists
  // the durable files left.
  const auto recover_and_checkpoint = [&](const fs::path& dir,
                                          const CoveredLog& log,
                                          std::vector<std::string>* names) {
    auto recovered = StreamEngine::Recover(log.config);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(ComparableState(**recovered), log.reference_state);
    ASSERT_TRUE((*recovered)->Checkpoint().ok());
    ASSERT_TRUE((*recovered)->SyncWal().ok());  // ...and its commit landed
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!is_foreign(entry.path())) {
        names->push_back(entry.path().filename().string());
      }
    }
    std::sort(names->begin(), names->end());
  };

  const fs::path control_dir = FreshDir("foreign_control");
  CoveredLog control;
  BuildCoveredLog(control_dir, &control);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  std::vector<std::string> control_names;
  recover_and_checkpoint(control_dir, control, &control_names);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  const fs::path dir = FreshDir("foreign");
  CoveredLog log;
  BuildCoveredLog(dir, &log);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  for (const std::string& name : foreign) {
    std::ofstream(dir / name) << name << "\n";
  }
  std::vector<std::string> names;
  recover_and_checkpoint(dir, log, &names);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // The checkpoint pruned what it prunes without the foreign files: the
  // segments the now-oldest checkpoint covers and the checkpoint before.
  EXPECT_EQ(names, control_names);
  for (const fs::path& segment : log.covered) {
    EXPECT_FALSE(fs::exists(segment)) << segment;
  }
  for (const std::string& name : foreign) {
    std::ifstream in(dir / name);
    std::string body;
    std::getline(in, body);
    EXPECT_EQ(body, name) << "foreign file touched: " << name;
  }

  // A directory holding only foreign files holds no durable state, so a
  // fresh engine starts on it.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!is_foreign(entry.path())) fs::remove(entry.path());
  }
  EXPECT_FALSE(DirectoryHasDurableState(dir.string()));
  StreamEngine fresh(log.config);
  TripEvent event;
  event.rental_id = 1;
  event.from_station = 0;
  event.to_station = 1;
  event.start_time = CivilTime(1000);
  event.end_time = CivilTime(1100);
  EXPECT_TRUE(fresh.Ingest(event).ok());
  EXPECT_EQ(fresh.wal_seq(), 1u);
  fs::remove_all(control_dir);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bikegraph::stream
