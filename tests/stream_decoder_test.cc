// Decoder hardening for the durable formats. A count field may claim no
// more elements than the bytes left could encode, so a corrupt count
// cannot make a parse allocate more than its input; a bool byte is 0 or
// 1 and an absent optional's value slot is zero, so every payload that
// parses re-serializes to the same bytes; and a seeded mutation search
// over a 3-shard checkpoint payload and a WAL log holding every record
// type finds nothing but clean parses and DataLoss.

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "core/civil_time.h"
#include "core/rng.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/wal.h"

#include <gtest/gtest.h>

namespace {

// Heap accounting for the parses under test: while armed on a thread,
// every allocation and free that thread makes moves its live byte count,
// and the peak is kept. Other threads (shard workers) are not counted.
thread_local bool t_counting = false;
thread_local int64_t t_live_bytes = 0;
thread_local int64_t t_peak_bytes = 0;

void CountAllocation(void* p) {
  if (!t_counting || p == nullptr) return;
  t_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  t_peak_bytes = std::max(t_peak_bytes, t_live_bytes);
}

void CountFree(void* p) {
  if (!t_counting || p == nullptr) return;
  t_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
}

}  // namespace

// The plain and nothrow forms of global new and delete, all on malloc and
// free, so the sanitizers see matching pairs. The array and aligned forms
// keep their defaults. Not inlined: a caller that inlined a delete would
// see free() meet operator new's result and be warned of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  CountAllocation(p);
  return p;
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  CountAllocation(p);
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  CountFree(p);
  std::free(p);
}

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  CountFree(p);
  std::free(p);
}

[[gnu::noinline]] void operator delete(void* p,
                                     const std::nothrow_t&) noexcept {
  CountFree(p);
  std::free(p);
}

namespace bikegraph::stream {
namespace {

namespace fs = std::filesystem;

/// Peak heap growth, in bytes, on this thread while `fn` runs.
template <typename Fn>
int64_t PeakHeapGrowth(Fn fn) {
  t_live_bytes = 0;
  t_peak_bytes = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_peak_bytes;
}

fs::path FreshDir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("bg_dec_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutLe(std::string* bytes, size_t offset, uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

uint32_t GetU32(const std::string& bytes, size_t offset) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(
                 static_cast<unsigned char>(bytes[offset + static_cast<size_t>(i)]))
             << (8 * i);
  }
  return value;
}

// ---------------------------------------------------------------------
// Checkpoint payloads.

// Offsets in the payload of a default EngineCheckpoint: the 84-byte
// header, the 73-byte reorder block (`flushed` at +8), the 80-byte window
// block (the hour-row count at +64), the 25-byte tracker (has-partition
// at +24), then the trailer: the shard count and shard 0's applied
// counter.
constexpr size_t kLatePolicyOffset = 32;  // then three bool bytes
constexpr size_t kReorderFlushedOffset = 84 + 8;
constexpr size_t kHourCountOffset = 84 + 73 + 64;
constexpr size_t kHasPartitionOffset = 84 + 73 + 80 + 24;
constexpr size_t kShardCountOffset = 84 + 73 + 80 + 25;
constexpr size_t kDefaultPayloadBytes = kShardCountOffset + 16;

TEST(CheckpointTest, CountFieldsCannotOutgrowThePayload) {
  const std::string base = SerializeCheckpoint(EngineCheckpoint{});
  ASSERT_EQ(base.size(), kDefaultPayloadBytes);
  constexpr uint64_t kPadding = uint64_t{1} << 20;
  // 1 MiB of zeros after a count that claims every padding byte as an
  // element: as hour rows (192 B each in memory), then as shards.
  struct Case {
    const char* name;
    size_t count_offset;
  };
  for (const Case& c : {Case{"hour rows", kHourCountOffset},
                        Case{"shards", kShardCountOffset}}) {
    SCOPED_TRACE(c.name);
    std::string payload = base;
    payload.insert(c.count_offset + 8, kPadding, '\0');
    PutLe(&payload, c.count_offset, kPadding, 8);
    Status status = Status::OK();
    const int64_t peak = PeakHeapGrowth(
        [&] { status = ParseCheckpoint(payload).status(); });
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    EXPECT_LT(peak, static_cast<int64_t>(2 * payload.size()))
        << "a " << payload.size() << "-byte payload grew the heap by "
        << peak << " bytes";
  }
}

TEST(CheckpointTest, BoolBytesAboveOneAreDataLoss) {
  const std::string base = SerializeCheckpoint(EngineCheckpoint{});
  ASSERT_EQ(base.size(), kDefaultPayloadBytes);
  ASSERT_TRUE(ParseCheckpoint(base).ok());
  // The late policy (the last LateEventPolicy is 1), suppress_duplicates,
  // flushed and snapshot_clean, then the reorder and the tracker bools.
  for (const size_t offset :
       {kLatePolicyOffset, kLatePolicyOffset + 1, kLatePolicyOffset + 2,
        kLatePolicyOffset + 3, kReorderFlushedOffset, kHasPartitionOffset}) {
    for (const int value : {0x02, 0x80, 0xFF}) {
      std::string bytes = base;
      bytes[offset] = static_cast<char>(value);
      const Status status = ParseCheckpoint(bytes).status();
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << "byte " << value << " at offset " << offset;
    }
  }
}

/// A 3-shard landmark engine's payload: buffered events, seen ids, pair
/// counts, day and hour rows and endpoint counts in every shard, and a
/// tracker holding a partition.
std::string ShardedLandmarkPayload() {
  StreamEngineConfig config;
  config.station_count = 6;
  config.window_seconds = 0;
  config.max_lateness_seconds = 900;
  config.suppress_duplicate_rentals = true;
  config.shard_count = 3;
  config.detection.options.seed = 7;
  StreamEngine engine(config);
  Rng rng(0xDEC0DE);
  for (int64_t i = 0; i < 90; ++i) {
    TripEvent event;
    event.rental_id = i % 17 == 16 ? i - 5 : i + 1;  // some redeliveries
    event.from_station = static_cast<int32_t>(rng.NextBounded(6));
    event.to_station = static_cast<int32_t>(rng.NextBounded(6));
    event.start_time = CivilTime(1'600'000'000 + i * 1800 -
                                 static_cast<int64_t>(rng.NextBounded(600)));
    event.end_time = event.start_time.AddSeconds(900);
    EXPECT_TRUE(engine.Ingest(event).ok());
    if (i == 60) {
      EXPECT_TRUE(engine.DetectCurrent().ok());
    }
  }
  EXPECT_TRUE(engine.Snapshot().ok());
  return SerializeCheckpoint(engine.CaptureState());
}

/// One seeded mutation of `bytes`: bit flips, a truncation, appended
/// bytes, a byte overwritten, or a u64 count-sized field patched with a
/// boundary value.
std::string Mutate(const std::string& bytes, Rng& rng) {
  std::string out = bytes;
  const auto at = [&](size_t width) {
    return static_cast<size_t>(rng.NextBounded(out.size() - width + 1));
  };
  switch (rng.NextBounded(5)) {
    case 0: {
      const uint64_t flips = 1 + rng.NextBounded(4);
      for (uint64_t i = 0; i < flips; ++i) {
        out[at(1)] ^= static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    }
    case 1:
      out.resize(static_cast<size_t>(rng.NextBounded(out.size())));
      break;
    case 2: {
      const uint64_t extra = 1 + rng.NextBounded(16);
      for (uint64_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<char>(rng.NextBounded(256)));
      }
      break;
    }
    case 3:
      out[at(1)] = static_cast<char>(rng.NextBounded(256));
      break;
    default: {
      if (out.size() < 8) {
        out[at(1)] = static_cast<char>(rng.NextBounded(256));
        break;
      }
      const uint64_t values[] = {0,
                                 1,
                                 2,
                                 3,
                                 rng.NextBounded(64),
                                 bytes.size() / 8,
                                 bytes.size(),
                                 uint64_t{1} << 32,
                                 uint64_t{1} << 62,
                                 ~uint64_t{0}};
      PutLe(&out, at(8), values[rng.NextBounded(std::size(values))], 8);
      break;
    }
  }
  return out;
}

TEST(DecoderMutationTest, CheckpointParsesOrIsDataLossAndReserializes) {
  const std::string payload = ShardedLandmarkPayload();
  {
    auto parsed = ParseCheckpoint(payload);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_TRUE(SerializeCheckpoint(*parsed) == payload);
  }
  Rng rng(0xF022);
  uint64_t parsed_ok = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string mutated = Mutate(payload, rng);
    auto parsed = ParseCheckpoint(mutated);
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), StatusCode::kDataLoss)
          << "case " << i << ": " << parsed.status().ToString();
      continue;
    }
    ++parsed_ok;
    ASSERT_TRUE(SerializeCheckpoint(*parsed) == mutated)
        << "case " << i << " parsed but re-serialized to other bytes";
  }
  // Mutated counters and clocks parse; the search must reach both sides.
  EXPECT_GT(parsed_ok, 100u);
  EXPECT_LT(parsed_ok, 4000u);
}

// ---------------------------------------------------------------------
// WAL segments.

/// The frames of one segment: its 20-byte header, then (length, CRC32C,
/// payload) frames. Rebuilt with fresh lengths and CRCs, so a mutated
/// payload reaches the decoder instead of failing its checksum.
struct Segment {
  std::string header;
  std::vector<std::string> payloads;

  static Segment Split(const std::string& bytes) {
    Segment segment;
    segment.header = bytes.substr(0, 20);
    for (size_t offset = 20; offset < bytes.size();) {
      const uint32_t length = GetU32(bytes, offset);
      segment.payloads.push_back(bytes.substr(offset + 8, length));
      offset += 8 + length;
    }
    return segment;
  }

  std::string Join() const {
    std::string bytes = header;
    for (const std::string& payload : payloads) {
      std::string frame(8, '\0');
      PutLe(&frame, 0, payload.size(), 4);
      PutLe(&frame, 4, Crc32c(payload.data(), payload.size()), 4);
      bytes += frame + payload;
    }
    return bytes;
  }
};

/// Two segments: the first holds one record of every type (an explicit
/// detect spec with set and unset optionals), the second, the tail, two
/// more records. Returns the segment paths, oldest first.
std::vector<fs::path> WriteEveryRecordType(const fs::path& dir) {
  DurabilityConfig config;
  config.enabled = true;
  config.directory = dir.string();
  auto writer = WalWriter::Open(config, /*next_seq=*/1);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<WalRecord> records(8);
  records[0].type = WalRecordType::kEvent;
  records[0].event.rental_id = 77;
  records[0].event.from_station = 3;
  records[0].event.to_station = 9;
  records[0].event.start_time = CivilTime(1'600'000'123);
  records[0].event.end_time = CivilTime(1'600'000'999);
  records[1].type = WalRecordType::kAdvance;
  records[1].watermark_seconds = 1'600'003'600;
  records[2].type = WalRecordType::kSnapshot;
  records[3].type = WalRecordType::kDetect;
  records[4].type = WalRecordType::kDetect;
  records[4].default_spec = false;
  records[4].spec.options.seed = 42;
  records[4].spec.options.max_levels = 3;
  records[4].spec.options.min_gain = 0.25;
  records[5].type = WalRecordType::kFlush;
  records[6] = records[1];
  records[7] = records[0];
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == 6) {
      EXPECT_TRUE((*writer)->Rotate().ok());
    }
    EXPECT_TRUE((*writer)->Append(records[i]).ok());
  }
  EXPECT_TRUE((*writer)->Sync().ok());
  writer->reset();
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Reads the log under `dir` and counts the records visited.
Result<WalReadResult> ReadAll(const fs::path& dir, uint64_t* visited) {
  *visited = 0;
  return ReadWal(dir.string(), /*repair_torn_tail=*/false, /*after_seq=*/0,
                 [visited](const WalRecord&) { ++*visited; });
}

// The default_spec byte, a has-value byte and an absent optional's value
// slot each have one encoding; any other byte in them, under a valid CRC,
// is a record no writer produces. No crash writes a frame whose CRC
// matches, so it is DataLoss even in the tail, never a torn tail.
TEST(WalTest, NonCanonicalDetectPayloadsAreNotReplayed) {
  const fs::path dir = FreshDir("noncanonical");
  const std::vector<fs::path> paths = WriteEveryRecordType(dir);
  ASSERT_EQ(paths.size(), 2u);
  const Segment first = Segment::Split(ReadFileBytes(paths[0]));
  ASSERT_EQ(first.payloads.size(), 6u);
  const std::string default_detect = first.payloads[3];
  const std::string explicit_detect = first.payloads[4];
  ASSERT_EQ(default_detect.size(), 2u);
  ASSERT_EQ(explicit_detect.size(), 63u);
  // Explicit spec payload offsets: type 0, default_spec 1, algorithm 2,
  // seed 6, resolution 14, max_levels 22 (+ slot 23), max_sweeps 27 (+28),
  // max_iterations 32 (+33), max_merges 37, min_gain 45 (+46),
  // min_improvement 54 (+55).
  struct Patch {
    const char* name;
    std::string payload;
    size_t offset;
    char value;
  };
  const Patch patches[] = {
      {"canonical", default_detect, 1, 0x01},
      {"default_spec 2", default_detect, 1, 0x02},
      {"max_levels has-value 2", explicit_detect, 22, 0x02},
      {"max_iterations absent, slot 1", explicit_detect, 33, 0x01},
      {"min_improvement absent, slot -0.0", explicit_detect, 62,
       static_cast<char>(0x80)},
  };
  for (const Patch& patch : patches) {
    SCOPED_TRACE(patch.name);
    Segment tail;
    tail.header = first.header;
    tail.payloads = {patch.payload};
    tail.payloads[0][patch.offset] = patch.value;
    fs::remove(paths[1]);
    WriteFileBytes(paths[0], tail.Join());
    uint64_t visited = 0;
    auto read = ReadAll(dir, &visited);
    const bool canonical = patch.offset == 1 && patch.value == 0x01;
    if (!canonical) {
      ASSERT_FALSE(read.ok());
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
          << read.status().ToString();
      EXPECT_NE(read.status().message().find("offset 20"), std::string::npos)
          << read.status().ToString();
      EXPECT_EQ(visited, 0u);
      continue;
    }
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(visited, 1u);
    EXPECT_EQ(read->truncated_bytes, 0u);
  }
  fs::remove_all(dir);
}

// A crash can leave the tail zero-filled past its last record. An 8-byte
// zero frame header reads as an empty payload with CRC 0 (the CRC32C of
// no bytes); the writer never writes one, so it is a torn tail, read OK
// and truncated away.
TEST(WalTest, ZeroFilledTailIsTornNotCorrupt) {
  const fs::path dir = FreshDir("zero_tail");
  const std::vector<fs::path> paths = WriteEveryRecordType(dir);
  ASSERT_EQ(paths.size(), 2u);
  const std::string tail = ReadFileBytes(paths[1]);
  WriteFileBytes(paths[1], tail + std::string(8, '\0'));
  uint64_t visited = 0;
  auto read = ReadWal(dir.string(), /*repair_torn_tail=*/true,
                      /*after_seq=*/0,
                      [&visited](const WalRecord&) { ++visited; });
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(visited, 8u);
  EXPECT_EQ(read->truncated_bytes, 8u);
  EXPECT_EQ(read->last_seq, 8u);
  EXPECT_EQ(ReadFileBytes(paths[1]), tail);
  fs::remove_all(dir);
}

TEST(DecoderMutationTest, WalReadsOrIsDataLoss) {
  const fs::path dir = FreshDir("wal_mutation");
  const std::vector<fs::path> paths = WriteEveryRecordType(dir);
  ASSERT_EQ(paths.size(), 2u);
  const std::string originals[] = {ReadFileBytes(paths[0]),
                                   ReadFileBytes(paths[1])};
  uint64_t visited = 0;
  {
    auto read = ReadAll(dir, &visited);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(visited, 8u);
  }
  Rng rng(0xF0F0);
  uint64_t outcomes[2] = {0, 0};  // OK, DataLoss
  for (int i = 0; i < 3000; ++i) {
    // Alternate the segment (the non-tail one holds every record type)
    // and, every other time, mutate one payload behind a fresh CRC.
    const size_t target = static_cast<size_t>(i % 2);
    std::string mutated;
    if ((i / 2) % 2 == 0) {
      mutated = Mutate(originals[target], rng);
    } else {
      Segment segment = Segment::Split(originals[target]);
      std::string& payload =
          segment.payloads[rng.NextBounded(segment.payloads.size())];
      payload = Mutate(payload, rng);
      mutated = segment.Join();
    }
    WriteFileBytes(paths[0], target == 0 ? mutated : originals[0]);
    WriteFileBytes(paths[1], target == 1 ? mutated : originals[1]);
    auto read = ReadAll(dir, &visited);
    if (read.ok()) {
      ++outcomes[0];
    } else {
      ASSERT_EQ(read.status().code(), StatusCode::kDataLoss)
          << "case " << i << ": " << read.status().ToString();
      ++outcomes[1];
    }
  }
  EXPECT_GT(outcomes[0], 100u);
  EXPECT_GT(outcomes[1], 100u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bikegraph::stream
