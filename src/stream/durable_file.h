#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/civil_time.h"
#include "core/io_env.h"
#include "core/result.h"
#include "stream/checkpoint.h"
#include "stream/wal.h"

namespace bikegraph::stream::internal {

/// The file helpers the WAL and the checkpoint code share, and the one
/// definition of each durable record. Every I/O call goes through the
/// IoEnv it is given, so fault plans reach it.

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

// ---------------------------------------------------------------------
// Durable records.
//
// Each record is one field list: a function template that a Writer runs
// to encode the record and a Reader runs to decode it, so the two
// directions cannot disagree. Each call names the field's wire width;
// the Reader takes the field by reference, so a field of another width
// does not compile. Integers are little-endian, doubles their IEEE-754
// bits, bools one byte. The lists are declared inline so each one folds
// into the function that runs it and the Reader's cursor stays in
// registers.

/// \brief Encodes fields onto the end of a string. It fails only when a
/// field list meets a value with no encoding (an unknown record type).
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  bool ok() const { return ok_; }
  void Fail() { ok_ = false; }

  void U8(uint8_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I32(int32_t v) { Put(v); }
  void I64(int64_t v) { Put(v); }
  void I64(CivilTime t) { Put(t.seconds_since_epoch()); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Double(double v) { Put(std::bit_cast<uint64_t>(v)); }
  template <typename E>
    requires std::is_same_v<std::underlying_type_t<E>, uint8_t>
  void U8(E v) {
    U8(static_cast<uint8_t>(v));
  }
  template <typename E>
    requires std::is_same_v<std::underlying_type_t<E>, int32_t>
  void I32(E v) {
    I32(static_cast<int32_t>(v));
  }
  /// An enumerator in one byte; `last` bounds what the Reader accepts.
  template <typename E>
    requires std::is_enum_v<E>
  void U8(E v, E /*last*/) {
    U8(static_cast<uint8_t>(v));
  }

  /// A vector's u64 element count; the caller writes the elements.
  template <typename T>
  void Count(const std::vector<T>& v, size_t /*element_bytes*/,
             size_t /*first_bytes*/) {
    U64(v.size());
  }
  /// A vector: its count, then `element(*this, x)` for each entry.
  template <typename T, typename Element>
  void Vector(const std::vector<T>& v, size_t element_bytes,
              Element element) {
    Count(v, element_bytes, element_bytes);
    for (const T& x : v) element(*this, x);
  }
  /// A has-value Bool, then the value's fields only when it has one.
  template <typename T, typename Fields>
  void Optional(const std::optional<T>& v, Fields fields) {
    Bool(v.has_value());
    if (v.has_value()) fields(*this, *v);
  }
  /// A has-value Bool, then a value slot that is always there and holds
  /// zero when the value is absent.
  template <typename T, typename Field>
  void OptionalSlot(const std::optional<T>& v, Field field) {
    Bool(v.has_value());
    field(*this, v.value_or(T{}));
  }

 private:
  template <typename T>
  void Put(T v) {
    const auto bits = static_cast<std::make_unsigned_t<T>>(v);
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
    }
    out_->append(bytes, sizeof(T));
  }

  std::string* out_;
  bool ok_ = true;
};

/// \brief Decodes fields from a byte range, checking every read against
/// its end. The first short read or malformed field fails the Reader for
/// good and later reads consume nothing, so a field list runs to its end
/// and the caller checks done() once.
class Reader {
 public:
  Reader(const void* data, size_t size)
      : p_(static_cast<const unsigned char*>(data)), end_(p_ + size) {}

  /// Every field well formed and every byte read.
  bool done() const { return ok_ && p_ == end_; }
  void Fail() { ok_ = false; }

  void U8(uint8_t& v) { Get(v); }
  void U32(uint32_t& v) { Get(v); }
  void U64(uint64_t& v) { Get(v); }
  void I32(int32_t& v) { Get(v); }
  void I64(int64_t& v) { Get(v); }
  void I64(CivilTime& t) {
    int64_t seconds = 0;
    Get(seconds);
    t = CivilTime(seconds);
  }
  /// Fails on any byte other than 0 and 1, the two a Writer writes.
  void Bool(bool& v) {
    uint8_t byte = 0;
    Get(byte);
    if (byte > 1) Fail();
    v = byte == 1;
  }
  void Double(double& v) {
    uint64_t bits = 0;
    Get(bits);
    v = std::bit_cast<double>(bits);
  }
  template <typename E>
    requires std::is_same_v<std::underlying_type_t<E>, uint8_t>
  void U8(E& v) {
    uint8_t raw = 0;
    Get(raw);
    v = static_cast<E>(raw);
  }
  template <typename E>
    requires std::is_same_v<std::underlying_type_t<E>, int32_t>
  void I32(E& v) {
    int32_t raw = 0;
    Get(raw);
    v = static_cast<E>(raw);
  }
  /// Fails on a byte past `last`, the enum's largest enumerator.
  template <typename E>
    requires std::is_enum_v<E>
  void U8(E& v, E last) {
    uint8_t raw = 0;
    Get(raw);
    if (raw > static_cast<uint8_t>(last)) Fail();
    v = static_cast<E>(raw);
  }

  /// A vector's u64 element count, checked before the vector is sized:
  /// the bytes left must hold that many elements at their smallest
  /// encoding, `element_bytes` each, or `first_bytes` for the first when
  /// the rest of the first element came before the count. So a corrupt
  /// count fails here instead of allocating more than the input could
  /// ever fill. The caller reads the elements.
  template <typename T>
  void Count(std::vector<T>& v, size_t element_bytes, size_t first_bytes) {
    const uint64_t count = CheckedCount(element_bytes, first_bytes);
    if (ok_) v.resize(count);
  }
  /// A vector: its checked count, then each element decoded into a local
  /// and appended (no zero-filled resize ahead of the decode).
  template <typename T, typename Element>
  void Vector(std::vector<T>& v, size_t element_bytes, Element element) {
    const uint64_t count = CheckedCount(element_bytes, element_bytes);
    v.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      T x{};
      element(*this, x);
      v.push_back(std::move(x));
    }
  }
  template <typename T, typename Fields>
  void Optional(std::optional<T>& v, Fields fields) {
    bool has = false;
    Bool(has);
    if (has) fields(*this, v.emplace());
  }
  /// Fails when the value is absent but its slot is not all zero bytes.
  template <typename T, typename Field>
  void OptionalSlot(std::optional<T>& v, Field field) {
    bool has = false;
    Bool(has);
    const unsigned char* slot = p_;
    T value{};
    field(*this, value);
    if (has) {
      v = value;
    } else if (std::any_of(slot, p_, [](unsigned char b) { return b != 0; })) {
      Fail();
    }
  }

 private:
  /// The count Count describes, or 0 once the Reader has failed.
  uint64_t CheckedCount(size_t element_bytes, size_t first_bytes) {
    uint64_t count = 0;
    Get(count);
    const auto left = static_cast<size_t>(end_ - p_);
    if (count > 0 && (left < first_bytes ||
                      count - 1 > (left - first_bytes) / element_bytes)) {
      Fail();
      return 0;
    }
    return count;
  }

  template <typename T>
  void Get(T& v) {
    using Bits = std::make_unsigned_t<T>;
    if (!ok_ || static_cast<size_t>(end_ - p_) < sizeof(T)) {
      ok_ = false;
      return;
    }
    Bits bits = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      bits = static_cast<Bits>(bits | static_cast<Bits>(p_[i]) << (8 * i));
    }
    p_ += sizeof(T);
    v = static_cast<T>(bits);
  }

  const unsigned char* p_;
  const unsigned char* end_;
  bool ok_ = true;
};

// Element and slot callbacks for Vector and OptionalSlot.
inline constexpr auto kI32Field = [](auto& io, auto&& v) { io.I32(v); };
inline constexpr auto kI64Field = [](auto& io, auto&& v) { io.I64(v); };
inline constexpr auto kDoubleField = [](auto& io, auto&& v) { io.Double(v); };
inline constexpr auto kI64Row = [](auto& io, auto& row) {
  for (auto& v : row) io.I64(v);
};

/// The 32-byte trip event both formats store.
inline constexpr size_t kEventBytes = 32;
template <typename Io, typename Event>
inline void EventFields(Io& io, Event& e) {
  io.I64(e.rental_id);
  io.I32(e.from_station);
  io.I32(e.to_station);
  io.I64(e.start_time);
  io.I64(e.end_time);
}

/// An explicit DetectSpec (its initial_partition is not carried:
/// DetectCurrent ignores it).
template <typename Io, typename Spec>
inline void SpecFields(Io& io, Spec& s) {
  io.I32(s.algorithm);
  io.U64(s.options.seed);
  io.Double(s.options.resolution);
  io.OptionalSlot(s.options.max_levels, kI32Field);
  io.OptionalSlot(s.options.max_sweeps_per_level, kI32Field);
  io.OptionalSlot(s.options.max_iterations, kI32Field);
  io.U64(s.options.max_merges);
  io.OptionalSlot(s.options.min_gain, kDoubleField);
  io.OptionalSlot(s.options.min_improvement, kDoubleField);
}

/// A WAL record's payload: its type, then that type's fields. A type
/// with no fields listed here fails the Writer or the Reader.
template <typename Io, typename Record>
inline void PayloadFields(Io& io, Record& r) {
  io.U8(r.type);
  switch (r.type) {
    case WalRecordType::kEvent:
      return EventFields(io, r.event);
    case WalRecordType::kAdvance:
      return io.I64(r.watermark_seconds);
    case WalRecordType::kFlush:
    case WalRecordType::kSnapshot:
      return;
    case WalRecordType::kDetect:
      io.Bool(r.default_spec);
      if (!r.default_spec) SpecFields(io, r.spec);
      return;
  }
  io.Fail();
}

/// A reorder buffer's block; 73 bytes with no buffered event or seen id.
inline constexpr size_t kMinReorderBytes = 73;
template <typename Io, typename State>
inline void ReorderFields(Io& io, State& r) {
  io.I64(r.watermark_seconds);
  io.Bool(r.flushed);
  io.U64(r.reordered_count);
  io.U64(r.late_dropped_count);
  io.U64(r.duplicate_count);
  io.U64(r.released_count);
  io.U64(r.duplicate_ids_high_water);
  io.U64(r.duplicate_ids_evicted);
  io.Vector(r.buffered, kEventBytes,
            [](auto& io2, auto& e) { EventFields(io2, e); });
  io.Vector(r.seen, 16, [](auto& io2, auto& seen) {
    io2.I64(seen.first);
    io2.I64(seen.second);
  });
}

/// A window graph's block; 80 bytes with no ring, pairs or rows.
inline constexpr size_t kMinWindowBytes = 80;
template <typename Io, typename State>
inline void WindowFields(Io& io, State& w) {
  io.I64(w.watermark_seconds);
  io.I64(w.last_event_seconds);
  io.U64(w.ingested_count);
  io.U64(w.delta_desync_count);
  io.U64(w.live_count);
  io.Vector(w.ring, 16, [](auto& io2, auto& e) {
    io2.I64(e.start_seconds);
    io2.I32(e.from);
    io2.I32(e.to);
  });
  io.Vector(w.pairs, 16, [](auto& io2, auto& pair) {
    io2.U64(pair.first);
    io2.I64(pair.second);
  });
  io.Vector(w.day, 7 * 8, kI64Row);
  io.Vector(w.hour, 24 * 8, kI64Row);
  io.Vector(w.endpoint_count, 8, kI64Field);
}

/// The community tracker's counters and its previous partition, if any.
template <typename Io, typename State>
inline void TrackerFields(Io& io, State& t) {
  io.U64(t.refresh_count);
  io.U64(t.escalation_count);
  io.Double(t.previous_modularity);
  io.Optional(t.previous_partition, [](auto& io2, auto& partition) {
    io2.Vector(partition.assignment, 4, kI32Field);
  });
}

/// A checkpoint payload. Shard 0's blocks keep the place they had before
/// sharding; the shard count, every shard's applied counter and shards
/// 1..n-1's blocks follow the tracker. `shards` is never empty.
template <typename Io, typename Checkpoint>
inline void CheckpointFields(Io& io, Checkpoint& c) {
  io.U64(c.wal_seq);
  io.U64(c.station_count);
  io.I64(c.window_seconds);
  io.I64(c.max_lateness_seconds);
  io.U8(c.late_policy, LateEventPolicy::kError);
  io.Bool(c.suppress_duplicates);
  io.Bool(c.flushed);
  io.Bool(c.snapshot_clean);
  io.U64(c.publisher_epoch);
  io.I64(c.published_window_start_seconds);
  io.I64(c.published_window_end_seconds);
  io.U64(c.delta_freeze_count);
  io.U64(c.full_freeze_count);
  io.U64(c.desyncs_published);
  ReorderFields(io, c.shards[0].reorder);
  WindowFields(io, c.shards[0].window);
  TrackerFields(io, c.tracker);
  // Shard 0's blocks came before the count: it must leave 8 bytes for
  // each applied counter and the two smallest blocks for each later shard.
  constexpr size_t kBlocks = kMinReorderBytes + kMinWindowBytes;
  io.Count(c.shards, 8 + kBlocks, 8);
  if (c.shards.empty()) return io.Fail();
  for (auto& shard : c.shards) io.U64(shard.applied);
  for (size_t i = 1; i < c.shards.size(); ++i) {
    ReorderFields(io, c.shards[i].reorder);
    WindowFields(io, c.shards[i].window);
  }
}

}  // namespace bikegraph::stream::internal
