// Pure helpers of the benchmark harness: nearest-rank percentiles, the
// week fold that turns the synthetic dataset into an endless trip stream,
// open-loop schedule accounting, the in-memory span log with self-time
// subtraction, and the metric set a run prints. Everything here is
// deterministic and free of I/O, so harness_test.cc can pin it down.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream/event.h"

namespace perfbench {

using bikegraph::stream::TripEvent;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: derives the independent sub-seeds of one --seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (p in (0, 100]). 0 for an empty sample.
double NearestRank(std::vector<double> samples, double p);

/// The tail percentile `n` samples support: 99, or with fewer than 1000
/// samples the highest one whose nearest rank leaves at least ten samples
/// above it, and never below the median. The benchmark's "p99" metrics
/// use it, so no tail is a single slowest sample.
double TailPercentile(size_t n);

/// Indices, in ascending order, of the fastest `share` of `block_ns` (at
/// least one block; ties go to the earlier block). On a shared host,
/// contention comes in phases of seconds that only ever add time, so the
/// workloads take their end-to-end timings from the fastest blocks of like
/// work: those read the program's speed, not the phase mix.
std::vector<size_t> FastestBlocks(const std::vector<double>& block_ns,
                                  double share);
/// Mean of the FastestBlocks of `block_ns`; 0 when there are none.
double FastestMean(const std::vector<double>& block_ns, double share);

/// The share of its blocks every workload takes those timings from.
inline constexpr double kFastestShare = 0.1;

// ---------------------------------------------------------------------------
// Week fold: the stream workloads' input
// ---------------------------------------------------------------------------

inline constexpr int64_t kDaySeconds = 86400;
inline constexpr int64_t kWeekSeconds = 7 * kDaySeconds;
inline constexpr int64_t kCycleWeeks = 4;
inline constexpr int64_t kCycleSeconds = kCycleWeeks * kWeekSeconds;

/// The dataset's trips folded by whole weeks into one kCycleWeeks-week
/// cycle. Shifting a trip by whole weeks keeps its weekday and hour, so
/// the folded stream carries exactly the GDay/GHour features of the
/// original trips at ~kCycleWeeks/(weeks in the dataset) times the rate.
struct FoldedCycle {
  /// Monday 00:00 on or before the earliest trip start; the cycle covers
  /// [origin, origin + kCycleSeconds).
  int64_t origin_seconds = 0;
  /// Larger than every rental id of the cycle: lap k adds k * id_stride,
  /// so every lap has fresh rental ids.
  int64_t id_stride = 1;
  /// The folded trips in (start, rental_id) order.
  std::vector<TripEvent> events;
};

/// Folds `events` (any order, unique rental ids >= 0) into one cycle.
FoldedCycle FoldWeeks(const std::vector<TripEvent>& events);

/// `event` as it occurs on lap `lap` of the cycle.
TripEvent OnLap(const TripEvent& event, const FoldedCycle& cycle, int64_t lap);

/// One delivery of a trip: which cycle event, on which lap relative to the
/// lap being delivered (0, or -1 for the previous lap's late reports),
/// and when it is reported, in seconds after the lap's start.
struct Arrival {
  uint32_t index = 0;
  int32_t lap_delta = 0;
  int64_t report_offset = 0;
};

/// The delivery order of one lap, identical on every lap. Each trip is
/// reported a uniform 0..max_lag_seconds after its start; with
/// probability `redelivery_prob` it is delivered a second time, still no
/// later than max_lag_seconds after its start (so a reorder horizon of
/// max_lag_seconds admits and de-duplicates every copy). Reports that fall
/// past the cycle's end are delivered at the start of the next lap
/// (lap_delta = -1 there), so laps concatenate in report order. Sorted by
/// report offset; ties keep start order, originals before copies.
std::vector<Arrival> MakeArrivals(const FoldedCycle& cycle,
                                  int64_t max_lag_seconds,
                                  double redelivery_prob, uint64_t seed);

/// The distinct trips delivered on laps [first_lap, last_lap) in full plus
/// the first `last_lap_prefix` deliveries of `last_lap`, in (start,
/// rental_id) order — what a de-duplicating consumer has ingested.
std::vector<TripEvent> DeliveredTrips(const FoldedCycle& cycle,
                                      const std::vector<Arrival>& arrivals,
                                      int64_t first_lap, int64_t last_lap,
                                      size_t last_lap_prefix);

// ---------------------------------------------------------------------------
// Open-loop load generation
// ---------------------------------------------------------------------------

/// A fixed schedule: operation i is due at start_ns + offset_ns + i *
/// period_ns, whether or not the system kept up.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t period_ns = 1;
  int64_t offset_ns = 0;
  int64_t Due(uint64_t i) const {
    return start_ns + offset_ns + static_cast<int64_t>(i) * period_ns;
  }
};

/// Per-operation accounting of an open loop. Latency runs from the due
/// time, so a stall also delays (and is charged to) every operation
/// queued behind it; lateness is how far behind schedule the generator
/// issued the operation.
class OpenLoopLog {
 public:
  void Record(int64_t due_ns, int64_t start_ns, int64_t done_ns) {
    latency_ns_.push_back(static_cast<double>(done_ns - due_ns));
    lateness_ns_.push_back(static_cast<double>(start_ns - due_ns));
  }
  const std::vector<double>& latency_ns() const { return latency_ns_; }
  const std::vector<double>& lateness_ns() const { return lateness_ns_; }

 private:
  std::vector<double> latency_ns_;
  std::vector<double> lateness_ns_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer, made from the benchmark's own code.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index into the same log, -1 for a root
  int64_t tag = -1;     ///< epoch, day, run or batch id
};

/// Spans of one thread, kept in memory until the run ends. Disabled logs
/// record nothing and read no clock.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int32_t Begin(const char* name, int64_t tag = -1);
  void End(int32_t id);
  /// Records an already-timed span under the innermost open one.
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t tag = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span over one scope; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int64_t tag = -1)
      : log_(log.enabled() ? &log : nullptr),
        id_(log_ != nullptr ? log_->Begin(name, tag) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto InSpan(SpanLog& log, const char* name, Fn&& fn) {
  ScopedSpan span(log, name);
  return fn();
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Durations and self times of every span with one name.
struct SpanSummary {
  std::vector<double> duration_ns;
  double total_ns = 0;
  double self_ns = 0;
};
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// An ordered name -> (value, unit) set, printed as the result's
/// "metrics" object.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// Sets every metric of `other` here, overwriting equal names.
  void MergeFrom(const MetricSet& other);
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// JSON string literal with escaping.
std::string JsonString(const std::string& text);
/// Shortest text that reads back as exactly `value`.
std::string JsonNumber(double value);

}  // namespace perfbench
