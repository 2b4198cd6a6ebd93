#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "core/rng.h"
#include "geo/geojson.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps an exact rank such as 98.75% of 800 from rounding up.
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double TailPercentile(size_t n) {
  const double count = static_cast<double>(n);
  return n == 0 ? 50.0 : std::clamp(100.0 * (count - 10.0) / count, 50.0, 99.0);
}

std::vector<size_t> FastestBlocks(const std::vector<double>& block_ns,
                                  double share) {
  std::vector<size_t> order(block_ns.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return block_ns[a] < block_ns[b];
  });
  const auto keep = static_cast<size_t>(
      std::ceil(share * static_cast<double>(order.size()) - 1e-9));
  order.resize(std::min(std::max<size_t>(keep, 1), order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

double FastestMean(const std::vector<double>& block_ns, double share) {
  const std::vector<size_t> fastest = FastestBlocks(block_ns, share);
  double sum = 0;
  for (const size_t i : fastest) sum += block_ns[i];
  return fastest.empty() ? 0.0 : sum / static_cast<double>(fastest.size());
}

// ---------------------------------------------------------------------------
// Week fold
// ---------------------------------------------------------------------------

namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  return a / b - ((a % b != 0) && ((a < 0) != (b < 0)) ? 1 : 0);
}

bool StartOrder(const TripEvent& a, const TripEvent& b) {
  return std::tie(a.start_time, a.rental_id) <
         std::tie(b.start_time, b.rental_id);
}

}  // namespace

FoldedCycle FoldWeeks(const std::vector<TripEvent>& events) {
  FoldedCycle cycle;
  if (events.empty()) return cycle;
  int64_t earliest = events.front().start_time.seconds_since_epoch();
  int64_t max_id = 0;
  for (const TripEvent& e : events) {
    earliest = std::min(earliest, e.start_time.seconds_since_epoch());
    max_id = std::max(max_id, e.rental_id);
  }
  // Epoch day 0 (1970-01-01) was a Thursday, so Monday 00:00 sits at
  // day offsets of 4 mod 7.
  const int64_t day = FloorDiv(earliest, kDaySeconds);
  cycle.origin_seconds = (day - (((day - 4) % 7) + 7) % 7) * kDaySeconds;
  cycle.id_stride = max_id + 1;
  cycle.events.reserve(events.size());
  for (const TripEvent& e : events) {
    const int64_t week =
        FloorDiv(e.start_time.seconds_since_epoch() - cycle.origin_seconds,
                 kWeekSeconds);
    const int64_t shift = (week - week % kCycleWeeks) * kWeekSeconds;
    TripEvent folded = e;
    folded.start_time = e.start_time.AddSeconds(-shift);
    folded.end_time = e.end_time.AddSeconds(-shift);
    cycle.events.push_back(folded);
  }
  std::sort(cycle.events.begin(), cycle.events.end(), StartOrder);
  return cycle;
}

TripEvent OnLap(const TripEvent& event, const FoldedCycle& cycle,
                int64_t lap) {
  TripEvent out = event;
  out.rental_id = event.rental_id + lap * cycle.id_stride;
  out.start_time = event.start_time.AddSeconds(lap * kCycleSeconds);
  out.end_time = event.end_time.AddSeconds(lap * kCycleSeconds);
  return out;
}

std::vector<Arrival> MakeArrivals(const FoldedCycle& cycle,
                                  int64_t max_lag_seconds,
                                  double redelivery_prob, uint64_t seed) {
  bikegraph::Rng rng(seed);
  const auto lag_bound = static_cast<uint64_t>(max_lag_seconds) + 1;
  // (report offset, copy, index): sorting keeps start order at equal
  // reports (indices are in start order) and originals before copies.
  std::vector<std::tuple<int64_t, int, uint32_t>> order;
  order.reserve(cycle.events.size() * 2);
  for (size_t i = 0; i < cycle.events.size(); ++i) {
    const int64_t start =
        cycle.events[i].start_time.seconds_since_epoch() -
        cycle.origin_seconds;
    const auto lag = static_cast<int64_t>(rng.NextBounded(lag_bound));
    const auto index = static_cast<uint32_t>(i);
    order.emplace_back(start + lag, 0, index);
    if (rng.NextDouble() < redelivery_prob) {
      const auto extra = static_cast<int64_t>(rng.NextBounded(
          static_cast<uint64_t>(max_lag_seconds - lag) + 1));
      order.emplace_back(start + lag + extra, 1, index);
    }
  }
  // Reports past the cycle's end belong to the next lap's delivery.
  for (auto& entry : order) {
    if (std::get<0>(entry) >= kCycleSeconds) {
      std::get<0>(entry) -= kCycleSeconds;
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<Arrival> arrivals;
  arrivals.reserve(order.size());
  for (const auto& entry : order) {
    const int64_t report = std::get<0>(entry);
    const uint32_t index = std::get<2>(entry);
    const int64_t start =
        cycle.events[index].start_time.seconds_since_epoch() -
        cycle.origin_seconds;
    // A wrapped report precedes its trip's start within the lap.
    arrivals.push_back(Arrival{index, report < start ? -1 : 0, report});
  }
  return arrivals;
}

std::vector<TripEvent> DeliveredTrips(const FoldedCycle& cycle,
                                      const std::vector<Arrival>& arrivals,
                                      int64_t first_lap, int64_t last_lap,
                                      size_t last_lap_prefix) {
  std::vector<TripEvent> trips;
  for (int64_t lap = first_lap; lap <= last_lap; ++lap) {
    const size_t count =
        lap == last_lap ? std::min(last_lap_prefix, arrivals.size())
                        : arrivals.size();
    for (size_t i = 0; i < count; ++i) {
      const int64_t event_lap = lap + arrivals[i].lap_delta;
      if (event_lap < 0) continue;  // lap 0 has no previous lap
      trips.push_back(OnLap(cycle.events[arrivals[i].index], cycle, event_lap));
    }
  }
  std::sort(trips.begin(), trips.end(), StartOrder);
  trips.erase(std::unique(trips.begin(), trips.end(),
                          [](const TripEvent& a, const TripEvent& b) {
                            return a.rental_id == b.rental_id;
                          }),
              trips.end());
  return trips;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int32_t SpanLog::Begin(const char* name, int64_t tag) {
  const auto id = static_cast<int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.tag = tag;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  int64_t tag) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.tag = tag;
  spans_.push_back(span);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;  // end of the covered prefix so far
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& summary = out[spans[i].name];
    const auto duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    summary.duration_ns.push_back(duration);
    summary.total_ns += duration;
    summary.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

bool MetricSet::Has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

void MetricSet::MergeFrom(const MetricSet& other) {
  for (const std::string& name : other.order_) {
    const auto& [value, unit] = other.values_.at(name);
    Set(name, value, unit);
  }
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    if (i > 0) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  out += bikegraph::geo::JsonEscape(text);
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace perfbench
