#include "stream/window_graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "core/logging.h"

#include "core/checked_cast.h"

namespace bikegraph::stream {

namespace {

/// Adds non-negative checkpointed counters into `*total`; false on a
/// negative counter or an int64 overflow.
template <size_t N>
bool AddCounters(const std::array<int64_t, N>& counters, int64_t* total) {
  for (int64_t c : counters) {
    if (c < 0 || c > std::numeric_limits<int64_t>::max() - *total) {
      return false;
    }
    *total += c;
  }
  return true;
}

}  // namespace

Status CheckWindowOptions(const WindowGraphOptions& options) {
  if (options.window_seconds < 0) {
    // Refuse loudly rather than silently behaving like a landmark
    // window: a negative length is a sign bug or a misconverted
    // duration, and "nothing ever expires" is the worst possible guess.
    return Status::InvalidArgument("window_seconds must be >= 0");
  }
  if (options.station_count > kMaxWindowStations) {
    return Status::InvalidArgument(
        "station_count " + std::to_string(options.station_count) +
        " exceeds kMaxWindowStations (" + std::to_string(kMaxWindowStations) +
        "): a window keeps its pair counts in a dense n(n+1)/2 triangle");
  }
  return Status::OK();
}

SlidingWindowGraph::SlidingWindowGraph(const WindowGraphOptions& options)
    : options_(options), options_status_(CheckWindowOptions(options)) {
  const size_t n = options_.station_count;
  day_.assign(n, {});
  hour_.assign(n, {});
  endpoint_count_.assign(n, 0);
  station_listed_.assign(n, 0);
  if (options_status_.ok()) {
    const size_t pairs = n * (n + 1) / 2;
    trips_.assign(pairs, 0);
    live_.assign((pairs + 63) / 64, 0);
    pair_listed_.assign(live_.size(), 0);
  }
}

CivilTime SlidingWindowGraph::window_start() const {
  if (options_.window_seconds <= 0 ||
      watermark_.seconds_since_epoch() == INT64_MIN) {
    return CivilTime(INT64_MIN);
  }
  return watermark_.AddSeconds(-options_.window_seconds);
}

bool SlidingWindowGraph::Contains(CivilTime t) const {
  const int64_t seconds = t.seconds_since_epoch();
  const int64_t mark = watermark_.seconds_since_epoch();
  if (mark == INT64_MIN) return false;  // no event or Advance yet
  if (seconds > mark) return false;
  if (options_.window_seconds <= 0) return true;  // landmark
  // Half-open (mark - W, mark]: the exclusive bound mirrors
  // ExpireOlderThan, which retires start <= mark - W.
  return seconds > mark - options_.window_seconds;
}

Status SlidingWindowGraph::Ingest(const TripEvent& event) {
  if (!options_status_.ok()) return options_status_;
  const auto n = static_cast<int64_t>(options_.station_count);
  if (event.from_station < 0 || event.from_station >= n ||
      event.to_station < 0 || event.to_station >= n) {
    return Status::InvalidArgument("trip event endpoint out of range");
  }
  // Ordering is enforced against the last *ingested* event, not the
  // advanced watermark: a live caller advances to wall-clock time during
  // lulls, and trips arriving afterwards legitimately carry older start
  // times (a trip is reported when it ends). The expiry ring only needs
  // event order to be non-decreasing among events themselves.
  if (event.start_time.seconds_since_epoch() < last_event_seconds_) {
    return Status::FailedPrecondition(
        "trip event at " + event.start_time.ToString() +
        " is older than the previously ingested event (the stream must be "
        "ingested in start-time order)");
  }
  RingEntry entry;
  entry.start_seconds = event.start_time.seconds_since_epoch();
  entry.from = event.from_station;
  entry.to = event.to_station;
  entry.day = static_cast<uint8_t>(event.day());
  entry.hour = static_cast<uint8_t>(event.hour());

  ApplyDelta(entry, +1);
  ++live_count_;
  ++ingested_count_;
  last_event_seconds_ = entry.start_seconds;
  if (watermark_ < event.start_time) watermark_ = event.start_time;
  // Landmark windows never expire, so their events need no expiry
  // bookkeeping — skipping the ring keeps a whole-season replay flat in
  // memory (modulo the pair map). An event already past the advanced
  // watermark's window is pushed then immediately retired by the expiry
  // pass below, leaving the counters consistent.
  if (options_.window_seconds > 0) {
    PushRing(entry);
    ExpireOlderThan(watermark_.seconds_since_epoch() -
                    options_.window_seconds);
  }
  return Status::OK();
}

void SlidingWindowGraph::Advance(CivilTime watermark) {
  if (watermark <= watermark_) return;
  watermark_ = watermark;
  if (options_.window_seconds > 0) {
    ExpireOlderThan(watermark.seconds_since_epoch() -
                    options_.window_seconds);
  }
}

void SlidingWindowGraph::MarkPairDirty(int32_t u, int32_t v, size_t index) {
  uint64_t& listed = pair_listed_[index / 64];
  if ((listed & Bit(index)) != 0) return;
  if (dirty_pairs_.size() >= dirty_pair_limit_) {
    dirty_tracking_ = false;
    return;
  }
  listed |= Bit(index);
  dirty_pairs_.push_back(PairKey(u, v));
}

WindowDirtySet SlidingWindowGraph::DrainDirty(
    std::span<SlidingWindowGraph* const> windows, size_t limit,
    size_t next_limit) {
  WindowDirtySet out;
  out.complete = !windows.empty();
  size_t listed = 0;
  for (const SlidingWindowGraph* window : windows) {
    out.complete = out.complete && window->dirty_tracking_;
    listed += window->dirty_pairs_.size();
  }
  out.complete = out.complete && listed <= limit;
  if (out.complete) out.pairs.reserve(listed);
  for (SlidingWindowGraph* window : windows) {
    if (out.complete) {
      out.pairs.insert(out.pairs.end(), window->dirty_pairs_.begin(),
                       window->dirty_pairs_.end());
      out.stations.insert(out.stations.end(),
                          window->dirty_stations_.begin(),
                          window->dirty_stations_.end());
    }
    // Clear the listed flags through the lists whether or not the epoch
    // was complete: a flag left set would hide that pair's or station's
    // next change from the epoch after this one.
    for (const uint64_t key : window->dirty_pairs_) {
      const size_t index =
          window->PairIndex(static_cast<int32_t>(key >> 32),
                            static_cast<int32_t>(key & 0xFFFFFFFFu));
      window->pair_listed_[index / 64] &= ~Bit(index);
    }
    for (const int32_t station : window->dirty_stations_) {
      window->station_listed_[AsIndex(station)] = 0;
    }
    window->dirty_pairs_.clear();
    window->dirty_stations_.clear();
    window->dirty_tracking_ = true;
    window->dirty_pair_limit_ = next_limit;
  }
  if (out.complete) {
    // Each pair lives in one window, so sorting alone yields their
    // union; a station can be listed by several and needs the unique pass.
    std::sort(out.pairs.begin(), out.pairs.end());
    std::sort(out.stations.begin(), out.stations.end());
    out.stations.erase(std::unique(out.stations.begin(), out.stations.end()),
                       out.stations.end());
  }
  return out;
}

void SlidingWindowGraph::ApplyDelta(const RingEntry& e, int32_t delta) {
  const size_t index = PairIndex(e.from, e.to);
  int32_t& trips = trips_[index];
  if (delta > 0) {
    if (trips++ == 0) {
      live_[index / 64] |= Bit(index);
      ++pair_count_;
    }
  } else {
    if (trips == 0) {
      // An expiry reversal for a pair with no live trip means the ring
      // and the pair counts desynced — a library bug. Driving the count
      // negative would be silent corruption; skip the whole reversal
      // (counters included, they are just as suspect) and make the
      // corruption loud instead.
      assert(false && "expiry reversal for an unknown station pair");
      ++delta_desync_count_;
      BIKEGRAPH_LOG(Error)
          << "SlidingWindowGraph: expiry reversal for unknown pair ("
          << e.from << ", " << e.to << "); skipping reversal "
          << "(expiry ring desynced from the pair counts)";
      return;
    }
    if (--trips == 0) {
      live_[index / 64] &= ~Bit(index);
      --pair_count_;
    }
  }
  if (dirty_tracking_) MarkPairDirty(e.from, e.to, index);
  for (int32_t station : {e.from, e.to}) {
    day_[AsIndex(station)][e.day] += delta;
    hour_[AsIndex(station)][e.hour] += delta;
    endpoint_count_[AsIndex(station)] += delta;
    if (dirty_tracking_ && station_listed_[AsIndex(station)] == 0) {
      station_listed_[AsIndex(station)] = 1;
      dirty_stations_.push_back(station);
    }
  }
}

void SlidingWindowGraph::ExpireOlderThan(int64_t cutoff_seconds) {
  while (ring_count_ > 0) {
    const RingEntry& oldest = ring_[ring_head_];
    if (oldest.start_seconds > cutoff_seconds) break;
    ApplyDelta(oldest, -1);
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_count_;
    --live_count_;
  }
}

void SlidingWindowGraph::PushRing(const RingEntry& e) {
  if (ring_count_ == ring_.size()) {
    // Re-linearise into a buffer of the next power of two (PairKey-style
    // masking keeps the wrap branch-free on the hot path).
    const size_t new_cap = std::max<size_t>(1024, ring_.size() * 2);
    std::vector<RingEntry> grown(new_cap);
    for (size_t i = 0; i < ring_count_; ++i) {
      grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = e;
  ++ring_count_;
}

WindowGraphState SlidingWindowGraph::ExportState() const {
  WindowGraphState state;
  state.watermark_seconds = watermark_.seconds_since_epoch();
  state.last_event_seconds = last_event_seconds_;
  state.ingested_count = ingested_count_;
  state.delta_desync_count = delta_desync_count_;
  state.live_count = live_count_;
  if (options_.window_seconds > 0) {
    state.ring.reserve(ring_count_);
    for (size_t i = 0; i < ring_count_; ++i) {
      const RingEntry& e = ring_[(ring_head_ + i) & (ring_.size() - 1)];
      state.ring.push_back({e.start_seconds, e.from, e.to});
    }
  } else {
    state.pairs.reserve(pair_count_);
    ForEachPair([&](int32_t u, int32_t v, int64_t trips) {
      state.pairs.emplace_back(PairKey(u, v), trips);
    });
    state.day = day_;
    state.hour = hour_;
    state.endpoint_count = endpoint_count_;
  }
  return state;
}

Status SlidingWindowGraph::RestoreState(const WindowGraphState& state) {
  if (!options_status_.ok()) return options_status_;
  const auto n = static_cast<int64_t>(options_.station_count);
  *this = SlidingWindowGraph(WindowGraphOptions(options_));
  if (options_.window_seconds > 0) {
    // Re-apply the live events: the counters are exactly the sum of
    // their deltas (integral arithmetic, so bit-identical to the run
    // that built them), and the ring regains the day/hour fields from
    // calendar math on the start times.
    int64_t prev = INT64_MIN;
    for (const WindowGraphState::RingEvent& e : state.ring) {
      if (e.start_seconds < prev) {
        return Status::DataLoss(
            "checkpointed window ring is not in start-time order");
      }
      prev = e.start_seconds;
      if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
        return Status::DataLoss(
            "checkpointed window ring holds an out-of-range station");
      }
      const CivilTime start(e.start_seconds);
      RingEntry entry;
      entry.start_seconds = e.start_seconds;
      entry.from = e.from;
      entry.to = e.to;
      entry.day = static_cast<uint8_t>(start.weekday());
      entry.hour = static_cast<uint8_t>(start.hour());
      ApplyDelta(entry, +1);
      PushRing(entry);
      ++live_count_;
    }
  } else {
    if (state.day.size() != options_.station_count ||
        state.hour.size() != options_.station_count ||
        state.endpoint_count.size() != options_.station_count) {
      return Status::DataLoss(
          "checkpointed window profiles do not cover the station universe");
    }
    int64_t restored_trips = 0;
    for (size_t i = 0; i < state.pairs.size(); ++i) {
      const auto& [key, trips] = state.pairs[i];
      const auto u = static_cast<int32_t>(key >> 32);
      const auto v = static_cast<int32_t>(key & 0xFFFFFFFFu);
      if (u < 0 || u >= n || v < u || v >= n || trips <= 0 ||
          trips > std::numeric_limits<int32_t>::max()) {
        // The trips bound matters: the pair counts are int32_t, so a
        // corrupt (or malicious) checkpoint holding e.g. 2^32 + 1 would
        // otherwise restore silently as 1 trip.
        return Status::DataLoss(
            "checkpointed window pair map holds an invalid entry");
      }
      if (i > 0 && state.pairs[i - 1].first >= key) {
        return Status::DataLoss(
            "checkpointed window pair keys are not strictly ascending");
      }
      // Each count is below 2^31, so the sum cannot overflow short of
      // 2^32 pairs (64 GiB of state).
      restored_trips += trips;
      const size_t index = PairIndex(u, v);
      trips_[index] = static_cast<int32_t>(trips);
      live_[index / 64] |= Bit(index);
    }
    pair_count_ = state.pairs.size();
    if (static_cast<uint64_t>(restored_trips) != state.live_count) {
      return Status::DataLoss(
          "checkpointed window pair trips do not sum to its live_count");
    }
    int64_t endpoint_total = 0;
    for (size_t s = 0; s < options_.station_count; ++s) {
      int64_t day_total = 0;
      int64_t hour_total = 0;
      const int64_t endpoints = state.endpoint_count[s];
      if (!AddCounters(state.day[s], &day_total) ||
          !AddCounters(state.hour[s], &hour_total) ||
          day_total != endpoints || hour_total != endpoints ||
          endpoints > std::numeric_limits<int64_t>::max() - endpoint_total) {
        return Status::DataLoss(
            "checkpointed window station counters do not sum to its "
            "endpoint count");
      }
      endpoint_total += endpoints;
    }
    if (static_cast<uint64_t>(endpoint_total) != 2 * state.live_count) {
      return Status::DataLoss(
          "checkpointed window endpoint counts do not sum to twice its "
          "live_count");
    }
    day_ = state.day;
    hour_ = state.hour;
    endpoint_count_ = state.endpoint_count;
    live_count_ = state.live_count;
  }
  if (live_count_ != state.live_count) {
    return Status::DataLoss(
        "checkpointed window live_count does not match its ring");
  }
  watermark_ = CivilTime(state.watermark_seconds);
  last_event_seconds_ = state.last_event_seconds;
  ingested_count_ = state.ingested_count;
  delta_desync_count_ = state.delta_desync_count;
  return Status::OK();
}

}  // namespace bikegraph::stream
