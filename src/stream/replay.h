#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/result.h"
#include "data/dataset.h"
#include "expansion/final_network.h"
#include "stream/engine.h"
#include "stream/event.h"

namespace bikegraph::stream {

/// \brief How fast — and how tidily — a replay runs.
struct ReplayOptions {
  /// Event-time seconds replayed per wall-clock second; 0 (the default)
  /// replays as fast as possible (no sleeping — the mode tests and
  /// benches use). E.g. 86400 compresses a day of trips into a second.
  double speed = 0.0;
  /// Seeded arrival jitter, for exercising the reorder buffer: each
  /// event's *arrival* is delayed by a uniform 0..shuffle_seconds report
  /// lag (its start/end times are untouched) and the stream is re-sorted
  /// by report time, so events arrive up to `shuffle_seconds` out of
  /// start-time order — the shape of a live feed that reports trips when
  /// they end. An engine whose `max_lateness_seconds >=
  /// shuffle_seconds` absorbs the jitter completely. 0 (the default)
  /// replays in sorted start-time order.
  int64_t shuffle_seconds = 0;
  /// Seed for the jitter; the perturbed order is fully determined by
  /// (shuffle_seconds, shuffle_seed), so jittered runs are reproducible.
  uint64_t shuffle_seed = 0x5EEDF00D;
};

/// \brief A TripEvent stream in arrival order plus each event's report
/// (arrival) time — what JitterArrivalOrder produces.
struct JitteredStream {
  /// Events ordered by report time (ties keep start-time order).
  std::vector<TripEvent> events;
  /// Non-decreasing report time per event, seconds since epoch
  /// (`events[i]` "arrives" at `report_seconds[i]`).
  std::vector<int64_t> report_seconds;
};

/// \brief Re-sorts `events` (already in start-time order) by a perturbed
/// report time: start + uniform 0..shuffle_seconds lag, drawn from
/// `seed`. Fully deterministic; an event can precede another that
/// started up to `shuffle_seconds` earlier, and never more — the jitter
/// is exactly absorbed by a reorder horizon of `shuffle_seconds`. The
/// one shared jitter model: ReplaySource, the reorder bench and the
/// equivalence tests all use it. `shuffle_seconds <= 0` passes the
/// stream through (report time = start time).
JitteredStream JitterArrivalOrder(std::vector<TripEvent> events,
                                  int64_t shuffle_seconds, uint64_t seed);

/// \brief Turns a dataset (real or synthetic) into an ordered TripEvent
/// stream — the bridge between the batch world and the streaming engine.
///
/// Construction resolves every rental's endpoints to station ids via a
/// `StationMapper` (or a FinalNetwork's location→station map), drops
/// unmappable rentals (counted), and sorts by event time. Consumption is
/// pull-based (`Next`) or push-based (`ReplayInto`), with optional
/// wall-clock pacing for live demos.
class ReplaySource {
 public:
  /// Stream over `dataset`'s rentals with endpoints mapped by
  /// `map_location`.
  static ReplaySource FromDataset(const data::Dataset& dataset,
                                  const StationMapper& map_location,
                                  const ReplayOptions& options = {});

  /// Stream over the cleaned dataset of a batch run, mapped onto the
  /// expanded network's stations — replaying this through a landmark
  /// window reproduces the batch trip multigraph exactly.
  static ReplaySource FromFinalNetwork(const data::Dataset& cleaned,
                                       const expansion::FinalNetwork& network,
                                       const ReplayOptions& options = {});

  /// The full ordered event stream.
  const std::vector<TripEvent>& events() const { return events_; }
  /// Rentals dropped because an endpoint had no station mapping.
  size_t dropped_count() const { return dropped_; }

  bool Done() const { return cursor_ >= events_.size(); }
  size_t remaining() const { return events_.size() - cursor_; }

  /// Consumes and returns the next event. With a positive replay speed,
  /// sleeps so consecutive events are spaced (arrival-time delta)/speed
  /// apart in wall time — arrival time is the jittered report time when
  /// `shuffle_seconds > 0` (report times are non-decreasing, so a
  /// jittered replay paces at the same overall speed as an ordered one)
  /// and the event start time otherwise.
  std::optional<TripEvent> Next();

  /// Rewinds to the start of the stream.
  void Rewind() { cursor_ = 0; }

  /// Drains the whole stream into `engine` (Ingest per event), honouring
  /// the replay speed, then flushes the engine's reorder buffer so every
  /// jittered straggler lands in the window (a no-op for ordered
  /// replays). Returns the first ingestion error, if any.
  Status ReplayInto(StreamEngine* engine);

 private:
  ReplaySource(JitteredStream stream, size_t dropped, ReplayOptions options)
      : events_(std::move(stream.events)),
        report_seconds_(std::move(stream.report_seconds)),
        dropped_(dropped),
        options_(options) {}

  std::vector<TripEvent> events_;
  /// Arrival time per event (empty when the stream is unjittered and
  /// arrival time == start time).
  std::vector<int64_t> report_seconds_;
  size_t dropped_ = 0;
  ReplayOptions options_;
  size_t cursor_ = 0;
};

}  // namespace bikegraph::stream
