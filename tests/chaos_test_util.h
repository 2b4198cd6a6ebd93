// Seeded hostile-input generators for the chaos and fault suites
// (stream_chaos_test, stream_fault_test): a planted-community trip stream
// layered with surges, outages, station additions, clock skew, duplicate
// storms and late floods at the admission horizon, and random FaultPlans
// for the I/O fault dimension. Header-only test support; see
// docs/STREAMING.md and docs/DURABILITY.md for how the suites use them.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "core/civil_time.h"
#include "core/io_env.h"
#include "core/rng.h"
#include "stream/event.h"

namespace bikegraph::stream {

/// \brief Knobs for the hostile-input stream generator. Every scenario is
/// independently toggleable so the chaos suite can isolate which hostile
/// pattern breaks an invariant; with all toggles off the generator emits
/// a well-behaved planted-community stream.
struct ChaosConfig {
  uint64_t seed = 1;
  /// Station universe; stations are split into `planted_communities`
  /// equal blocks and ~85% of trips stay inside their block, so
  /// detection over the hostile stream still has structure to find.
  size_t station_count = 48;
  size_t planted_communities = 4;
  /// Stream clock: events span `[start_seconds, start_seconds +
  /// duration_seconds)` with a watermark advance every
  /// `advance_interval_seconds`.
  int64_t start_seconds = 1'600'000'000;
  int64_t duration_seconds = 2 * 86'400;
  double events_per_second = 0.4;
  /// Must match the consuming engine's `max_lateness_seconds`: the
  /// boundary-flood scenario aims events exactly at the admission
  /// horizon `watermark - max_lateness`.
  int64_t max_lateness_seconds = 1800;
  int64_t advance_interval_seconds = 600;

  /// Demand surges: rate multiplies by 3–6x for 5–20 minutes.
  bool demand_surges = true;
  /// Station outages: a station goes silent for 30–120 minutes
  /// mid-stream (its would-be trips are suppressed).
  bool station_outages = true;
  /// Station additions: a quarter of the stations emit nothing until
  /// their activation time somewhere in the first half of the stream.
  bool station_additions = true;
  /// Clock skew: segments of 10–30 minutes during which every emitted
  /// start time is shifted by a constant ±15-minute offset, so events
  /// arrive consistently early or deeply late relative to the watermark.
  bool clock_skew = true;
  /// Duplicate storms: 1–5 minute bursts that re-deliver recent events
  /// verbatim (same rental_id) at roughly double the base rate.
  bool duplicate_storms = true;
  /// Late-event floods at the horizon boundary: bursts of 50–200 events
  /// whose start times sit within ±2 seconds of the admission cutoff,
  /// probing the exact boundary between "late" and "barely admitted".
  bool late_floods = true;
};

/// \brief One step of a chaos stream: an event to ingest or a watermark
/// to advance to.
struct ChaosAction {
  enum class Kind : uint8_t { kEvent, kAdvance };
  Kind kind = Kind::kEvent;
  TripEvent event{};      // kEvent
  CivilTime watermark{};  // kAdvance
};

/// \brief What the generator emitted, for the suite's invariant checks.
/// All counts describe the *generated* stream; the consuming engine's own
/// counters (late, duplicate, released) are what the invariants reconcile
/// against, so these stay descriptive rather than predictive.
struct ChaosStats {
  uint64_t events = 0;
  uint64_t advances = 0;
  uint64_t fresh_events = 0;  ///< events − duplicate_redeliveries
  uint64_t surge_events = 0;
  uint64_t outage_suppressed = 0;
  uint64_t skewed_events = 0;
  uint64_t duplicate_redeliveries = 0;
  uint64_t boundary_flood_events = 0;
  /// Events already below the admission horizon when emitted (the
  /// consuming engine will count them late).
  uint64_t intended_late = 0;
  // How many times each scenario fired.
  uint64_t surges = 0;
  uint64_t outages = 0;
  uint64_t additions = 0;
  uint64_t skew_segments = 0;
  uint64_t duplicate_storms = 0;
  uint64_t late_floods = 0;
  /// Peak number of emitted events whose start time was still above the
  /// admission horizon — an upper bound on how many events a correct
  /// reorder buffer may hold at once (the bounded-memory invariant).
  uint64_t max_events_in_horizon = 0;
};

struct ChaosStream {
  std::vector<ChaosAction> actions;
  ChaosStats stats;
};

/// \brief Generates a deterministic hostile event stream: same config →
/// same actions, byte for byte. See ChaosConfig for the scenario
/// catalogue and docs/STREAMING.md for how the chaos suite consumes it.
inline ChaosStream GenerateChaosStream(const ChaosConfig& config) {
  // Fraction of trips that stay inside their planted community block.
  constexpr double kIntraCommunityFraction = 0.85;
  // Recent events eligible for duplicate-storm redelivery.
  constexpr size_t kRecentWindow = 512;

  ChaosStream out;
  ChaosStats& stats = out.stats;
  if (config.station_count == 0 || config.duration_seconds <= 0) return out;
  Rng rng(config.seed);

  const auto n = static_cast<int64_t>(config.station_count);
  const size_t blocks = std::max<size_t>(1, config.planted_communities);

  // Station activation times: with additions enabled, every fourth
  // station opens somewhere in the first half of the stream; everything
  // else is live from the start.
  std::vector<int64_t> activates_at(config.station_count,
                                    config.start_seconds);
  if (config.station_additions) {
    for (size_t s = 3; s < config.station_count; s += 4) {
      activates_at[s] =
          config.start_seconds + rng.NextInt(1, config.duration_seconds / 2);
      ++stats.additions;
    }
  }
  // Outage intervals, one in flight at a time: [station, until_seconds).
  int64_t outage_station = -1;
  int64_t outage_until = 0;

  // Surge / skew / storm segments, each one in flight at a time.
  int64_t surge_until = 0;
  double surge_multiplier = 1.0;
  int64_t skew_until = 0;
  int64_t skew_offset = 0;
  int64_t storm_until = 0;

  const auto active = [&](int32_t station, int64_t now) {
    if (station == outage_station && now < outage_until) return false;
    return now >= activates_at[static_cast<size_t>(station)];
  };

  // Pick a station uniformly from a planted block.
  const auto pick_in_block = [&](size_t block) {
    const int64_t block_size = (n + static_cast<int64_t>(blocks) - 1) /
                               static_cast<int64_t>(blocks);
    const int64_t lo = static_cast<int64_t>(block) * block_size;
    const int64_t hi = std::min(n, lo + block_size) - 1;
    return static_cast<int32_t>(rng.NextInt(lo, hi));
  };

  std::deque<TripEvent> recent;
  // Start times of emitted events still above the admission horizon —
  // pruned at each advance to track max_events_in_horizon.
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<int64_t>>
      in_horizon;
  int64_t rental_id = 1;
  int64_t watermark = config.start_seconds;
  bool advanced_once = false;

  const auto emit = [&](TripEvent event, bool duplicate) {
    ChaosAction action;
    action.kind = ChaosAction::Kind::kEvent;
    action.event = event;
    out.actions.push_back(action);
    ++stats.events;
    if (duplicate) {
      ++stats.duplicate_redeliveries;
    } else {
      ++stats.fresh_events;
      recent.push_back(event);
      if (recent.size() > kRecentWindow) recent.pop_front();
    }
    const int64_t start = event.start_time.seconds_since_epoch();
    const int64_t cutoff =
        advanced_once ? watermark - config.max_lateness_seconds
                      : INT64_MIN;
    if (start < cutoff) {
      ++stats.intended_late;
    } else if (!duplicate) {
      in_horizon.push(start);
      stats.max_events_in_horizon =
          std::max(stats.max_events_in_horizon,
                   static_cast<uint64_t>(in_horizon.size()));
    }
  };

  const auto fresh_event = [&](int64_t now) {
    const size_t block = rng.NextBounded(blocks);
    const int32_t from = pick_in_block(block);
    const int32_t to = rng.NextDouble() < kIntraCommunityFraction
                           ? pick_in_block(block)
                           : pick_in_block(rng.NextBounded(blocks));
    if (!active(from, now) || !active(to, now)) {
      ++stats.outage_suppressed;
      return;
    }
    TripEvent event;
    event.rental_id = rental_id++;
    event.from_station = from;
    event.to_station = to;
    // Small natural disorder: most trips start within the last two
    // minutes, a tail reaches a quarter of the lateness budget back.
    int64_t start = now - rng.NextInt(0, 120);
    if (rng.NextDouble() < 0.05) {
      start = now - rng.NextInt(0, std::max<int64_t>(
                                       1, config.max_lateness_seconds / 4));
    }
    if (now < skew_until) {
      start += skew_offset;
      ++stats.skewed_events;
    }
    event.start_time = CivilTime(start);
    event.end_time = CivilTime(start + rng.NextInt(120, 1800));
    if (now < surge_until) ++stats.surge_events;
    emit(event, /*duplicate=*/false);
  };

  for (int64_t sec = 0; sec < config.duration_seconds; ++sec) {
    const int64_t now = config.start_seconds + sec;

    // Scenario state machines: one coin per second each, tuned so a
    // two-day run triggers every scenario a handful of times.
    if (config.demand_surges && now >= surge_until &&
        rng.NextDouble() < 1.0 / 7200.0) {
      surge_until = now + rng.NextInt(300, 1200);
      surge_multiplier = static_cast<double>(rng.NextInt(3, 6));
      ++stats.surges;
    }
    if (config.station_outages && now >= outage_until &&
        rng.NextDouble() < 1.0 / 10800.0) {
      outage_station = rng.NextInt(0, n - 1);
      outage_until = now + rng.NextInt(1800, 7200);
      ++stats.outages;
    }
    if (config.clock_skew && now >= skew_until &&
        rng.NextDouble() < 1.0 / 7200.0) {
      skew_until = now + rng.NextInt(600, 1800);
      skew_offset = rng.NextInt(-900, 900);
      ++stats.skew_segments;
    }
    if (config.duplicate_storms && now >= storm_until &&
        rng.NextDouble() < 1.0 / 7200.0) {
      storm_until = now + rng.NextInt(60, 300);
      ++stats.duplicate_storms;
    }

    const double rate = config.events_per_second *
                        (now < surge_until ? surge_multiplier : 1.0);
    const int count = rng.NextPoisson(rate);
    for (int i = 0; i < count; ++i) fresh_event(now);

    if (config.duplicate_storms && now < storm_until && !recent.empty()) {
      const int dups = rng.NextPoisson(config.events_per_second);
      for (int i = 0; i < dups; ++i) {
        emit(recent[rng.NextBounded(recent.size())], /*duplicate=*/true);
      }
    }

    if (config.late_floods && advanced_once &&
        rng.NextDouble() < 1.0 / 10800.0) {
      // Aim a burst at the admission horizon: ±2 seconds around the
      // cutoff, so roughly half land just-late and half barely admit.
      ++stats.late_floods;
      const int64_t cutoff = watermark - config.max_lateness_seconds;
      const int64_t burst = rng.NextInt(50, 200);
      for (int64_t i = 0; i < burst; ++i) {
        TripEvent event;
        event.rental_id = rental_id++;
        const size_t block = rng.NextBounded(blocks);
        event.from_station = pick_in_block(block);
        event.to_station = pick_in_block(block);
        const int64_t start = cutoff + rng.NextInt(-2, 2);
        event.start_time = CivilTime(start);
        event.end_time = CivilTime(start + rng.NextInt(120, 1800));
        ++stats.boundary_flood_events;
        emit(event, /*duplicate=*/false);
      }
    }

    if (config.advance_interval_seconds > 0 && sec > 0 &&
        sec % config.advance_interval_seconds == 0) {
      watermark = now;
      advanced_once = true;
      ChaosAction action;
      action.kind = ChaosAction::Kind::kAdvance;
      action.watermark = CivilTime(watermark);
      out.actions.push_back(action);
      ++stats.advances;
      const int64_t cutoff = watermark - config.max_lateness_seconds;
      while (!in_horizon.empty() && in_horizon.top() <= cutoff) {
        in_horizon.pop();
      }
    }
  }
  return out;
}

/// \brief Knobs for the randomized I/O fault dimension of the chaos
/// suite: seeded FaultPlans crossed with the kill-point recovery
/// machinery (tools/ci.sh --faults).
struct FaultChaosConfig {
  uint64_t seed = 1;
  /// Fault rules to draw (each targets one op with one fault kind over
  /// one call-index window; see FaultPlan).
  size_t rules = 4;
  /// Upper bound on consecutive injected failures per rule window.
  /// In transient-only mode a FaultPolicy with `max_retries >=
  /// max_burst` is guaranteed to ride out every drawn schedule.
  uint32_t max_burst = 3;
  /// Transient-only plans draw exclusively EINTR storms, short writes,
  /// and at most one bounded EAGAIN burst — faults a retrying writer
  /// must absorb without poisoning or degrading. Hostile plans (the
  /// default) add hard errors (EIO, EACCES, persistent ENOSPC), lying
  /// fsyncs, torn renames, and an optional small disk capacity; those
  /// may sink the run, and the invariant becomes "recovery is
  /// bit-identical or loudly failed".
  bool transient_only = false;
};

/// \brief Draws a deterministic FaultPlan from a seeded Rng: same config
/// → same plan. Rule windows are spaced (stride 60 on each op's call
/// index) so failure runs never chain across rules — which is what makes
/// the transient-only guarantee above provable rather than probabilistic.
inline FaultPlan MakeRandomFaultPlan(const FaultChaosConfig& config) {
  // Decorrelate from the stream generator so pairing the same seed for
  // both dimensions does not couple their draws.
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 0xFA01ull);
  FaultPlan plan;
  const uint32_t burst = config.max_burst > 0 ? config.max_burst : 1;
  for (size_t i = 0; i < config.rules; ++i) {
    FaultPlan::Rule rule;
    // Stride 60 per rule index with burst <= min(burst, 59): windows on
    // the same op can never touch, so one failing call retries through
    // at most one rule's window (see the header's transient-only
    // guarantee).
    rule.after = i * 60 + rng.NextBounded(40);
    rule.count = 1 + rng.NextBounded(std::min<uint32_t>(burst, 59));
    if (config.transient_only) {
      switch (rng.NextBounded(4)) {
        case 0:
          rule.op = IoOp::kWrite;
          rule.kind = FaultPlan::Kind::kEintrStorm;
          break;
        case 1:
          rule.op = IoOp::kFsync;
          rule.kind = FaultPlan::Kind::kEintrStorm;
          break;
        case 2:
          rule.op = IoOp::kWrite;
          rule.kind = FaultPlan::Kind::kShortWrite;
          break;
        default:
          // The one budget-consuming transient: a bounded EAGAIN burst
          // on write. Only the first drawn (rule windows never overlap,
          // but keeping a single burst per plan also caps total budget
          // use per plan at `burst`, not per call).
          rule.op = IoOp::kWrite;
          if (std::any_of(plan.rules.begin(), plan.rules.end(),
                          [](const FaultPlan::Rule& r) {
                            return r.kind == FaultPlan::Kind::kError;
                          })) {
            rule.kind = FaultPlan::Kind::kEintrStorm;
          } else {
            rule.kind = FaultPlan::Kind::kError;
            rule.error = EAGAIN;
          }
          break;
      }
    } else {
      switch (rng.NextBounded(8)) {
        case 0:
          rule.op = IoOp::kWrite;
          rule.kind = FaultPlan::Kind::kError;
          rule.error = EIO;
          break;
        case 1:
          rule.op = IoOp::kWrite;
          rule.kind = FaultPlan::Kind::kError;
          rule.error = ENOSPC;
          break;
        case 2:
          rule.op = IoOp::kFsync;
          rule.kind = FaultPlan::Kind::kError;
          rule.error = EIO;
          break;
        case 3:
          rule.op = IoOp::kFsync;
          rule.kind = FaultPlan::Kind::kSyncLie;
          break;
        case 4:
          rule.op = IoOp::kFsyncDir;
          rule.kind = rng.NextBounded(2) == 0 ? FaultPlan::Kind::kSyncLie
                                              : FaultPlan::Kind::kError;
          break;
        case 5:
          rule.op = IoOp::kRename;
          rule.kind = FaultPlan::Kind::kError;
          rule.error = EACCES;
          break;
        case 6:
          rule.op = IoOp::kOpen;
          rule.kind = FaultPlan::Kind::kError;
          rule.error = rng.NextBounded(2) == 0 ? EIO : ENOSPC;
          break;
        default:
          rule.op = IoOp::kWrite;
          rule.kind = rng.NextBounded(2) == 0 ? FaultPlan::Kind::kShortWrite
                                              : FaultPlan::Kind::kEintrStorm;
          break;
      }
    }
    plan.rules.push_back(rule);
  }
  if (!config.transient_only && rng.NextBounded(4) == 0) {
    // Occasionally run on a small simulated disk so steady-state ENOSPC
    // (and the writer's prune self-heal) joins the schedule.
    plan.disk_capacity_bytes = 16384 + rng.NextBounded(1u << 17);
  }
  return plan;
}

}  // namespace bikegraph::stream
