// Tests of the harness's pure helpers: the week fold and lapping, the
// delivery order, nearest-rank percentiles, span self-time subtraction
// and open-loop due-time/lateness accounting. Run with
// `python3 perfbench/run.py --selftest`.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/civil_time.h"
#include "harness.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++g_failures;                                                     \
    }                                                                   \
  } while (false)

using bikegraph::CivilTime;

/// Trips spread over ~60 weeks, one every 7h13m, with shuffled ids.
std::vector<TripEvent> SpreadTrips() {
  std::vector<TripEvent> trips;
  const CivilTime first = CivilTime::FromCalendar(2020, 1, 3, 5, 17).ValueOrDie();
  for (int64_t i = 0; i < 1400; ++i) {
    TripEvent e;
    e.rental_id = (i * 7919) % 1400 + 1;
    e.from_station = static_cast<int32_t>(i % 11);
    e.to_station = static_cast<int32_t>((i * 3) % 11);
    e.start_time = first.AddSeconds(i * (7 * 3600 + 13 * 60));
    e.end_time = e.start_time.AddSeconds(600 + i % 900);
    trips.push_back(e);
  }
  return trips;
}

void TestFoldKeepsWeekdayAndHour() {
  const std::vector<TripEvent> trips = SpreadTrips();
  const FoldedCycle cycle = FoldWeeks(trips);
  CHECK(cycle.events.size() == trips.size());
  const CivilTime origin(cycle.origin_seconds);
  CHECK(origin.weekday() == bikegraph::Weekday::kMonday);
  CHECK(origin.hour() == 0 && origin.minute() == 0 && origin.second() == 0);
  CHECK(cycle.origin_seconds <= trips.front().start_time.seconds_since_epoch());
  CHECK(trips.front().start_time.seconds_since_epoch() - cycle.origin_seconds <
        kWeekSeconds);
  int64_t max_id = 0;
  for (const TripEvent& e : trips) max_id = std::max(max_id, e.rental_id);
  CHECK(cycle.id_stride > max_id);
  // Every folded trip matches its original by id, weekday, hour, duration
  // and endpoints, and lies inside the cycle.
  std::vector<const TripEvent*> by_id(static_cast<size_t>(max_id) + 1, nullptr);
  for (const TripEvent& e : trips) by_id[static_cast<size_t>(e.rental_id)] = &e;
  for (size_t i = 0; i < cycle.events.size(); ++i) {
    const TripEvent& f = cycle.events[i];
    const TripEvent& o = *by_id[static_cast<size_t>(f.rental_id)];
    const int64_t offset = f.start_time.seconds_since_epoch() - cycle.origin_seconds;
    CHECK(offset >= 0 && offset < kCycleSeconds);
    CHECK(f.start_time.weekday() == o.start_time.weekday());
    CHECK(f.start_time.hour() == o.start_time.hour());
    CHECK(f.day() == o.day() && f.hour() == o.hour());
    CHECK(f.end_time.seconds_since_epoch() - f.start_time.seconds_since_epoch() ==
          o.end_time.seconds_since_epoch() - o.start_time.seconds_since_epoch());
    CHECK(f.from_station == o.from_station && f.to_station == o.to_station);
    if (i > 0) {
      const TripEvent& p = cycle.events[i - 1];
      CHECK(p.start_time < f.start_time ||
            (p.start_time == f.start_time && p.rental_id < f.rental_id));
    }
  }
}

void TestLapsHaveFreshIdsAndSameFeatures() {
  const FoldedCycle cycle = FoldWeeks(SpreadTrips());
  std::set<int64_t> ids;
  for (int64_t lap = 0; lap < 4; ++lap) {
    for (const TripEvent& e : cycle.events) {
      const TripEvent l = OnLap(e, cycle, lap);
      ids.insert(l.rental_id);
      CHECK(l.day() == e.day() && l.hour() == e.hour());
      CHECK(l.start_time.seconds_since_epoch() - e.start_time.seconds_since_epoch() ==
            lap * kCycleSeconds);
    }
  }
  CHECK(ids.size() == 4 * cycle.events.size());
}

void TestArrivalsStayInsideTheHorizon() {
  const FoldedCycle cycle = FoldWeeks(SpreadTrips());
  const int64_t lag = 900;
  const std::vector<Arrival> arrivals = MakeArrivals(cycle, lag, 0.25, 42);
  const std::vector<Arrival> again = MakeArrivals(cycle, lag, 0.25, 42);
  CHECK(arrivals.size() == again.size());
  std::vector<int> copies(cycle.events.size(), 0);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    CHECK(a.index == again[i].index && a.report_offset == again[i].report_offset);
    ++copies[a.index];
    if (i > 0) CHECK(arrivals[i - 1].report_offset <= a.report_offset);
    const int64_t start =
        cycle.events[a.index].start_time.seconds_since_epoch() - cycle.origin_seconds;
    const int64_t report = a.report_offset - a.lap_delta * kCycleSeconds;
    CHECK(report >= start && report <= start + lag);
    CHECK(a.report_offset >= 0 && a.report_offset < kCycleSeconds);
  }
  size_t redelivered = 0;
  for (const int c : copies) {
    CHECK(c == 1 || c == 2);
    if (c == 2) ++redelivered;
  }
  CHECK(redelivered > 0 && redelivered < cycle.events.size() / 2);
  // A de-duplicating consumer of laps 0..2 sees every trip of laps 0 and 1
  // once, plus lap 1's trips whose reports wrapped into lap 2's prefix.
  const std::vector<TripEvent> two_laps =
      DeliveredTrips(cycle, arrivals, 0, 1, arrivals.size());
  size_t wrapped = 0;
  for (const Arrival& a : arrivals) wrapped += a.lap_delta == -1 ? 1 : 0;
  CHECK(two_laps.size() + wrapped >= 2 * cycle.events.size());
  CHECK(two_laps.size() <= 2 * cycle.events.size());
  for (size_t i = 1; i < two_laps.size(); ++i) {
    CHECK(two_laps[i - 1].rental_id != two_laps[i].rental_id);
    CHECK(two_laps[i - 1].start_time <= two_laps[i].start_time);
  }
}

void TestNearestRank() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  CHECK(NearestRank(hundred, 50) == 50);
  CHECK(NearestRank(hundred, 99) == 99);
  CHECK(NearestRank(hundred, 100) == 100);
  CHECK(NearestRank(hundred, 0.5) == 1);
  const std::vector<double> ten = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  CHECK(NearestRank(ten, 50) == 3);   // 5th of 1 1 2 3 3 4 5 5 6 9
  CHECK(NearestRank(ten, 99) == 9);   // fewer than 100 samples: the max
  CHECK(NearestRank({7}, 99) == 7);
  CHECK(NearestRank({}, 50) == 0);
}

void TestTailPercentile() {
  // Ten samples above the tail's nearest rank, between the median and p99.
  for (const size_t n : std::vector<size_t>{20, 25, 137, 800, 999, 1000}) {
    std::vector<double> samples;
    for (size_t i = 1; i <= n; ++i) samples.push_back(static_cast<double>(i));
    const double p = TailPercentile(n);
    CHECK(NearestRank(samples, p) == static_cast<double>(n - 10));
  }
  CHECK(TailPercentile(25) == 60);
  CHECK(TailPercentile(5000) == 99);
  CHECK(TailPercentile(12) == 50);
  CHECK(TailPercentile(0) == 50);
}

void TestFastestBlocks() {
  const std::vector<double> blocks = {9, 4, 7, 4, 12, 3, 8, 15, 6, 10, 11};
  CHECK(FastestBlocks(blocks, 0.1) == (std::vector<size_t>{1, 5}));  // 1.1 -> 2
  CHECK(FastestBlocks(blocks, 0.25) == (std::vector<size_t>{1, 3, 5}));
  CHECK(FastestBlocks(blocks, 1.0).size() == blocks.size());
  CHECK(FastestBlocks({5, 2}, 0.01) == (std::vector<size_t>{1}));  // at least one
  CHECK(FastestBlocks({}, 0.1).empty());
  CHECK(FastestMean(blocks, 0.25) == (4.0 + 4.0 + 3.0) / 3);
  CHECK(FastestMean({}, 0.1) == 0);
}

void TestSelfTimeSubtraction() {
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 0};
  spans[1] = {"a", 10, 30, 0, 0};
  spans[2] = {"b", 20, 50, 0, 0};    // overlaps a: [10, 50) covered once
  spans[3] = {"c", 90, 120, 0, 0};   // clipped to the parent's end
  spans[4] = {"d", 25, 28, 2, 0};    // grandchild: only b loses it
  const std::vector<int64_t> self = SelfTimes(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20);
  CHECK(self[2] == 30 - 3);
  CHECK(self[3] == 30);
  CHECK(self[4] == 3);
  const auto summary = Summarize(spans);
  CHECK(summary.at("root").self_ns == 50);
  CHECK(summary.at("b").total_ns == 30);

  SpanLog log;
  log.set_enabled(true);
  const int32_t outer = log.Begin("outer", 7);
  { ScopedSpan inner(log, "inner"); }
  log.Add("added", 1, 2);
  log.End(outer);
  { ScopedSpan root(log, "root2"); }
  CHECK(log.spans().size() == 4);
  CHECK(log.spans()[1].parent == outer && log.spans()[2].parent == outer);
  CHECK(log.spans()[3].parent == -1 && log.spans()[0].tag == 7);
  SpanLog off;
  { ScopedSpan none(off, "none"); }
  CHECK(off.spans().empty());
}

/// One client issuing `service_ns.size()` operations on `schedule` the way
/// the serve workload's threads do: each starts at its due time or when
/// the previous one finishes, whichever is later.
OpenLoopLog SimulateOpenLoop(const OpenLoopSchedule& schedule,
                             const std::vector<int64_t>& service_ns) {
  OpenLoopLog log;
  int64_t free_at = INT64_MIN;
  for (size_t i = 0; i < service_ns.size(); ++i) {
    const int64_t due = schedule.Due(i);
    const int64_t start = std::max(due, free_at);
    free_at = start + service_ns[i];
    log.Record(due, start, free_at);
  }
  return log;
}

void TestOpenLoopAccounting() {
  const OpenLoopSchedule schedule{1000, 100, 25};
  CHECK(schedule.Due(0) == 1025 && schedule.Due(3) == 1325);
  // The second operation stalls for 350: the ones behind it start late
  // and are charged the backlog from their due times until the loop has
  // caught up again (the last one starts on time).
  const OpenLoopLog log = SimulateOpenLoop(OpenLoopSchedule{0, 100, 0},
                                           {50, 350, 50, 50, 50, 10, 10, 10});
  const std::vector<double> latency = {50, 350, 300, 250, 200, 110, 20, 10};
  const std::vector<double> lateness = {0, 0, 250, 200, 150, 100, 10, 0};
  CHECK(log.latency_ns() == latency);
  CHECK(log.lateness_ns() == lateness);
  OpenLoopLog direct;
  direct.Record(500, 520, 600);
  CHECK(direct.latency_ns()[0] == 100 && direct.lateness_ns()[0] == 20);
}

void TestJson() {
  CHECK(JsonNumber(0.1) == "0.1");
  CHECK(JsonNumber(1.2034) == "1.2034");
  CHECK(JsonNumber(3) == "3");
  CHECK(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
  MetricSet set;
  set.Set("b", 2, "s");
  set.Set("a", 1.5, "ms");
  CHECK(set.ToJson() ==
        "{\"b\": {\"value\": 2, \"unit\": \"s\"}, "
        "\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestFoldKeepsWeekdayAndHour();
  perfbench::TestLapsHaveFreshIdsAndSameFeatures();
  perfbench::TestArrivalsStayInsideTheHorizon();
  perfbench::TestNearestRank();
  perfbench::TestTailPercentile();
  perfbench::TestFastestBlocks();
  perfbench::TestSelfTimeSubtraction();
  perfbench::TestOpenLoopAccounting();
  perfbench::TestJson();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("harness tests passed\n");
  return 0;
}
