// Fleet rebalancing planner — operationalises the paper's conclusion that
// "bikes could be moved from Communities 2, 4, and 6 to Communities 1, 3,
// and 7 each Friday night to prepare for the shift in demand over the
// weekend". Detects GDay communities, classifies their weekly demand
// patterns, computes net weekday->weekend demand shifts, and prints a
// Friday-night transfer plan plus per-community flow imbalances.
//
//   $ ./build/examples/fleet_rebalancing

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "analysis/experiment.h"
#include "viz/ascii_table.h"

#include "core/checked_cast.h"

using namespace bikegraph;

int main() {
  auto result = analysis::RunPaperExperiment(analysis::ExperimentConfig{});
  if (!result.ok()) {
    std::cerr << "experiment failed: " << result.status() << "\n";
    return 1;
  }
  const auto& r = result.ValueOrDie();
  const auto& net = r.pipeline.final_network;
  const auto& partition = r.gday.detection.partition;

  auto day_shares = analysis::CommunityDayShares(net, partition);
  if (!day_shares.ok()) {
    std::cerr << day_shares.status() << "\n";
    return 1;
  }
  const auto& stats = r.gday.stats;

  // Demand-shift score: weekend share minus weekday share, weighted by the
  // community's trip volume — positive means the community needs bikes at
  // the weekend.
  struct Row {
    size_t id;
    double weekend_shift;  // extra trips/day needed at the weekend
    int64_t volume;
    int64_t net_inflow;  // in - out (chronic imbalance)
    analysis::DayPattern pattern;
  };
  std::vector<Row> rows;
  for (size_t c = 0; c < day_shares->size(); ++c) {
    const auto& shares = (*day_shares)[c];
    double weekday = 0.0, weekend = 0.0;
    for (int d = 0; d < 5; ++d) weekday += shares[AsIndex(d)];
    weekend = shares[5] + shares[6];
    // Normalise to per-day rates before differencing.
    const double shift = weekend / 2.0 - weekday / 5.0;
    const int64_t volume = stats.rows[c].within + stats.rows[c].out;
    // Per-day trip rate over the ~625-day study window.
    const double daily_rate = 7.0 * static_cast<double>(volume) / 625.0;
    rows.push_back({c + 1, shift * daily_rate, volume,
                    stats.rows[c].in - stats.rows[c].out,
                    analysis::ClassifyDayPattern(shares)});
  }

  viz::AsciiTable t({"Community", "Total trips", "Weekend demand shift",
                     "Chronic net inflow", "Pattern"});
  for (const auto& row : rows) {
    const char* pattern =
        row.pattern == analysis::DayPattern::kWeekdayCommute ? "commute"
        : row.pattern == analysis::DayPattern::kWeekendLeisure ? "leisure"
                                                               : "flat";
    char shift[24];
    std::snprintf(shift, sizeof(shift), "%+.1f trips/day", row.weekend_shift);
    t.AddRow({std::to_string(row.id), std::to_string(row.volume), shift,
              std::to_string(row.net_inflow), pattern});
  }
  std::printf("GDay community demand profile:\n%s\n", t.ToString().c_str());

  // Friday-night plan: donors = largest negative shift, receivers = largest
  // positive shift; transfer sized by the smaller of the two.
  std::vector<const Row*> donors, receivers;
  for (const auto& row : rows) {
    (row.weekend_shift < 0 ? donors : receivers).push_back(&row);
  }
  std::sort(donors.begin(), donors.end(), [](const Row* a, const Row* b) {
    return a->weekend_shift < b->weekend_shift;
  });
  std::sort(receivers.begin(), receivers.end(), [](const Row* a, const Row* b) {
    return a->weekend_shift > b->weekend_shift;
  });

  std::printf("Friday-night rebalancing plan (paper §V-C2):\n");
  size_t d = 0, g = 0;
  double donor_budget = 0, receiver_need = 0;
  while (d < donors.size() && g < receivers.size()) {
    if (donor_budget <= 0) donor_budget = -donors[d]->weekend_shift;
    if (receiver_need <= 0) receiver_need = receivers[g]->weekend_shift;
    // ~1 bike per extra weekend trip/day (95 bikes serve ~100 trips/day
    // at the paper's scale).
    const double moved = std::min(donor_budget, receiver_need);
    const int bikes = std::max(1, static_cast<int>(moved + 0.5));
    std::printf("  move ~%2d bikes: community %zu -> community %zu\n", bikes,
                donors[d]->id, receivers[g]->id);
    donor_budget -= moved;
    receiver_need -= moved;
    if (donor_budget <= 0) ++d;
    if (receiver_need <= 0) ++g;
  }

  // Station-level drill-down: the most central stations of the busiest
  // receiver community are the natural drop points.
  if (!receivers.empty()) {
    const size_t target = receivers[0]->id - 1;
    std::printf("\nDrop points in community %zu (top strength stations):\n",
                target + 1);
    std::vector<std::pair<double, size_t>> strengths;
    for (size_t s = 0; s < net.stations.size(); ++s) {
      if (static_cast<size_t>(partition.assignment[s]) != target) continue;
      strengths.push_back({r.gday.graph.strength(static_cast<int32_t>(s)), s});
    }
    std::sort(strengths.rbegin(), strengths.rend());
    for (size_t i = 0; i < std::min<size_t>(5, strengths.size()); ++i) {
      const auto& st = net.stations[strengths[i].second];
      std::printf("  %-40s (%.5f, %.5f)%s\n", st.name.c_str(), st.position.lat,
                  st.position.lon, st.pre_existing ? "" : "  [new]");
    }
  }
  return 0;
}
