#include "analysis/community_stats.h"

#include <algorithm>
#include <cmath>

#include "core/checked_cast.h"

namespace bikegraph::analysis {

double CommunityTripStats::SelfContainedFraction() const {
  int64_t within = 0, total = 0;
  for (const auto& row : rows) {
    within += row.within;
    total += row.within + row.out;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(within) / static_cast<double>(total);
}

int64_t CommunityTripStats::TotalTrips() const {
  int64_t total = 0;
  for (const auto& row : rows) total += row.within + row.out;
  return total;
}

namespace {

Status CheckPartition(const expansion::FinalNetwork& network,
                      const community::Partition& partition) {
  if (partition.assignment.size() != network.stations.size()) {
    return Status::InvalidArgument(
        "partition size does not match station count");
  }
  for (int32_t c : partition.assignment) {
    if (c < 0) return Status::InvalidArgument("negative community label");
  }
  return Status::OK();
}

}  // namespace

Result<CommunityTripStats> ComputeCommunityTripStats(
    const expansion::FinalNetwork& network,
    const community::Partition& partition) {
  BIKEGRAPH_RETURN_NOT_OK(CheckPartition(network, partition));
  CommunityTripStats stats;
  stats.rows.assign(partition.CommunityCount(), {});

  for (size_t s = 0; s < network.stations.size(); ++s) {
    auto& row = stats.rows[AsIndex(partition.assignment[s])];
    if (network.stations[s].pre_existing) {
      ++row.old_stations;
    } else {
      ++row.new_stations;
    }
  }

  for (const graphdb::Trip& trip : network.graph.trips()) {
    const int32_t cf = partition.assignment[AsIndex(trip.from)];
    const int32_t ct = partition.assignment[AsIndex(trip.to)];
    if (cf == ct) {
      ++stats.rows[AsIndex(cf)].within;
    } else {
      ++stats.rows[AsIndex(cf)].out;
      ++stats.rows[AsIndex(ct)].in;
    }
  }
  return stats;
}

namespace {

/// `bucket` picks the day or the hour column; TripGraph::AddTrip keeps
/// it below N.
template <size_t N>
Result<std::vector<std::array<double, N>>> CommunityShares(
    const expansion::FinalNetwork& network,
    const community::Partition& partition, uint8_t graphdb::Trip::*bucket) {
  BIKEGRAPH_RETURN_NOT_OK(CheckPartition(network, partition));
  std::vector<std::array<double, N>> shares(partition.CommunityCount());
  for (auto& arr : shares) arr.fill(0.0);
  for (const graphdb::Trip& trip : network.graph.trips()) {
    const int32_t c = partition.assignment[AsIndex(trip.from)];
    shares[AsIndex(c)][trip.*bucket] += 1.0;
  }
  for (auto& arr : shares) {
    double total = 0.0;
    for (double v : arr) total += v;
    if (total > 0.0) {
      for (double& v : arr) v /= total;
    }
  }
  return shares;
}

}  // namespace

Result<std::vector<std::array<double, 7>>> CommunityDayShares(
    const expansion::FinalNetwork& network,
    const community::Partition& partition) {
  return CommunityShares<7>(network, partition, &graphdb::Trip::day);
}

Result<std::vector<std::array<double, 24>>> CommunityHourShares(
    const expansion::FinalNetwork& network,
    const community::Partition& partition) {
  return CommunityShares<24>(network, partition, &graphdb::Trip::hour);
}

DayPattern ClassifyDayPattern(const std::array<double, 7>& shares,
                              double margin) {
  const double weekday =
      (shares[0] + shares[1] + shares[2] + shares[3] + shares[4]) / 5.0;
  const double weekend = (shares[5] + shares[6]) / 2.0;
  if (weekday <= 0.0 && weekend <= 0.0) return DayPattern::kFlat;
  const double base = std::max(weekday, weekend);
  if (weekend > weekday * (1.0 + margin)) return DayPattern::kWeekendLeisure;
  if (weekday > weekend * (1.0 + margin)) return DayPattern::kWeekdayCommute;
  (void)base;
  return DayPattern::kFlat;
}

HourPattern ClassifyHourPattern(const std::array<double, 24>& shares) {
  // Mass in the morning rush (7-9), evening rush (16-18) and midday
  // (11-14) windows, normalised per-hour.
  auto mean_over = [&](int lo, int hi) {
    double acc = 0.0;
    for (int h = lo; h <= hi; ++h) acc += shares[AsIndex(h)];
    return acc / static_cast<double>(hi - lo + 1);
  };
  const double am = mean_over(7, 9);
  const double pm = mean_over(16, 18);
  const double midday = mean_over(11, 14);
  const double rush = (am + pm) / 2.0;
  if (rush > midday * 1.1 && am > 0.0 && pm > 0.0) {
    return HourPattern::kCommute;
  }
  if (midday > rush * 1.1) return HourPattern::kMiddayLeisure;
  return HourPattern::kOther;
}

}  // namespace bikegraph::analysis
