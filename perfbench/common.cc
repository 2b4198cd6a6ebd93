#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "data/cleaning.h"
#include "data/synthetic.h"
#include "expansion/candidate.h"
#include "expansion/final_network.h"
#include "expansion/selection.h"
#include "geo/dublin.h"
#include "stream/event.h"
#include "workloads.h"

namespace perfbench {

using namespace bikegraph;

bool Report::Op(const Status& status, const char* what) {
  ++attempted;
  if (status.ok()) return true;
  ++failed;
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

void Report::Record(const std::string& key, double value) {
  record.emplace_back(key, JsonNumber(value));
}

void Report::Record(const std::string& key, const std::string& text) {
  record.emplace_back(key, JsonString(text));
}

uint64_t Feed::DeliverUntil(int64_t end_offset, stream::StreamEngine& engine,
                            Report& report, bool* ok) {
  uint64_t count = 0;
  const std::vector<Arrival>& arrivals = input_.arrivals;
  while (true) {
    if (next_ == arrivals.size()) {
      ++lap_;
      next_ = 0;
    }
    const Arrival& a = arrivals[next_];
    if (lap_ * kCycleSeconds + a.report_offset >= end_offset) break;
    ++next_;
    if (lap_ + a.lap_delta < 0) continue;  // lap 0 has no previous lap
    ++count;
    *ok = report.Op(engine.Ingest(OnLap(input_.cycle.events[a.index],
                                        input_.cycle, lap_ + a.lap_delta)),
                    "StreamEngine::Ingest") &&
          *ok;
  }
  return count;
}

std::optional<StationNetwork> BuildStationNetwork(const data::Dataset& raw,
                                                  const geo::Region& land,
                                                  SpanLog& log,
                                                  Report& report) {
  auto cleaned =
      InSpan(log, "data.clean", [&] { return data::CleanDataset(raw, land); });
  if (!report.Op(cleaned.status(), "CleanDataset")) return std::nullopt;
  auto candidates = InSpan(log, "expansion.candidate", [&] {
    return expansion::BuildCandidateNetwork(cleaned->dataset);
  });
  if (!report.Op(candidates.status(), "BuildCandidateNetwork")) {
    return std::nullopt;
  }
  const auto selection = InSpan(log, "expansion.select", [&] {
    return expansion::SelectStations(*candidates);
  });
  if (!report.Op(selection.status(), "SelectStations")) return std::nullopt;
  auto network = InSpan(log, "expansion.final", [&] {
    return expansion::BuildFinalNetwork(cleaned->dataset, *candidates,
                                        *selection);
  });
  if (!report.Op(network.status(), "BuildFinalNetwork")) return std::nullopt;
  return StationNetwork{std::move(*cleaned), std::move(*candidates),
                        std::move(*network)};
}

bool BuildStreamInput(uint64_t seed, SpanLog& log, Report& report,
                      StreamInput* input) {
  data::SyntheticConfig synth;
  synth.seed = MixSeed(seed, 0);
  const auto raw = InSpan(log, "data.generate",
                          [&] { return data::GenerateSyntheticMoby(synth); });
  if (!report.Op(raw.status(), "GenerateSyntheticMoby")) return false;
  const std::optional<StationNetwork> built =
      BuildStationNetwork(*raw, geo::DublinLand(), log, report);
  if (!built) return false;

  const expansion::FinalNetwork& net = built->network;
  size_t dropped = 0;
  const std::vector<stream::TripEvent> events = stream::MakeTripEvents(
      built->cleaned.dataset,
      [&net](int64_t location) -> std::optional<int32_t> {
        const auto it = net.location_to_station.find(location);
        if (it == net.location_to_station.end()) return std::nullopt;
        return it->second;
      },
      &dropped);
  if (dropped != 0) {
    report.Fail("trips without a final-network station: " +
                std::to_string(dropped));
    return false;
  }
  input->station_positions.clear();
  for (const expansion::FinalStation& station : net.stations) {
    input->station_positions.push_back(station.position);
  }
  input->cycle = FoldWeeks(events);
  input->arrivals = MakeArrivals(input->cycle, kMaxLagSeconds,
                                 kRedeliveryProb, MixSeed(seed, 1));
  return true;
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

std::string CompareSnapshots(const stream::WindowSnapshot& a,
                             const stream::WindowSnapshot& b) {
  const graphdb::WeightedGraph& ga = a.graph;
  const graphdb::WeightedGraph& gb = b.graph;
  if (ga.node_count() != gb.node_count() ||
      ga.edge_count() != gb.edge_count() ||
      ga.self_loop_count() != gb.self_loop_count() ||
      !SameBits(ga.total_weight(), gb.total_weight())) {
    return "graph shape or total weight differs";
  }
  for (size_t u = 0; u < ga.node_count(); ++u) {
    const auto node = static_cast<int32_t>(u);
    const auto na = ga.neighbors(node);
    const auto nb = gb.neighbors(node);
    bool same = SameBits(ga.self_weight(node), gb.self_weight(node)) &&
                SameBits(ga.strength(node), gb.strength(node)) &&
                na.size() == nb.size();
    for (size_t i = 0; same && i < na.size(); ++i) {
      same = na[i].node == nb[i].node && SameBits(na[i].weight, nb[i].weight);
    }
    if (!same) return "graph differs at station " + std::to_string(u);
  }
  const analysis::StationProfiles& pa = a.profiles;
  const analysis::StationProfiles& pb = b.profiles;
  if (pa.day.size() != pb.day.size() || pa.hour.size() != pb.hour.size()) {
    return "profile sizes differ";
  }
  for (size_t s = 0; s < pa.day.size(); ++s) {
    for (size_t d = 0; d < 7; ++d) {
      if (!SameBits(pa.day[s][d], pb.day[s][d])) {
        return "day profile differs at station " + std::to_string(s);
      }
    }
    for (size_t h = 0; h < 24; ++h) {
      if (!SameBits(pa.hour[s][h], pb.hour[s][h])) {
        return "hour profile differs at station " + std::to_string(s);
      }
    }
  }
  return "";
}

namespace {

void PinTo(const std::vector<size_t>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const size_t cpu : cpus) CPU_SET(cpu, &set);
  // A refused move leaves the thread where it was: the run still measures,
  // with less protection from one CPU's contention.
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Release() {
  if (cpus_.size() > 1) PinTo(cpus_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  PinTo({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

std::string FilesystemOf(const std::string& path) {
  std::error_code ec;
  const std::string target = std::filesystem::canonical(path, ec).string();
  std::ifstream mounts("/proc/self/mounts");
  std::string device, mount_point, type, rest, best_type = "unknown";
  size_t best_length = 0;
  while (mounts >> device >> mount_point >> type && std::getline(mounts, rest)) {
    const bool covers =
        target.rfind(mount_point, 0) == 0 &&
        (mount_point == "/" || target.size() == mount_point.size() ||
         target[mount_point.size()] == '/');
    if (covers && mount_point.size() >= best_length) {
      best_length = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::vector<double> Durations(const std::map<std::string, SpanSummary>& spans,
                              const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() ? std::vector<double>{} : it->second.duration_ns;
}

void SetBootstrapLayers(const std::map<std::string, SpanSummary>& spans,
                        MetricSet& layers) {
  const auto median = [&](const char* name) {
    return NearestRank(Durations(spans, name), 50.0);
  };
  layers.Set("data.generate_s", median("data.generate") / 1e9, "s");
  layers.Set("data.clean_ms", median("data.clean") / 1e6, "ms");
  layers.Set("expansion.candidate_ms", median("expansion.candidate") / 1e6,
             "ms");
  layers.Set("expansion.select_ms", median("expansion.select") / 1e6, "ms");
  layers.Set("expansion.final_ms", median("expansion.final") / 1e6, "ms");
}

void SetLatency(MetricSet& set, const std::string& p50_name,
                const std::string& p99_name, const std::vector<double>& ns,
                double scale, const std::string& unit) {
  set.Set(p50_name, NearestRank(ns, 50.0) * scale, unit);
  set.Set(p99_name, NearestRank(ns, TailPercentile(ns.size())) * scale, unit);
}

}  // namespace perfbench
