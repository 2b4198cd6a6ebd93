// The four benchmark workloads and what they share: the run options, the
// report a run hands back to main.cc, and the batch bootstrap that turns
// the seed's dataset into the stream workloads' folded trip stream.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/cleaning.h"
#include "expansion/candidate.h"
#include "expansion/final_network.h"
#include "geo/latlon.h"
#include "geo/polygon.h"
#include "harness.h"
#include "stream/engine.h"
#include "stream/snapshot.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// Times set-up is repeated; setup_s is the median.
  int setups = 3;
  /// Scratch directory for the CSV tables and the WAL.
  std::string work_dir;
};

/// What one workload run hands back to main.cc.
struct Report {
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> failures;
  /// Operations attempted and failed (stage calls, ingests, snapshots,
  /// refreshes, checkpoints, pins, query slots, recoveries).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (printed with --trace 0).
  MetricSet e2e;
  /// Per-layer metrics (printed with --trace 1); unset ones print as 0,
  /// the layer doing no work in this workload.
  MetricSet layers;
  /// Workload parameters and sample counts for the run record, as
  /// "key": json-value pairs.
  std::vector<std::pair<std::string, std::string>> record;
  /// Every span of every thread, for the trace file.
  std::vector<Span> spans;

  void Fail(const std::string& what) { failures.push_back(what); }
  /// Counts one operation; a failed one is also recorded as a failure.
  bool Op(const bikegraph::Status& status, const char* what);
  void Record(const std::string& key, double value);
  void Record(const std::string& key, const std::string& text);
};

/// The stream workloads' input: the seed's cleaned trips mapped onto the
/// final network's stations, folded into a 4-week cycle, and the
/// jittered, partly redelivered delivery order of one lap.
struct StreamInput {
  std::vector<bikegraph::geo::LatLon> station_positions;
  FoldedCycle cycle;
  std::vector<Arrival> arrivals;
};

/// Walks the lapped delivery order of a StreamInput into an engine.
class Feed {
 public:
  explicit Feed(const StreamInput& input) : input_(input) {}

  /// Ingests every delivery reported before `end_offset` (seconds after
  /// the cycle origin of lap 0) and returns how many were attempted;
  /// clears `*ok` when an Ingest fails.
  uint64_t DeliverUntil(int64_t end_offset, bikegraph::stream::StreamEngine& engine,
                        Report& report, bool* ok);

  /// The lap being delivered and how many of its deliveries were made
  /// (DeliveredTrips' `last_lap` and `last_lap_prefix`).
  int64_t lap() const { return lap_; }
  size_t delivered_in_lap() const { return next_; }

 private:
  const StreamInput& input_;
  int64_t lap_ = 0;
  size_t next_ = 0;
};

inline constexpr int64_t kMaxLagSeconds = 900;
inline constexpr double kRedeliveryProb = 0.01;

/// The paper's pipeline from a dataset to the expanded station network.
struct StationNetwork {
  bikegraph::data::CleaningResult cleaned;
  bikegraph::expansion::CandidateNetwork candidates;
  bikegraph::expansion::FinalNetwork network;
};

/// CleanDataset → BuildCandidateNetwork → SelectStations →
/// BuildFinalNetwork on `raw`, each call spanned on `log` and counted on
/// `report`; nullopt once a stage fails.
std::optional<StationNetwork> BuildStationNetwork(
    const bikegraph::data::Dataset& raw, const bikegraph::geo::Region& land,
    SpanLog& log, Report& report);

/// Runs the batch bootstrap (generate, then BuildStationNetwork) and builds
/// the stream. Layer calls are spanned on `log` and counted on `report`.
bool BuildStreamInput(uint64_t seed, SpanLog& log, Report& report,
                      StreamInput* input);

/// Bit-for-bit comparison of two snapshots' graphs and profiles; empty
/// when identical, else the first difference.
std::string CompareSnapshots(const bikegraph::stream::WindowSnapshot& a,
                             const bikegraph::stream::WindowSnapshot& b);

/// Moves the calling thread round robin over the CPUs the process may use.
/// Contention on a shared host comes per CPU, in phases of up to seconds;
/// single-threaded work that calls Next() before every set-up and every
/// block spreads over all CPUs, so no one CPU's phase covers a whole run.
/// Release(), and the destructor, let the thread run on every CPU again:
/// a thread started while this one is pinned would inherit its one CPU.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  void Release();
  size_t cpu_count() const { return cpus_.size(); }

 private:
  std::vector<size_t> cpus_;
  size_t next_ = 0;
};

/// Type of the filesystem holding `path` (from /proc/self/mounts), or
/// "unknown".
std::string FilesystemOf(const std::string& path);

/// Peak resident set size of this process, MiB.
double PeakRssMib();
/// User + system CPU seconds of this process.
double ProcessCpuSeconds();

/// Durations (ns) of the spans named `name`; empty when there are none.
std::vector<double> Durations(const std::map<std::string, SpanSummary>& spans,
                              const char* name);

/// The batch bootstrap's per-layer metrics (data.generate_s, data.clean_ms,
/// expansion.*_ms), from the set-up spans of a stream workload.
void SetBootstrapLayers(const std::map<std::string, SpanSummary>& spans,
                        MetricSet& layers);

/// Nearest-rank median and p99 of `ns`, times `scale`, set in `set` under
/// the two names with `unit`.
void SetLatency(MetricSet& set, const std::string& p50_name,
                const std::string& p99_name, const std::vector<double>& ns,
                double scale, const std::string& unit);

void RunPaper(const Options& options, Report& report);
void RunReplay(const Options& options, size_t shard_count, Report& report);
void RunServe(const Options& options, Report& report);

}  // namespace perfbench
