// perfbench: runs one benchmark workload against the bikegraph library and
// prints one JSON line: correctness, operation counts, the metric set and
// the run record. perfbench/run.py builds this binary and reshapes its
// output into the benchmark's result line.
//
//   perfbench --workload paper|replay|replay_sharded|serve [--seed N]
//             [--seconds S] [--trace 0|1] [--work-dir DIR]
//             [--trace-file PATH]

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>

#include "build_info.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run prints (BENCHMARK.json's
// per_layer list). A workload that does no work in a layer prints 0.
constexpr MetricName kLayerMetrics[] = {
    {"data.generate_s", "s"},
    {"data.csv_ms", "ms"},
    {"data.clean_ms", "ms"},
    {"expansion.candidate_ms", "ms"},
    {"expansion.select_ms", "ms"},
    {"expansion.final_ms", "ms"},
    {"analysis.temporal_ms.gbasic", "ms"},
    {"analysis.temporal_ms.gday", "ms"},
    {"analysis.temporal_ms.ghour", "ms"},
    {"community.detect_ms.gbasic", "ms"},
    {"community.detect_ms.gday", "ms"},
    {"community.detect_ms.ghour", "ms"},
    {"analysis.stats_ms", "ms"},
    {"data.rentals", "count"},
    {"data.locations", "count"},
    {"expansion.candidates", "count"},
    {"expansion.stations", "count"},
    {"community.levels.gbasic", "count"},
    {"community.levels.gday", "count"},
    {"community.levels.ghour", "count"},
    {"community.communities.gbasic", "count"},
    {"community.communities.gday", "count"},
    {"community.communities.ghour", "count"},
    {"stream.ingest_ns_per_event", "ns"},
    {"stream.events", "count"},
    {"stream.duplicates", "count"},
    {"stream.reordered", "count"},
    {"stream.late_dropped", "count"},
    {"stream.snapshot_us_p50", "us"},
    {"stream.snapshot_us_p99", "us"},
    {"stream.snapshots", "count"},
    {"stream.delta_frac", "ratio"},
    {"stream.refresh_ms_p50", "ms"},
    {"stream.refresh_ms_p99", "ms"},
    {"stream.refreshes", "count"},
    {"stream.escalation_frac", "ratio"},
    {"stream.flush_ms", "ms"},
    {"stream.checkpoint_ms_p50", "ms"},
    {"stream.checkpoint_ms_max", "ms"},
    {"stream.checkpoints", "count"},
    {"stream.wal_records", "count"},
    {"stream.wal_bytes_per_event", "bytes"},
    {"stream.wal_retries", "count"},
    {"stream.recover_ms", "ms"},
    {"stream.recover_replayed_records", "count"},
    {"stream.recover_used_checkpoint", "count"},
    {"stream.shard_skew", "ratio"},
    {"query.batch_us_p50", "us"},
    {"query.batch_us_p99", "us"},
    {"query.service_us_p50", "us"},
    {"query.service_us_p99", "us"},
    {"query.memo_misses_per_epoch", "1/epoch"},
    {"query.memo_hit_ratio", "ratio"},
    {"query.batches", "count"},
    {"query.slot_errors", "count"},
    {"query.pin_failures", "count"},
    {"process.cpu_s", "s"},
    {"process.cpu_per_wall", "ratio"},
    {"loadgen.writer_lateness_us_p99", "us"},
    {"loadgen.reader_lateness_us_p99", "us"},
    {"harness.self_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.overhead_frac", "ratio"},
};

constexpr const char* kEndToEndMetrics[] = {
    "setup_s", "peak_rss_mib", "events_per_s", "fresh_p50_ms", "fresh_p99_ms"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper|replay|replay_sharded|serve [--seed N] [--seconds S] "
               "[--trace 0|1] [--work-dir DIR] "
               "[--trace-file PATH]\n",
               why);
  return 2;
}

/// Share of the traced roots' time not covered by any layer span: the
/// harness's own glue on the blocking path.
double HarnessSelfFrac(const std::vector<Span>& spans) {
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& s : spans) {
    if (s.parent >= 0) has_child[static_cast<size_t>(s.parent)] = true;
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  double self_ns = 0, total_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || !has_child[i]) continue;
    self_ns += static_cast<double>(self[i]);
    total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  return total_ns > 0 ? self_ns / total_ns : 0.0;
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
/// event per span, with its parent index and tag as arguments.
void WriteTraceFile(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (spans.empty()) {
    out << "[]\n";
    return;
  }
  const int64_t origin = spans.front().start_ns;
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\": " << JsonString(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << JsonNumber(static_cast<double>(s.start_ns - origin) / 1e3)
        << ", \"dur\": "
        << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"tag\": " << s.tag << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::string RecordJson(const Options& options, const Report& report) {
  utsname host{};
  uname(&host);
  std::string out = "{";
  const auto add = [&out](const std::string& key, const std::string& value) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + value;
  };
  add("workload", JsonString(options.workload));
  add("seed", std::to_string(options.seed));
  add("seconds", JsonNumber(options.seconds));
  add("trace", options.trace ? "1" : "0");
  add("build_type", JsonString(kBuildType));
  add("compiler", JsonString(kCompiler));
  add("cxx_flags", JsonString(kCxxFlags));
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
  add("host", JsonString(host.nodename));
  add("kernel", JsonString(std::string(host.sysname) + " " + host.release));
  add("machine", JsonString(host.machine));
  add("attempted", std::to_string(report.attempted));
  add("failed", std::to_string(report.failed));
  for (const auto& [key, value] : report.record) add(key, value);
  return out + "}";
}

}  // namespace

int Main(int argc, char** argv) {
  Options options;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  // Set-up is repeated for a steady setup_s; the traced run reports no
  // setup_s and sets up once.
  options.setups = options.trace ? 1 : 3;
  if (options.work_dir.empty()) options.work_dir = ".bench_build/work";
  options.work_dir += "/" + options.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  Report report;
  if (options.workload == "paper") {
    RunPaper(options, report);
  } else if (options.workload == "replay") {
    RunReplay(options, 1, report);
  } else if (options.workload == "replay_sharded") {
    RunReplay(options, 3, report);
  } else if (options.workload == "serve") {
    RunServe(options, report);
  } else {
    std::filesystem::remove_all(options.work_dir, ec);
    return Usage(("unknown workload " + options.workload).c_str());
  }
  std::filesystem::remove_all(options.work_dir, ec);

  MetricSet metrics;
  if (options.trace) {
    report.layers.Set("harness.self_frac", HarnessSelfFrac(report.spans),
                      "ratio");
    report.layers.Set("trace.spans", static_cast<double>(report.spans.size()),
                      "count");
    for (const MetricName& m : kLayerMetrics) {
      metrics.Set(m.name, 0.0, m.unit);
    }
    metrics.MergeFrom(report.layers);
    // Count, total and self time per span name, for the run record.
    std::string self_times = "{";
    for (const auto& [name, summary] : Summarize(report.spans)) {
      if (self_times.size() > 1) self_times += ", ";
      self_times += JsonString(name) + ": {\"count\": " +
                    std::to_string(summary.duration_ns.size()) +
                    ", \"total_ms\": " + JsonNumber(summary.total_ns / 1e6) +
                    ", \"self_ms\": " + JsonNumber(summary.self_ns / 1e6) + "}";
    }
    report.record.emplace_back("spans", self_times + "}");
    if (!trace_file.empty()) WriteTraceFile(trace_file, report.spans);
  } else {
    for (const char* name : kEndToEndMetrics) {
      if (!report.e2e.Has(name)) report.Fail(std::string("no metric ") + name);
    }
    metrics = report.e2e;
  }
  const bool correct = report.failures.empty() && report.failed == 0;
  std::string failures = "[";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + JsonString(report.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s, \"record\": %s, \"failures\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.ToJson().c_str(),
      RecordJson(options, report).c_str(), failures.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
