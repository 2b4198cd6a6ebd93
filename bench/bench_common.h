#pragma once

// Shared helpers for the table/figure reproduction benches. Each bench is a
// standalone binary that regenerates one table or figure of the paper and
// prints a paper-vs-measured comparison against analysis::PaperExpectations.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/experiment.h"
#include "core/string_util.h"
#include "viz/ascii_table.h"

namespace bikegraph::bench {

/// Runs the calibrated paper experiment; aborts the bench on failure.
inline analysis::ExperimentResult RunExperimentOrDie() {
  auto start = std::chrono::steady_clock::now();
  auto result = analysis::RunPaperExperiment(analysis::ExperimentConfig{});
  if (!result.ok()) {
    std::cerr << "experiment failed: " << result.status() << "\n";
    std::exit(1);
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  std::printf("[pipeline: synthetic Moby dataset -> cleaning -> HAC -> "
              "Algorithm 1 -> Louvain x3 in %lld ms]\n\n",
              static_cast<long long>(elapsed));
  return std::move(result).ValueOrDie();
}

inline std::string Fmt(int64_t v) { return FormatWithCommas(v); }
inline std::string Fmt(size_t v) {
  return FormatWithCommas(static_cast<int64_t>(v));
}
inline std::string Pct(double v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.0f%%", 100.0 * v);
  return buf;
}
inline std::string Num(double v, int decimals = 2) {
  return FormatDouble(v, decimals);
}

}  // namespace bikegraph::bench
