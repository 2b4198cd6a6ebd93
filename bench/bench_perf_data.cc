// Performance benchmarks for the data layer: the CSV round trip of the
// two Moby tables, over the synthetic dataset of seed 7 (~15k locations,
// ~62k rentals, 3.9 MB of CSV). Dataset::ReadCsv is the first stage of
// the paper pipeline; Dataset::WriteCsv writes its input.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "data/dataset.h"
#include "data/synthetic.h"

namespace bikegraph::data {
namespace {

/// The seed-7 tables, generated once per binary.
const Dataset& SeedDataset() {
  static const Dataset dataset = [] {
    SyntheticConfig config;
    config.seed = 7;
    return GenerateSyntheticMoby(config).ValueOrDie();
  }();
  return dataset;
}

/// Paths of the two tables in the temp directory; removed on destruction.
struct CsvFiles {
  std::string locations, rentals;
  CsvFiles() {
    const std::string dir = std::filesystem::temp_directory_path().string();
    locations = dir + "/bench_perf_data_locations.csv";
    rentals = dir + "/bench_perf_data_rentals.csv";
  }
  ~CsvFiles() {
    std::remove(locations.c_str());
    std::remove(rentals.c_str());
  }
};

void BM_DatasetReadCsv(benchmark::State& state) {
  const CsvFiles files;
  if (!SeedDataset().WriteCsv(files.locations, files.rentals).ok()) {
    state.SkipWithError("WriteCsv failed");
    return;
  }
  for (auto _ : state) {
    auto read = Dataset::ReadCsv(files.locations, files.rentals);
    if (!read.ok()) {
      state.SkipWithError("ReadCsv failed");
      return;
    }
    benchmark::DoNotOptimize(read);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(SeedDataset().rentals().size() +
                           SeedDataset().locations().size()));
}
BENCHMARK(BM_DatasetReadCsv);

void BM_DatasetWriteCsv(benchmark::State& state) {
  const CsvFiles files;
  const Dataset& dataset = SeedDataset();
  for (auto _ : state) {
    if (!dataset.WriteCsv(files.locations, files.rentals).ok()) {
      state.SkipWithError("WriteCsv failed");
      return;
    }
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<int64_t>(dataset.rentals().size() +
                                                dataset.locations().size()));
}
BENCHMARK(BM_DatasetWriteCsv);

}  // namespace
}  // namespace bikegraph::data

BENCHMARK_MAIN();
