#include "community/detector.h"

#include <chrono>
#include <string>

namespace bikegraph::community {

namespace {

// Registry order is AlgorithmId order; FindInfo indexes into it directly.
constexpr AlgorithmInfo kRegistry[] = {
    {AlgorithmId::kLouvain, "louvain",
     "multi-level modularity optimisation (Blondel et al. 2008; the "
     "paper's algorithm)",
     &internal::DetectLouvain, /*supports_warm_start=*/true},
    {AlgorithmId::kLabelPropagation, "label_propagation",
     "asynchronous weighted label propagation (Raghavan et al. 2007)",
     &internal::DetectLabelPropagation, /*supports_warm_start=*/true},
    {AlgorithmId::kFastGreedy, "fast_greedy",
     "Clauset-Newman-Moore greedy modularity agglomeration",
     &internal::DetectFastGreedy, /*supports_warm_start=*/false},
    {AlgorithmId::kInfomap, "infomap",
     "two-level map-equation optimisation (Rosvall & Bergstrom 2008)",
     &internal::DetectInfomap, /*supports_warm_start=*/false},
};

const AlgorithmInfo* FindInfo(AlgorithmId id) {
  const auto index = static_cast<int32_t>(id);
  if (index < 0 || index >= static_cast<int32_t>(std::size(kRegistry))) {
    return nullptr;
  }
  return &kRegistry[index];
}

/// Lowercases and drops separator characters, so "Label-Propagation",
/// "label_propagation" and "labelpropagation" all compare equal.
std::string NormalizeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == '_' || c == ' ' || c == '.') continue;
    out.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                       : c);
  }
  return out;
}

}  // namespace

std::span<const AlgorithmInfo> AlgorithmRegistry() { return kRegistry; }

std::vector<AlgorithmId> ListAlgorithms() {
  std::vector<AlgorithmId> ids;
  ids.reserve(std::size(kRegistry));
  for (const AlgorithmInfo& info : kRegistry) ids.push_back(info.id);
  return ids;
}

std::string_view AlgorithmName(AlgorithmId id) {
  const AlgorithmInfo* info = FindInfo(id);
  return info ? info->name : std::string_view("unknown");
}

Result<AlgorithmId> ParseAlgorithm(std::string_view name) {
  const std::string key = NormalizeName(name);
  for (const AlgorithmInfo& info : kRegistry) {
    if (key == NormalizeName(info.name)) return info.id;
  }
  // Aliases seen in the paper, related tooling and earlier revisions.
  if (key == "lpa" || key == "labelprop") return AlgorithmId::kLabelPropagation;
  if (key == "cnm" || key == "greedy" || key == "fastgreedycnm") {
    return AlgorithmId::kFastGreedy;
  }
  if (key == "infomaplite" || key == "mapequation") return AlgorithmId::kInfomap;
  std::string known;
  for (const AlgorithmInfo& info : kRegistry) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  return Status::NotFound("unknown community algorithm '" +
                          std::string(name) + "'; known: " + known);
}

Result<CommunityResult> Detect(const graphdb::WeightedGraph& graph,
                               const DetectSpec& spec) {
  const AlgorithmInfo* info = FindInfo(spec.algorithm);
  if (info == nullptr) {
    return Status::InvalidArgument(
        "algorithm id " + std::to_string(static_cast<int32_t>(spec.algorithm)) +
        " is not in the registry");
  }
  const auto start = std::chrono::steady_clock::now();
  BIKEGRAPH_ASSIGN_OR_RETURN(CommunityResult result,
                             info->run(graph, spec.options));
  result.algorithm = spec.algorithm;
  result.wall_time_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace bikegraph::community
