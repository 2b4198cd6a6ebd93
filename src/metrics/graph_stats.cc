#include "metrics/graph_stats.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "core/string_util.h"

namespace bikegraph::metrics {

std::string GraphCounts::ToString() const {
  std::ostringstream os;
  os << "#nodes " << FormatWithCommas(static_cast<int64_t>(nodes))
     << ", #undirected " << FormatWithCommas(static_cast<int64_t>(undirected_edges))
     << " (" << FormatWithCommas(static_cast<int64_t>(undirected_edges_no_loops))
     << " no loops), #directed "
     << FormatWithCommas(static_cast<int64_t>(directed_edges)) << " ("
     << FormatWithCommas(static_cast<int64_t>(directed_edges_no_loops))
     << " no loops), #trips "
     << FormatWithCommas(static_cast<int64_t>(trips));
  return os.str();
}

GraphCounts CountGraph(const graphdb::TripGraph& graph) {
  GraphCounts counts;
  counts.nodes = graph.NodeCount();
  std::unordered_set<uint64_t> directed, undirected;
  size_t directed_loops = 0, undirected_loops = 0;
  for (const graphdb::Trip& trip : graph.trips()) {
    const auto from = static_cast<uint64_t>(trip.from);
    const auto to = static_cast<uint64_t>(trip.to);
    directed.insert((from << 32) | to);
    const uint64_t lo = std::min(from, to), hi = std::max(from, to);
    undirected.insert((lo << 32) | hi);
  }
  // lint: unordered-iter-ok: order-independent integer counting
  // (self-loop detection); increments commute.
  for (uint64_t key : directed) {
    if ((key >> 32) == (key & 0xFFFFFFFFULL)) ++directed_loops;
  }
  // lint: unordered-iter-ok: same order-independent counting as
  // the directed loop above.
  for (uint64_t key : undirected) {
    if ((key >> 32) == (key & 0xFFFFFFFFULL)) ++undirected_loops;
  }
  counts.trips = graph.EdgeCount();
  counts.directed_edges = directed.size();
  counts.directed_edges_no_loops = directed.size() - directed_loops;
  counts.undirected_edges = undirected.size();
  counts.undirected_edges_no_loops = undirected.size() - undirected_loops;
  return counts;
}

}  // namespace bikegraph::metrics
