// Equivalence tests for the flat-memory hot-path rewrites: the sort+scan
// CSR builder, the flat-scratch Louvain, and the grid-driven threshold HAC
// must produce exactly the results of straightforward map-based reference
// implementations (and of the dense reference algorithms).

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "cluster/geo_cluster.h"
#include "cluster/hac.h"
#include "community/aggregate.h"
#include "community/detector.h"
#include "community/modularity.h"
#include "community/partition.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "data/synthetic.h"
#include "geo/grid_index.h"
#include "geo/haversine.h"
#include "graphdb/weighted_graph.h"

#include <gtest/gtest.h>

#include "dense_hac_reference.h"

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph {
namespace {

using cluster::ClusterLocations;
using cluster::GeoClusterParams;
using cluster::ThresholdCompleteLinkage;
using community::AggregateByPartition;
using community::AlgorithmId;
using community::CommunityResult;
using community::ComposePartitions;
using community::Detect;
using community::Modularity;
using community::Partition;
using geo::LatLon;
using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;

// ---------------------------------------------------------------------------
// Reference CSR builder: per-node ordered maps, exactly the seed scheme.
// ---------------------------------------------------------------------------
struct RefGraph {
  std::vector<size_t> offsets;
  std::vector<WeightedGraph::Neighbor> adj;
  std::vector<double> self_weight, strength;
  double total_weight = 0.0;
  size_t edge_count = 0, self_loop_count = 0;
};

RefGraph ReferenceBuild(size_t n,
                        const std::vector<std::array<double, 3>>& edges) {
  std::vector<std::map<int32_t, double>> pw(n);
  RefGraph g;
  g.self_weight.assign(n, 0.0);
  for (const auto& e : edges) {
    int32_t u = static_cast<int32_t>(e[0]), v = static_cast<int32_t>(e[1]);
    double w = e[2];
    if (u == v) {
      g.self_weight[AsIndex(u)] += w;
      continue;
    }
    if (u > v) std::swap(u, v);
    pw[AsIndex(u)][v] += w;
  }
  g.strength.assign(n, 0.0);
  g.offsets.assign(n + 1, 0);
  std::vector<size_t> deg(n, 0);
  for (size_t u = 0; u < n; ++u) {
    for (const auto& [v, w] : pw[u]) {
      ++deg[u];
      ++deg[AsIndex(v)];
      ++g.edge_count;
      (void)w;
    }
  }
  for (size_t u = 0; u < n; ++u) g.offsets[u + 1] = g.offsets[u] + deg[u];
  g.adj.resize(g.offsets[n]);
  std::vector<size_t> cur(g.offsets.begin(), g.offsets.end() - 1);
  for (size_t u = 0; u < n; ++u) {
    for (const auto& [v, w] : pw[u]) {
      g.adj[cur[u]++] = {v, w};
      g.adj[cur[AsIndex(v)]++] = {static_cast<int32_t>(u), w};
      g.strength[u] += w;
      g.strength[AsIndex(v)] += w;
    }
  }
  double total = 0.0;
  for (size_t u = 0; u < n; ++u) {
    total += g.strength[u];
    if (g.self_weight[u] > 0.0) ++g.self_loop_count;
    g.strength[u] += 2.0 * g.self_weight[u];
  }
  total /= 2.0;
  for (size_t u = 0; u < n; ++u) total += g.self_weight[u];
  g.total_weight = total;
  return g;
}

TEST(FlatCsrBuilderTest, MatchesMapReferenceOnRandomMultigraphs) {
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(60);
    const size_t m = rng.NextBounded(8 * n);
    std::vector<std::array<double, 3>> edges;
    WeightedGraphBuilder builder(n);
    for (size_t e = 0; e < m; ++e) {
      const auto u = static_cast<double>(rng.NextBounded(n));
      // Skew endpoints so parallel edges and self-loops are common.
      const auto v = static_cast<double>(rng.NextBounded(n / 2 + 1));
      const double w = rng.NextBounded(4) == 0 ? 0.0 : rng.NextDouble();
      edges.push_back({u, v, w});
      ASSERT_TRUE(builder
                      .AddEdge(static_cast<int32_t>(u),
                               static_cast<int32_t>(v), w)
                      .ok());
    }
    WeightedGraph g = builder.Build();
    RefGraph ref = ReferenceBuild(n, edges);

    ASSERT_EQ(g.node_count(), n);
    EXPECT_EQ(g.edge_count(), ref.edge_count);
    EXPECT_EQ(g.self_loop_count(), ref.self_loop_count);
    EXPECT_EQ(g.total_weight(), ref.total_weight);  // bit-identical
    for (size_t u = 0; u < n; ++u) {
      const auto ui = static_cast<int32_t>(u);
      EXPECT_EQ(g.strength(ui), ref.strength[u]);
      EXPECT_EQ(g.self_weight(ui), ref.self_weight[u]);
      auto row = g.neighbors(ui);
      ASSERT_EQ(row.size(), ref.offsets[u + 1] - ref.offsets[u]);
      for (size_t i = 0; i < row.size(); ++i) {
        const auto& expect = ref.adj[ref.offsets[u] + i];
        EXPECT_EQ(row[i].node, expect.node);
        EXPECT_EQ(row[i].weight, expect.weight);  // merge order preserved
        // Sorted-adjacency invariant that WeightBetween's binary search
        // relies on.
        if (i > 0) {
          EXPECT_LT(row[i - 1].node, row[i].node);
        }
        EXPECT_EQ(g.WeightBetween(ui, expect.node), expect.weight);
      }
    }
    // WeightBetween (binary search) agrees with a linear reference lookup
    // for every pair, present or absent.
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = 0; v < n; ++v) {
        double expect = 0.0;
        if (u == v) {
          expect = ref.self_weight[u];
        } else {
          for (size_t i = ref.offsets[u]; i < ref.offsets[u + 1]; ++i) {
            if (ref.adj[i].node == static_cast<int32_t>(v)) {
              expect = ref.adj[i].weight;
            }
          }
        }
        EXPECT_EQ(g.WeightBetween(static_cast<int32_t>(u),
                                  static_cast<int32_t>(v)),
                  expect);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sort-free CSR writer: on edges strictly ascending in (u, v) with u <= v,
// WeightedGraph::FromSortedEdges must equal WeightedGraphBuilder fed the
// same edges in the same order, bit for bit.
// ---------------------------------------------------------------------------
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::vector<size_t> Offsets(const WeightedGraph& g) {
  std::vector<size_t> offsets{0};
  for (size_t u = 0; u < g.node_count(); ++u) {
    offsets.push_back(offsets.back() + g.degree(static_cast<int32_t>(u)));
  }
  return offsets;
}

void ExpectSameCsrBits(const WeightedGraph& got, const WeightedGraph& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  EXPECT_EQ(Offsets(got), Offsets(want));
  EXPECT_EQ(got.edge_count(), want.edge_count());
  EXPECT_EQ(got.self_loop_count(), want.self_loop_count());
  EXPECT_EQ(Bits(got.total_weight()), Bits(want.total_weight()));
  for (size_t u = 0; u < got.node_count(); ++u) {
    const auto ui = static_cast<int32_t>(u);
    EXPECT_EQ(Bits(got.self_weight(ui)), Bits(want.self_weight(ui))) << u;
    EXPECT_EQ(Bits(got.strength(ui)), Bits(want.strength(ui))) << u;
    const auto row = got.neighbors(ui);
    const auto want_row = want.neighbors(ui);
    ASSERT_EQ(row.size(), want_row.size()) << u;
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].node, want_row[i].node) << u << " nb " << i;
      EXPECT_EQ(Bits(row[i].weight), Bits(want_row[i].weight))
          << u << " nb " << i;
    }
  }
}

/// Every pair (u <= v) of `n` nodes in ascending order, each kept with
/// a small probability (self-loops more often), with zero, integral and
/// fractional weights. About a fifth of the nodes stay isolated.
std::vector<WeightedGraph::Edge> RandomSortedEdges(size_t n, Rng* rng) {
  std::vector<bool> isolated(n);
  for (size_t u = 0; u < n; ++u) isolated[u] = rng->NextBounded(5) == 0;
  std::vector<WeightedGraph::Edge> edges;
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u; v < n; ++v) {
      if (isolated[u] || isolated[v]) continue;
      if (rng->NextBounded(u == v ? 2 : 24) != 0) continue;
      double w = rng->NextDouble();
      if (rng->NextBounded(4) == 0) w = 0.0;
      if (rng->NextBounded(3) == 0) {
        w = static_cast<double>(1 + rng->NextBounded(40));
      }
      edges.push_back(
          {static_cast<int32_t>(u), static_cast<int32_t>(v), w});
    }
  }
  return edges;
}

TEST(SortedCsrWriterTest, MatchesBuilderBitForBit) {
  Rng rng(2716);
  size_t self_loops = 0, zero_weights = 0, isolated_rows = 0;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{272}}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::vector<WeightedGraph::Edge> edges =
          RandomSortedEdges(n, &rng);
      WeightedGraphBuilder builder(n);
      for (const WeightedGraph::Edge& e : edges) {
        ASSERT_TRUE(builder.AddEdge(e.u, e.v, e.weight).ok());
        if (e.u == e.v) ++self_loops;
        if (e.weight == 0.0) ++zero_weights;
      }
      auto got = WeightedGraph::FromSortedEdges(n, edges);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameCsrBits(*got, builder.Build());
      for (size_t u = 0; u < n; ++u) {
        const auto ui = static_cast<int32_t>(u);
        if (got->degree(ui) == 0 && got->self_weight(ui) == 0.0) {
          ++isolated_rows;
        }
      }
    }
  }
  // The inputs did cover the shapes the writer must get right.
  EXPECT_GT(self_loops, 100u);
  EXPECT_GT(zero_weights, 100u);
  EXPECT_GT(isolated_rows, 100u);
}

TEST(SortedCsrWriterTest, RejectsEachViolatedPrecondition) {
  using Edges = std::vector<WeightedGraph::Edge>;
  const auto code = [](const Edges& edges) {
    return WeightedGraph::FromSortedEdges(4, edges).status().code();
  };
  EXPECT_EQ(code({{0, 1, 1.0}, {1, 1, 0.0}, {2, 3, 2.5}}), StatusCode::kOk);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* what;
    Edges edges;
  } cases[] = {
      {"negative endpoint", {{-1, 2, 1.0}}},
      {"endpoint >= n", {{0, 4, 1.0}}},
      {"u > v", {{2, 1, 1.0}}},
      {"repeated pair", {{0, 1, 1.0}, {0, 1, 1.0}}},
      {"descending pair", {{0, 2, 1.0}, {0, 1, 1.0}}},
      {"descending row", {{1, 2, 1.0}, {0, 3, 1.0}}},
      {"NaN weight", {{0, 1, nan}}},
      {"negative weight", {{0, 1, -0.5}}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(code(c.edges), StatusCode::kInvalidArgument) << c.what;
  }
}

// ---------------------------------------------------------------------------
// Reference Louvain: same algorithm, std::map scratch instead of the flat
// vectors. The selection rule (exact argmax of (gain, -label) among
// strictly-better-than-staying candidates) is order independent, so the two
// implementations must agree exactly. The reference runs Louvain's default
// options: resolution 1, at most 64 levels and 128 sweeps per level, and a
// minimum level gain of 1e-9.
// ---------------------------------------------------------------------------
constexpr double kRefResolution = 1.0;
constexpr int kRefMaxLevels = 64;
constexpr int kRefMaxSweeps = 128;
constexpr double kRefMinGain = 1e-9;

struct RefLocalMoveOutcome {
  Partition partition;
  bool improved = false;
};

RefLocalMoveOutcome RefLocalMoving(const WeightedGraph& g, Rng* rng) {
  const size_t n = g.node_count();
  const double m = g.total_weight();
  RefLocalMoveOutcome out;
  out.partition = Partition::Singletons(n);
  if (n == 0 || m <= 0.0) return out;
  std::vector<int32_t>& comm = out.partition.assignment;
  std::vector<double> sigma_tot(n);
  for (size_t u = 0; u < n; ++u) sigma_tot[u] = g.strength(static_cast<int32_t>(u));

  std::vector<int32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int32_t>(i);
  rng->Shuffle(&order);
  const double inv_two_m = 1.0 / (2.0 * m);

  std::deque<int32_t> queue(order.begin(), order.end());
  std::vector<char> in_queue(n, 1);
  size_t budget = static_cast<size_t>(kRefMaxSweeps) * n;
  bool any_move = false;
  while (!queue.empty() && budget > 0) {
    --budget;
    const int32_t u = queue.front();
    queue.pop_front();
    in_queue[AsIndex(u)] = 0;
    const int32_t cu = comm[AsIndex(u)];
    const double k_u = g.strength(u);

    std::map<int32_t, double> w_to_comm;
    w_to_comm[cu];
    for (const auto& nb : g.neighbors(u)) w_to_comm[comm[AsIndex(nb.node)]] += nb.weight;

    sigma_tot[AsIndex(cu)] -= k_u;
    const double ku_res = kRefResolution * k_u * inv_two_m;
    const double stay_gain = w_to_comm[cu] - ku_res * sigma_tot[AsIndex(cu)];
    int32_t best_comm = cu;
    double best_gain = stay_gain;
    for (const auto& [c, w_uc] : w_to_comm) {
      if (c == cu) continue;
      const double gain = w_uc - ku_res * sigma_tot[AsIndex(c)];
      if (gain > best_gain ||
          (gain == best_gain && gain > stay_gain && c < best_comm)) {
        best_gain = gain;
        best_comm = c;
      }
    }
    sigma_tot[AsIndex(best_comm)] += k_u;
    if (best_comm != cu) {
      comm[AsIndex(u)] = best_comm;
      any_move = true;
      for (const auto& nb : g.neighbors(u)) {
        if (comm[AsIndex(nb.node)] != best_comm && !in_queue[AsIndex(nb.node)]) {
          in_queue[AsIndex(nb.node)] = 1;
          queue.push_back(nb.node);
        }
      }
    }
  }
  out.partition.Renumber();
  out.improved = any_move;
  return out;
}

CommunityResult RefLouvain(const WeightedGraph& graph, uint64_t seed) {
  CommunityResult result;
  const size_t n = graph.node_count();
  result.partition = Partition::Singletons(n);
  if (n == 0) return result;
  Rng rng(seed);
  const WeightedGraph* level_graph = &graph;
  WeightedGraph owned;
  Partition cumulative = Partition::Singletons(n);
  double best_q = Modularity(graph, cumulative, kRefResolution);
  for (int level = 0; level < kRefMaxLevels; ++level) {
    RefLocalMoveOutcome outcome = RefLocalMoving(*level_graph, &rng);
    if (!outcome.improved) break;
    Partition candidate = ComposePartitions(cumulative, outcome.partition);
    candidate.Renumber();
    const double q =
        Modularity(*level_graph, outcome.partition, kRefResolution);
    if (q <= best_q + kRefMinGain) break;
    best_q = q;
    cumulative = candidate;
    result.level_partitions.push_back(candidate);
    ++result.levels;
    if (outcome.partition.CommunityCount() == level_graph->node_count()) break;
    owned = AggregateByPartition(*level_graph, outcome.partition);
    level_graph = &owned;
  }
  result.partition = cumulative;
  result.partition.Renumber();
  result.modularity = Modularity(graph, result.partition, kRefResolution);
  return result;
}

WeightedGraph RandomGraph(size_t n, double edge_rate, uint64_t seed) {
  WeightedGraphBuilder b(n);
  Rng rng(seed);
  const size_t m = static_cast<size_t>(edge_rate * static_cast<double>(n));
  for (size_t e = 0; e < m; ++e) {
    const auto u = static_cast<int32_t>(rng.NextBounded(n));
    const auto v = static_cast<int32_t>(rng.NextBounded(n));
    (void)b.AddEdge(u, v, 0.25 + rng.NextDouble());
  }
  return b.Build();
}

TEST(FlatLouvainTest, MatchesMapReferenceOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    WeightedGraph g = RandomGraph(40 + 15 * seed, 3.0, seed * 77);
    community::DetectSpec spec;
    spec.options.seed = seed;
    auto flat = Detect(g, spec);
    ASSERT_TRUE(flat.ok());
    auto ref = RefLouvain(g, seed);
    EXPECT_EQ(flat->partition.assignment, ref.partition.assignment)
        << "partition diverged for seed " << seed;
    EXPECT_EQ(flat->modularity, ref.modularity);
    EXPECT_EQ(flat->levels, ref.levels);
  }
}

TEST(FlatLouvainTest, MatchesMapReferenceOnCliqueRing) {
  WeightedGraphBuilder b(10 * 8);
  Rng rng(5);
  for (int q = 0; q < 10; ++q) {
    for (int i = 0; i < 8; ++i) {
      for (int j = i + 1; j < 8; ++j) {
        (void)b.AddEdge(q * 8 + i, q * 8 + j, 0.5 + rng.NextDouble());
      }
    }
    (void)b.AddEdge(q * 8, ((q + 1) % 10) * 8 + 1, 0.5);
  }
  WeightedGraph g = b.Build();
  auto flat = Detect(g, {AlgorithmId::kLouvain, {}});
  ASSERT_TRUE(flat.ok());
  auto ref = RefLouvain(g, /*seed=*/1);
  EXPECT_EQ(flat->partition.assignment, ref.partition.assignment);
  EXPECT_EQ(flat->modularity, ref.modularity);
}

// ---------------------------------------------------------------------------
// ThresholdCompleteLinkage vs the dense reference.
// ---------------------------------------------------------------------------
std::vector<LatLon> RandomClumpedPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  const LatLon center(53.35, -6.26);
  std::vector<LatLon> micros;
  for (size_t i = 0; i < std::max<size_t>(4, n / 10); ++i) {
    micros.push_back(geo::Offset(center, rng.NextUniform(0.0, 1500.0),
                                 rng.NextUniform(0.0, 360.0)));
  }
  std::vector<LatLon> points;
  for (size_t i = 0; i < n; ++i) {
    const LatLon& m = micros[rng.NextBounded(micros.size())];
    points.push_back(geo::Offset(m, rng.NextExponential(1.0 / 40.0),
                                 rng.NextUniform(0.0, 360.0)));
  }
  return points;
}

/// Labels are equivalent iff they induce the same partition of indices.
void ExpectSamePartition(const std::vector<int32_t>& a,
                         const std::vector<int32_t>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::map<int32_t, int32_t> a2b;
  for (size_t i = 0; i < a.size(); ++i) {
    auto [it, inserted] = a2b.emplace(a[i], b[i]);
    EXPECT_EQ(it->second, b[i]) << "partition mismatch at point " << i;
    (void)inserted;
  }
  std::map<int32_t, int32_t> b2a;
  for (size_t i = 0; i < a.size(); ++i) {
    auto [it, inserted] = b2a.emplace(b[i], a[i]);
    EXPECT_EQ(it->second, a[i]) << "partition mismatch at point " << i;
    (void)inserted;
  }
}

TEST(ThresholdHacEquivalenceTest, MatchesDenseCutOnRandomInputs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const size_t n = 80 + 70 * seed;  // up to 500
    ASSERT_LE(n, 500u);
    auto points = RandomClumpedPoints(n, seed * 13);
    for (double threshold : {40.0, 100.0, 250.0}) {
      auto sparse = ThresholdCompleteLinkage(points, threshold);
      ASSERT_TRUE(sparse.ok());
      ExpectSamePartition(*sparse, DenseCompleteLinkageCut(points, threshold));
    }
  }
}

// ---------------------------------------------------------------------------
// ThresholdCompleteLinkage vs the two-stream reference: every step merges
// the global (distance, lo, hi) minimum over live pairs, so the labels must
// match element by element — including on inputs full of exact ties, where
// only the tie rule decides the partition.
// ---------------------------------------------------------------------------

/// The earlier merge loop, kept as the reference: all within-threshold
/// pairs sorted once and consumed by index, merge-generated pairs in a
/// heap, and the global (distance, lo, hi) minimum of the two streams
/// merged at every step. Slot ids: points are 0..n-1, merge k creates
/// slot n+k.
std::vector<int32_t> ReferenceTwoStreamHac(const std::vector<LatLon>& points,
                                           double threshold_m) {
  const size_t n = points.size();
  geo::GridIndex grid(std::max(threshold_m, 1.0));
  for (size_t i = 0; i < n; ++i) grid.Add(static_cast<int64_t>(i), points[i]);
  struct Entry {
    int32_t slot;
    double dist;
  };
  struct Pair {
    double dist;
    int32_t a, b;
    bool operator<(const Pair& o) const {
      if (dist != o.dist) return dist < o.dist;
      if (a != o.a) return a < o.a;
      return b < o.b;
    }
    bool operator>(const Pair& o) const { return o < *this; }
  };
  std::vector<std::vector<Entry>> nbrs(n);
  std::vector<bool> active(n, true);
  std::vector<Pair> initial;
  grid.ForEachPairWithinRadius(
      threshold_m, [&](int64_t a64, int64_t b64, double dist) {
        const int32_t i = static_cast<int32_t>(std::min(a64, b64));
        const int32_t j = static_cast<int32_t>(std::max(a64, b64));
        nbrs[AsIndex(i)].push_back(Entry{j, dist});
        nbrs[AsIndex(j)].push_back(Entry{i, dist});
        initial.push_back(Pair{dist, i, j});
      });
  std::sort(initial.begin(), initial.end());
  size_t next_initial = 0;
  std::priority_queue<Pair, std::vector<Pair>, std::greater<>> generated;
  std::vector<int32_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int32_t>(i);
  auto find = [&parent](int32_t x) {
    while (parent[AsIndex(x)] != x) x = parent[AsIndex(x)];
    return x;
  };
  while (true) {
    while (next_initial < initial.size() &&
           (!active[AsIndex(initial[next_initial].a)] ||
            !active[AsIndex(initial[next_initial].b)])) {
      ++next_initial;
    }
    while (!generated.empty() && (!active[AsIndex(generated.top().a)] ||
                                  !active[AsIndex(generated.top().b)])) {
      generated.pop();
    }
    Pair top;
    if (next_initial < initial.size() &&
        (generated.empty() || initial[next_initial] < generated.top())) {
      top = initial[next_initial++];
    } else if (!generated.empty()) {
      top = generated.top();
      generated.pop();
    } else {
      break;
    }
    const int32_t a = top.a, b = top.b;
    const int32_t c = static_cast<int32_t>(nbrs.size());
    active[AsIndex(a)] = active[AsIndex(b)] = false;
    active.push_back(true);
    parent.push_back(c);
    parent[AsIndex(a)] = c;
    parent[AsIndex(b)] = c;
    std::map<int32_t, double> from_a;
    for (const Entry& e : nbrs[AsIndex(a)]) {
      if (active[AsIndex(e.slot)]) from_a[e.slot] = e.dist;
    }
    std::vector<Entry> merged;
    for (const Entry& e : nbrs[AsIndex(b)]) {
      auto it = from_a.find(e.slot);
      if (it == from_a.end()) continue;
      const double dck = std::max(it->second, e.dist);
      if (dck <= threshold_m) merged.push_back(Entry{e.slot, dck});
    }
    nbrs.push_back(merged);
    for (const Entry& e : merged) {
      nbrs[AsIndex(e.slot)].push_back(Entry{c, e.dist});
      generated.push(Pair{e.dist, e.slot, c});
    }
  }
  std::vector<int32_t> labels(n, -1);
  std::vector<int32_t> remap(nbrs.size(), -1);
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t root = find(static_cast<int32_t>(i));
    if (remap[AsIndex(root)] < 0) remap[AsIndex(root)] = next++;
    labels[i] = remap[AsIndex(root)];
  }
  return labels;
}

void ExpectSameLabelsAsReference(const std::vector<LatLon>& points,
                                 double threshold_m) {
  auto got = ThresholdCompleteLinkage(points, threshold_m);
  ASSERT_TRUE(got.ok());
  const std::vector<int32_t> want = ReferenceTwoStreamHac(points, threshold_m);
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ((*got)[i], want[i])
        << "label mismatch at point " << i << " of " << want.size()
        << ", threshold " << threshold_m;
  }
}

TEST(ThresholdHacIdentityTest, MatchesReferenceOnRandomInputs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto points = RandomClumpedPoints(300 + 200 * seed, seed * 31);
    for (double threshold : {40.0, 100.0, 250.0}) {
      ExpectSameLabelsAsReference(points, threshold);
    }
  }
}

TEST(ThresholdHacIdentityTest, MatchesReferenceOnExactDuplicates) {
  // Every position repeated 1-5 times: zero distances tie everywhere.
  Rng rng(5);
  const auto sites = RandomClumpedPoints(120, 17);
  std::vector<LatLon> points;
  for (const LatLon& p : sites) {
    const size_t copies = 1 + rng.NextBounded(5);
    for (size_t k = 0; k < copies; ++k) points.push_back(p);
  }
  // Interleave the copies so equal points do not sit at adjacent indices.
  for (size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng.NextBounded(i)]);
  }
  for (double threshold : {0.0, 30.0, 100.0}) {
    ExpectSameLabelsAsReference(points, threshold);
  }
}

TEST(ThresholdHacIdentityTest, MatchesReferenceOnLattice) {
  // Dyadic lattice steps make every coordinate difference exact, so all
  // same-row neighbours and all same-column neighbours are at exactly
  // equal distances: ~27 m north-south, ~33 m east-west.
  const double dlat = std::ldexp(1.0, -12);
  const double dlon = std::ldexp(1.0, -11);
  std::vector<LatLon> points;
  for (int row = 0; row < 24; ++row) {
    for (int col = 0; col < 24; ++col) {
      points.emplace_back(53.25 + row * dlat, -6.5 + col * dlon);
    }
  }
  for (double threshold : {27.5, 33.0, 45.0, 100.0, 150.0}) {
    ExpectSameLabelsAsReference(points, threshold);
  }
  // A shuffled copy: slot ids no longer follow the lattice order.
  Rng rng(11);
  for (size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng.NextBounded(i)]);
  }
  for (double threshold : {45.0, 100.0}) {
    ExpectSameLabelsAsReference(points, threshold);
  }
}

TEST(ThresholdHacIdentityTest, MatchesReferenceOnCsvRoundedCoordinates) {
  // Dataset::WriteCsv keeps 6 decimals (~0.1 m), so a dataset read back
  // from CSV carries snapped coordinates with many repeated distances.
  auto points = RandomClumpedPoints(1500, 23);
  for (LatLon& p : points) {
    p = LatLon(*ParseDouble(FormatDouble(p.lat, 6)),
               *ParseDouble(FormatDouble(p.lon, 6)));
  }
  for (double threshold : {50.0, 100.0}) {
    ExpectSameLabelsAsReference(points, threshold);
  }
}

TEST(ThresholdHacIdentityTest, MatchesReferenceOnSyntheticFreePoints) {
  for (uint64_t seed : {7ULL, 424242ULL}) {
    data::SyntheticConfig config;
    config.seed = seed;
    auto dataset = data::GenerateSyntheticMoby(config);
    ASSERT_TRUE(dataset.ok());
    std::vector<LatLon> stations, dockless;
    for (const auto& loc : dataset->locations()) {
      if (!loc.has_coordinates()) continue;
      (loc.is_station ? stations : dockless).push_back(loc.position);
    }
    const GeoClusterParams params;
    auto clustering = ClusterLocations(dockless, stations, params);
    ASSERT_TRUE(clustering.ok());
    std::vector<LatLon> free_points;
    for (size_t i = 0; i < dockless.size(); ++i) {
      const auto& group = clustering->clusters[AsIndex(clustering->assignment[i])];
      if (!group.is_station_group()) free_points.push_back(dockless[i]);
    }
    ASSERT_GT(free_points.size(), 1000u) << "seed " << seed;
    ExpectSameLabelsAsReference(free_points, params.cluster_boundary_m);
  }
}

// ---------------------------------------------------------------------------
// Station absorption: the nearest station within the radius, ties to the
// smaller station index, the boundary inclusive.
// ---------------------------------------------------------------------------
TEST(StationAbsorptionTest, EquidistantStationsResolveToSmallerIndex) {
  const LatLon location(53.35, -6.26);
  // Mirror-image offsets in longitude: both stations are at exactly the
  // same haversine distance from the location.
  const double dlon = std::ldexp(1.0, -12);
  const LatLon west(location.lat, location.lon - dlon);
  const LatLon east(location.lat, location.lon + dlon);
  ASSERT_EQ(geo::HaversineMeters(location, west),
            geo::HaversineMeters(location, east));
  for (const auto& stations : {std::vector<LatLon>{west, east},
                               std::vector<LatLon>{east, west}}) {
    auto result = ClusterLocations({location}, stations, GeoClusterParams{});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->absorbed_count, 1u);
    EXPECT_EQ(result->assignment[0], 0);
  }
}

TEST(StationAbsorptionTest, LocationExactlyAtRadiusIsAbsorbed) {
  const LatLon station(53.35, -6.26);
  const LatLon location = geo::Offset(station, 37.0, 63.0);
  GeoClusterParams params;
  params.station_absorption_m = geo::HaversineMeters(station, location);
  auto at_radius = ClusterLocations({location}, {station}, params);
  ASSERT_TRUE(at_radius.ok());
  EXPECT_EQ(at_radius->absorbed_count, 1u);
  EXPECT_EQ(at_radius->assignment[0], 0);

  params.station_absorption_m =
      std::nextafter(params.station_absorption_m, 0.0);
  auto inside = ClusterLocations({location}, {station}, params);
  ASSERT_TRUE(inside.ok());
  EXPECT_EQ(inside->absorbed_count, 0u);
  EXPECT_EQ(inside->assignment[0], 1);
}

// ---------------------------------------------------------------------------
// GridIndex: dense-storage queries against brute force, including the
// expanding-ring KNearest and the pair sweep.
// ---------------------------------------------------------------------------
TEST(GridIndexEquivalenceTest, KNearestMatchesBruteForce) {
  Rng rng(99);
  const LatLon center(53.35, -6.26);
  std::vector<LatLon> points;
  geo::GridIndex index(100.0);
  for (int i = 0; i < 300; ++i) {
    points.push_back(geo::Offset(center, rng.NextUniform(0.0, 1200.0),
                                 rng.NextUniform(0.0, 360.0)));
    index.Add(i, points.back());
  }
  for (int q = 0; q < 40; ++q) {
    const LatLon query = geo::Offset(center, rng.NextUniform(0.0, 1500.0),
                                     rng.NextUniform(0.0, 360.0));
    const size_t k = 1 + rng.NextBounded(12);
    const int64_t exclude = q % 3 == 0 ? static_cast<int64_t>(q) : -1;
    std::vector<geo::GridIndex::Neighbor> brute;
    for (size_t i = 0; i < points.size(); ++i) {
      if (static_cast<int64_t>(i) == exclude) continue;
      brute.push_back({static_cast<int64_t>(i),
                       geo::HaversineMeters(points[i], query)});
    }
    std::sort(brute.begin(), brute.end(), [](const auto& a, const auto& b) {
      if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
      return a.id < b.id;
    });
    if (brute.size() > k) brute.resize(k);
    auto got = index.KNearest(query, k, exclude);
    ASSERT_EQ(got.size(), brute.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, brute[i].id) << "query " << q << " rank " << i;
      EXPECT_DOUBLE_EQ(got[i].distance_m, brute[i].distance_m);
    }
  }
}

TEST(GridIndexEquivalenceTest, ForEachWithinRadiusMatchesWithinRadius) {
  Rng rng(7);
  const LatLon center(53.35, -6.26);
  geo::GridIndex index(80.0);
  std::vector<LatLon> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(geo::Offset(center, rng.NextUniform(0.0, 900.0),
                                 rng.NextUniform(0.0, 360.0)));
    index.Add(i, points.back());
  }
  for (int q = 0; q < 30; ++q) {
    const LatLon query = geo::Offset(center, rng.NextUniform(0.0, 1000.0),
                                     rng.NextUniform(0.0, 360.0));
    const double radius = rng.NextUniform(10.0, 300.0);
    std::vector<int64_t> via_visitor;
    index.ForEachWithinRadius(query, radius, [&](int64_t id, double d) {
      EXPECT_LE(d, radius);
      EXPECT_EQ(d, geo::HaversineMeters(index.PointOf(id), query));
      via_visitor.push_back(id);
    });
    std::sort(via_visitor.begin(), via_visitor.end());
    EXPECT_EQ(via_visitor, index.WithinRadius(query, radius));
  }
}

TEST(GridIndexEquivalenceTest, PairSweepMatchesBruteForcePairs) {
  Rng rng(21);
  const LatLon center(53.35, -6.26);
  geo::GridIndex index(100.0);
  std::vector<LatLon> points;
  for (int i = 0; i < 250; ++i) {
    points.push_back(geo::Offset(center, rng.NextUniform(0.0, 700.0),
                                 rng.NextUniform(0.0, 360.0)));
    index.Add(i, points.back());
  }
  for (double radius : {30.0, 100.0, 240.0}) {
    std::vector<std::pair<int64_t, int64_t>> got;
    index.ForEachPairWithinRadius(radius, [&](int64_t a, int64_t b, double d) {
      EXPECT_LE(d, radius);
      EXPECT_EQ(d, geo::HaversineMeters(index.PointOf(a), index.PointOf(b)));
      got.emplace_back(std::min(a, b), std::max(a, b));
    });
    std::sort(got.begin(), got.end());
    ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
        << "pair enumerated twice at radius " << radius;
    std::vector<std::pair<int64_t, int64_t>> brute;
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        if (geo::HaversineMeters(points[i], points[j]) <= radius) {
          brute.emplace_back(i, j);
        }
      }
    }
    EXPECT_EQ(got, brute);
  }
}

// The pair sweep's per-row longitude span must widen with latitude (cells
// narrow toward the poles); enumerate at 80°N and compare to brute force.
TEST(GridIndexEquivalenceTest, PairSweepMatchesBruteForceAtHighLatitude) {
  Rng rng(33);
  const LatLon center(80.0, 20.0);
  geo::GridIndex index(100.0);  // reference latitude stays at Dublin
  std::vector<LatLon> points;
  for (int i = 0; i < 150; ++i) {
    points.push_back(geo::Offset(center, rng.NextUniform(0.0, 500.0),
                                 rng.NextUniform(0.0, 360.0)));
    index.Add(i, points.back());
  }
  for (double radius : {60.0, 150.0}) {
    std::vector<std::pair<int64_t, int64_t>> got;
    index.ForEachPairWithinRadius(radius, [&](int64_t a, int64_t b, double) {
      got.emplace_back(std::min(a, b), std::max(a, b));
    });
    std::sort(got.begin(), got.end());
    std::vector<std::pair<int64_t, int64_t>> brute;
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        if (geo::HaversineMeters(points[i], points[j]) <= radius) {
          brute.emplace_back(i, j);
        }
      }
    }
    EXPECT_EQ(got, brute) << "radius " << radius;
  }
}

// Regression: Nearest's ring termination must account for the longitude
// cell width. Away from the reference latitude, longitude cells are
// narrower (in metres) than latitude cells, so a bound using only the
// latitude edge can stop before a closer point in a lateral cell is seen.
TEST(GridIndexNearestTest, RingTerminationCorrectAwayFromReferenceLatitude) {
  geo::GridIndex index(100.0);  // reference latitude 53.35
  const LatLon query(75.0, 0.0);
  // A sits ~90 m east — about 2 longitude cells away at latitude 75.
  const LatLon a = geo::Offset(query, 90.0, 90.0);
  // B sits ~95 m north — inside the first ring.
  const LatLon b = geo::Offset(query, 95.0, 0.0);
  index.Add(1, a);
  index.Add(2, b);
  auto nearest = index.Nearest(query);
  EXPECT_EQ(nearest.id, 1) << "terminated before scanning the lateral cell";
  EXPECT_NEAR(nearest.distance_m, 90.0, 1.0);
}

}  // namespace
}  // namespace bikegraph
