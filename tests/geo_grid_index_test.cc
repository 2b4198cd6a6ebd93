#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>

#include "core/rng.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

namespace bikegraph::geo {
namespace {

TEST(GridIndexTest, EmptyIndexBehaviour) {
  GridIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.WithinRadius({53.35, -6.26}, 100.0).size(), 0u);
  EXPECT_EQ(index.Nearest({53.35, -6.26}).id, -1);
  EXPECT_TRUE(index.KNearest({53.35, -6.26}, 3).empty());
}

TEST(GridIndexTest, RejectsInvalidPoints) {
  GridIndex index;
  EXPECT_FALSE(index.Add(1, LatLon(std::nan(""), 0.0)));
  EXPECT_TRUE(index.Add(2, LatLon(53.35, -6.26)));
  EXPECT_TRUE(index.Add(3, LatLon(53.351, -6.26)));
  EXPECT_EQ(index.size(), 2u);

  // An invalid query point has no neighbour; a NaN radius, like a
  // negative one, covers nothing.
  const double nan = std::nan("");
  for (const LatLon& bad : {LatLon(nan, nan), LatLon(nan, -6.26),
                            LatLon(53.35, 200.0), LatLon(-91.0, 0.0)}) {
    const auto nearest = index.Nearest(bad);
    EXPECT_EQ(nearest.id, -1);
    EXPECT_EQ(nearest.distance_m, std::numeric_limits<double>::infinity());
    EXPECT_TRUE(index.KNearest(bad, 3).empty());
    EXPECT_TRUE(index.WithinRadius(bad, 1000.0).empty());
    int visits = 0;
    index.ForEachWithinRadius(bad, 1000.0, [&](int64_t, double) { ++visits; });
    EXPECT_EQ(visits, 0);
  }
  int visits = 0;
  index.ForEachWithinRadius({53.35, -6.26}, nan,
                            [&](int64_t, double) { ++visits; });
  index.ForEachPairWithinRadius(nan, [&](int64_t, int64_t, double) {
    ++visits;
  });
  EXPECT_EQ(visits, 0);
  EXPECT_TRUE(index.WithinRadius({53.35, -6.26}, nan).empty());
}

TEST(GridIndexTest, WithinRadiusExactBoundary) {
  GridIndex index(50.0);
  LatLon center(53.35, -6.26);
  index.Add(1, Offset(center, 99.9, 90.0));
  index.Add(2, Offset(center, 100.1, 90.0));
  auto hits = index.WithinRadius(center, 100.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1);
}

TEST(GridIndexTest, NearestFindsClosest) {
  GridIndex index(100.0);
  LatLon center(53.35, -6.26);
  index.Add(10, Offset(center, 500.0, 0.0));
  index.Add(20, Offset(center, 120.0, 90.0));
  index.Add(30, Offset(center, 3000.0, 180.0));
  auto nearest = index.Nearest(center);
  EXPECT_EQ(nearest.id, 20);
  EXPECT_NEAR(nearest.distance_m, 120.0, 0.5);
}

TEST(GridIndexTest, NearestWithExclusion) {
  GridIndex index(100.0);
  LatLon center(53.35, -6.26);
  index.Add(1, center);
  index.Add(2, Offset(center, 80.0, 45.0));
  EXPECT_EQ(index.Nearest(center).id, 1);
  EXPECT_EQ(index.Nearest(center, /*exclude_id=*/1).id, 2);

  // A point added after a query is seen by the next one.
  index.Add(3, Offset(center, 10.0, 90.0));
  EXPECT_EQ(index.Nearest(center, /*exclude_id=*/1).id, 3);
  EXPECT_EQ(index.WithinRadius(center, 50.0), (std::vector<int64_t>{1, 3}));
}

TEST(GridIndexTest, NearestAcrossManyCells) {
  // Nearest neighbour far from the query: the ring search must expand.
  GridIndex index(50.0);
  LatLon center(53.35, -6.26);
  index.Add(7, Offset(center, 4000.0, 270.0));
  auto nearest = index.Nearest(center);
  EXPECT_EQ(nearest.id, 7);
  EXPECT_NEAR(nearest.distance_m, 4000.0, 2.0);
}

// Brute-force reference for Nearest/KNearest: every stored point by
// (distance, id), `exclude` skipped, the first k kept.
std::vector<GridIndex::Neighbor> BruteKNearest(
    const std::vector<LatLon>& points, const LatLon& q, size_t k,
    int64_t exclude = -1) {
  std::vector<GridIndex::Neighbor> all;
  for (size_t i = 0; i < points.size(); ++i) {
    if (static_cast<int64_t>(i) == exclude) continue;
    all.push_back({static_cast<int64_t>(i), HaversineMeters(points[i], q)});
  }
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    return std::tie(x.distance_m, x.id) < std::tie(y.distance_m, y.id);
  });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameNeighbors(const std::vector<GridIndex::Neighbor>& got,
                         const std::vector<GridIndex::Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_NEAR(got[i].distance_m, want[i].distance_m, 1e-6) << "rank " << i;
  }
}

TEST(GridIndexTest, FarQueryPointsMatchBruteForce) {
  // The ring search starts at the first ring that reaches the stored
  // cells and stops once a ring covers them, so a query hundreds or
  // thousands of kilometres away costs a few rings, not one per cell of
  // distance.
  GridIndex index(100.0);
  const LatLon center(53.35, -6.26);
  const std::vector<LatLon> points = {center, Offset(center, 250.0, 40.0),
                                      Offset(center, 900.0, 200.0)};
  for (size_t i = 0; i < points.size(); ++i) {
    index.Add(static_cast<int64_t>(i), points[i]);
  }
  for (const LatLon& far : {Offset(center, 370000.0, 120.0),
                            Offset(center, 17000000.0, 95.0)}) {
    const auto want = BruteKNearest(points, far, 3);
    const auto nearest = index.Nearest(far);
    EXPECT_EQ(nearest.id, want[0].id);
    EXPECT_NEAR(nearest.distance_m, want[0].distance_m, 1e-6);
    ExpectSameNeighbors(index.KNearest(far, 3), want);
    ExpectSameNeighbors(index.KNearest(far, 2, /*exclude_id=*/want[0].id),
                        BruteKNearest(points, far, 2, want[0].id));
  }
}

TEST(GridIndexTest, KNearestOrdering) {
  GridIndex index(100.0);
  LatLon center(53.35, -6.26);
  for (int i = 1; i <= 5; ++i) {
    index.Add(i, Offset(center, i * 100.0, 90.0));
  }
  auto knn = index.KNearest(center, 3);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(knn[0].id, 1);
  EXPECT_EQ(knn[1].id, 2);
  EXPECT_EQ(knn[2].id, 3);
  EXPECT_LT(knn[0].distance_m, knn[1].distance_m);
}

TEST(GridIndexTest, KNearestFewerThanK) {
  GridIndex index(100.0);
  index.Add(1, {53.35, -6.26});
  EXPECT_EQ(index.KNearest({53.35, -6.26}, 10).size(), 1u);
}

TEST(GridIndexTest, PointOfReturnsStoredCoordinate) {
  GridIndex index;
  LatLon p(53.351234, -6.267890);
  index.Add(42, p);
  EXPECT_EQ(index.PointOf(42), p);
  EXPECT_TRUE(std::isnan(index.PointOf(99).lat));
}

using PairSet = std::set<std::tuple<int64_t, int64_t>>;

// Property test: every query matches a brute-force scan for random
// points, radii and query points, inside and outside the data's extent
// (various cell sizes).
class GridIndexPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(GridIndexPropertyTest, MatchesBruteForce) {
  const double cell_size = GetParam();
  GridIndex index(cell_size);
  Rng rng(99);
  const LatLon center(53.35, -6.26);
  std::vector<LatLon> points;
  for (int i = 0; i < 500; ++i) {
    LatLon p = Offset(center, rng.NextUniform(0.0, 2000.0),
                      rng.NextUniform(0.0, 360.0));
    points.push_back(p);
    index.Add(i, p);
  }
  for (int trial = 0; trial < 40; ++trial) {
    // Every fourth query lies outside the 2 km disc holding the data.
    const double range = trial % 4 == 3 ? rng.NextUniform(2500.0, 20000.0)
                                        : rng.NextUniform(0.0, 1500.0);
    LatLon q = Offset(center, range, rng.NextUniform(0.0, 360.0));
    double radius = rng.NextUniform(10.0, 800.0);

    std::vector<int64_t> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (HaversineMeters(points[i], q) <= radius) {
        expected.push_back(static_cast<int64_t>(i));
      }
    }
    EXPECT_EQ(index.WithinRadius(q, radius), expected);

    const auto best = BruteKNearest(points, q, 1);
    auto nearest = index.Nearest(q);
    EXPECT_EQ(nearest.id, best[0].id);
    EXPECT_NEAR(nearest.distance_m, best[0].distance_m, 1e-9);
    const int64_t exclude = best[0].id;
    const auto second = BruteKNearest(points, q, 1, exclude);
    const auto excluded = index.Nearest(q, exclude);
    EXPECT_EQ(excluded.id, second[0].id);
    EXPECT_NEAR(excluded.distance_m, second[0].distance_m, 1e-9);
    for (size_t k : {size_t{1}, size_t{3}, size_t{7}}) {
      ExpectSameNeighbors(index.KNearest(q, k), BruteKNearest(points, q, k));
      ExpectSameNeighbors(index.KNearest(q, k, exclude),
                          BruteKNearest(points, q, k, exclude));
    }
  }

  for (double radius : {cell_size * 0.6, 60.0, 200.0}) {
    PairSet got;
    index.ForEachPairWithinRadius(radius, [&](int64_t a, int64_t b, double) {
      EXPECT_TRUE(got.insert({std::min(a, b), std::max(a, b)}).second);
    });
    PairSet want;
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        if (HaversineMeters(points[i], points[j]) <= radius) {
          want.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
        }
      }
    }
    EXPECT_EQ(got, want) << "radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridIndexPropertyTest,
                         ::testing::Values(25.0, 100.0, 400.0, 2000.0));

}  // namespace
}  // namespace bikegraph::geo
