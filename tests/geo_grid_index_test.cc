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
}

TEST(GridIndexTest, RejectsInvalidPoints) {
  GridIndex index;
  EXPECT_FALSE(index.Add(1, LatLon(std::nan(""), 0.0)));
  EXPECT_TRUE(index.Add(2, LatLon(53.35, -6.26)));
  EXPECT_EQ(index.size(), 1u);
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

// Property test: grid results match a brute-force scan for random points
// and radii (various cell sizes).
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
  for (int trial = 0; trial < 20; ++trial) {
    LatLon q = Offset(center, rng.NextUniform(0.0, 1500.0),
                      rng.NextUniform(0.0, 360.0));
    double radius = rng.NextUniform(10.0, 800.0);

    std::vector<int64_t> expected;
    int64_t best_id = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < points.size(); ++i) {
      double d = HaversineMeters(points[i], q);
      if (d <= radius) expected.push_back(static_cast<int64_t>(i));
      if (d < best_dist ||
          (d == best_dist && static_cast<int64_t>(i) < best_id)) {
        best_dist = d;
        best_id = static_cast<int64_t>(i);
      }
    }
    std::sort(expected.begin(), expected.end());

    EXPECT_EQ(index.WithinRadius(q, radius), expected);
    auto nearest = index.Nearest(q);
    EXPECT_EQ(nearest.id, best_id);
    EXPECT_NEAR(nearest.distance_m, best_dist, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridIndexPropertyTest,
                         ::testing::Values(25.0, 100.0, 400.0, 2000.0));

// ---------------------------------------------------------------------------
// Freeze(): the sorted-cell build-once/query-many mode must answer every
// query identically to the lazy-hash representation.
// ---------------------------------------------------------------------------

using PairSet = std::set<std::tuple<int64_t, int64_t>>;

PairSet CollectPairs(const GridIndex& index, double radius) {
  PairSet pairs;
  index.ForEachPairWithinRadius(radius, [&](int64_t a, int64_t b, double) {
    pairs.insert({std::min(a, b), std::max(a, b)});
  });
  return pairs;
}

TEST(GridIndexFreezeTest, FrozenQueriesMatchUnfrozen) {
  const LatLon center(53.35, -6.26);
  Rng rng(123);
  GridIndex lazy(80.0);
  GridIndex frozen(80.0);
  for (int i = 0; i < 400; ++i) {
    LatLon p = Offset(center, rng.NextUniform(0.0, 1500.0),
                      rng.NextUniform(0.0, 360.0));
    lazy.Add(i, p);
    frozen.Add(i, p);
  }
  frozen.Freeze();
  EXPECT_TRUE(frozen.frozen());
  EXPECT_FALSE(lazy.frozen());

  for (int trial = 0; trial < 15; ++trial) {
    LatLon q = Offset(center, rng.NextUniform(0.0, 1200.0),
                      rng.NextUniform(0.0, 360.0));
    const double radius = rng.NextUniform(20.0, 600.0);
    EXPECT_EQ(frozen.WithinRadius(q, radius), lazy.WithinRadius(q, radius));
    auto nf = frozen.Nearest(q);
    auto nl = lazy.Nearest(q);
    EXPECT_EQ(nf.id, nl.id);
    EXPECT_EQ(nf.distance_m, nl.distance_m);
    auto kf = frozen.KNearest(q, 7);
    auto kl = lazy.KNearest(q, 7);
    ASSERT_EQ(kf.size(), kl.size());
    for (size_t i = 0; i < kf.size(); ++i) {
      EXPECT_EQ(kf[i].id, kl[i].id);
      EXPECT_EQ(kf[i].distance_m, kl[i].distance_m);
    }
  }
  // The all-pairs sweep enumerates the same pair set.
  for (double radius : {60.0, 200.0}) {
    EXPECT_EQ(CollectPairs(frozen, radius), CollectPairs(lazy, radius));
  }
  EXPECT_EQ(frozen.PointOf(17).lat, lazy.PointOf(17).lat);
}

TEST(GridIndexFreezeTest, AddAfterFreezeThaws) {
  const LatLon center(53.35, -6.26);
  GridIndex index(100.0);
  index.Add(0, center);
  index.Add(1, Offset(center, 120.0, 90.0));
  index.Freeze();
  ASSERT_TRUE(index.frozen());
  EXPECT_EQ(index.WithinRadius(center, 50.0).size(), 1u);

  // Adding thaws; queries see old and new points.
  EXPECT_TRUE(index.Add(2, Offset(center, 30.0, 0.0)));
  EXPECT_FALSE(index.frozen());
  EXPECT_EQ(index.WithinRadius(center, 50.0).size(), 2u);
  EXPECT_EQ(index.WithinRadius(center, 200.0),
            (std::vector<int64_t>{0, 1, 2}));

  // Re-freezing works and stays consistent.
  index.Freeze();
  EXPECT_EQ(index.WithinRadius(center, 200.0),
            (std::vector<int64_t>{0, 1, 2}));
  auto n = index.Nearest(center, /*exclude_id=*/0);
  EXPECT_EQ(n.id, 2);
}

TEST(GridIndexFreezeTest, FreezeEmptyAndIdempotent) {
  GridIndex index;
  index.Freeze();
  index.Freeze();
  EXPECT_TRUE(index.frozen());
  EXPECT_EQ(index.Nearest({53.35, -6.26}).id, -1);
  EXPECT_EQ(index.WithinRadius({53.35, -6.26}, 500.0).size(), 0u);
}

}  // namespace
}  // namespace bikegraph::geo
