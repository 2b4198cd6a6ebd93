#include "cluster/hac.h"

#include <map>
#include <set>

#include "core/rng.h"
#include "geo/haversine.h"

#include <gtest/gtest.h>

#include "dense_hac_reference.h"

namespace bikegraph::cluster {
namespace {

using geo::LatLon;
using geo::Offset;

const LatLon kCenter(53.35, -6.26);

/// Canonicalises a labelling so different label orders compare equal.
std::vector<int32_t> Canonical(std::vector<int32_t> labels) {
  std::map<int32_t, int32_t> remap;
  for (int32_t& l : labels) {
    auto [it, inserted] = remap.emplace(l, static_cast<int32_t>(remap.size()));
    l = it->second;
    (void)inserted;
  }
  return labels;
}

TEST(ThresholdHacTest, EmptyAndErrors) {
  auto empty = ThresholdCompleteLinkage({}, 100.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(ThresholdCompleteLinkage({kCenter}, -1.0).ok());
  EXPECT_FALSE(
      ThresholdCompleteLinkage({LatLon(999.0, 0.0)}, 100.0).ok());
}

TEST(ThresholdHacTest, IsolatedPointsStaySingletons) {
  std::vector<LatLon> points = {
      kCenter, Offset(kCenter, 500.0, 0.0), Offset(kCenter, 500.0, 180.0)};
  auto labels = ThresholdCompleteLinkage(points, 100.0);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(std::set<int32_t>(labels->begin(), labels->end()).size(), 3u);
}

TEST(ThresholdHacTest, TightGroupMerges) {
  std::vector<LatLon> points = {
      kCenter, Offset(kCenter, 30.0, 0.0), Offset(kCenter, 30.0, 120.0),
      Offset(kCenter, 2000.0, 90.0)};
  auto labels = ThresholdCompleteLinkage(points, 100.0);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], (*labels)[1]);
  EXPECT_EQ((*labels)[0], (*labels)[2]);
  EXPECT_NE((*labels)[0], (*labels)[3]);
}

TEST(ThresholdHacTest, DiameterInvariantHolds) {
  Rng rng(11);
  std::vector<LatLon> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back(Offset(kCenter, rng.NextUniform(0.0, 800.0),
                            rng.NextUniform(0.0, 360.0)));
  }
  const double threshold = 100.0;
  auto labels = ThresholdCompleteLinkage(points, threshold);
  ASSERT_TRUE(labels.ok());
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      if ((*labels)[i] == (*labels)[j]) {
        EXPECT_LE(geo::HaversineMeters(points[i], points[j]),
                  threshold + 1e-6);
      }
    }
  }
}

// Property test: the scalable threshold HAC must produce exactly the same
// partition as the dense reference implementation cut at the same level.
class ThresholdEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, int>> {};

TEST_P(ThresholdEquivalenceTest, MatchesDenseReference) {
  auto [seed, threshold, n] = GetParam();
  Rng rng(seed);
  std::vector<LatLon> points;
  for (int i = 0; i < n; ++i) {
    points.push_back(Offset(kCenter, rng.NextUniform(0.0, 600.0),
                            rng.NextUniform(0.0, 360.0)));
  }
  auto sparse = ThresholdCompleteLinkage(points, threshold);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(Canonical(*sparse),
            Canonical(DenseCompleteLinkageCut(points, threshold)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdEquivalenceTest,
    ::testing::Values(std::tuple<uint64_t, double, int>{1, 80.0, 50},
                      std::tuple<uint64_t, double, int>{2, 120.0, 100},
                      std::tuple<uint64_t, double, int>{3, 60.0, 150},
                      std::tuple<uint64_t, double, int>{4, 200.0, 80},
                      std::tuple<uint64_t, double, int>{5, 100.0, 120}));

TEST(ThresholdHacTest, DuplicatePointsMergeAtZeroDistance) {
  std::vector<LatLon> points = {kCenter, kCenter, kCenter,
                                Offset(kCenter, 500.0, 0.0)};
  auto labels = ThresholdCompleteLinkage(points, 10.0);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], (*labels)[1]);
  EXPECT_EQ((*labels)[1], (*labels)[2]);
  EXPECT_NE((*labels)[0], (*labels)[3]);
}

}  // namespace
}  // namespace bikegraph::cluster
