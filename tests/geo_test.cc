#include <algorithm>
#include <cmath>

#include "geo/bbox.h"
#include "geo/dublin.h"
#include "geo/haversine.h"
#include "geo/latlon.h"
#include "geo/polygon.h"

#include <gtest/gtest.h>

namespace bikegraph::geo {
namespace {

constexpr double kDublinLat = 53.35;

TEST(LatLonTest, ValidityChecks) {
  EXPECT_TRUE(LatLon(53.35, -6.26).IsValid());
  EXPECT_TRUE(LatLon(-90.0, 180.0).IsValid());
  EXPECT_FALSE(LatLon(91.0, 0.0).IsValid());
  EXPECT_FALSE(LatLon(0.0, -181.0).IsValid());
  EXPECT_FALSE(LatLon(std::nan(""), 0.0).IsValid());
  EXPECT_FALSE(LatLon(0.0, std::nan("")).IsValid());
}

TEST(HaversineTest, ZeroDistanceForIdenticalPoints) {
  LatLon p(53.3498, -6.2603);
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(HaversineTest, SymmetricAndPositive) {
  LatLon a(53.35, -6.26), b(53.30, -6.13);
  EXPECT_GT(HaversineMeters(a, b), 0.0);
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(HaversineTest, KnownDistanceDublinToCork) {
  // Dublin (53.3498, -6.2603) to Cork (51.8985, -8.4756): ~220 km.
  double d = HaversineMeters({53.3498, -6.2603}, {51.8985, -8.4756});
  EXPECT_NEAR(d, 220000.0, 5000.0);
}

TEST(HaversineTest, OneDegreeLatitudeIsAbout111Km) {
  double d = HaversineMeters({53.0, -6.0}, {54.0, -6.0});
  EXPECT_NEAR(d, 111195.0, 200.0);
}

TEST(HaversineTest, AccurateAtSmallDistances) {
  // 50 m offset north.
  LatLon a(kDublinLat, -6.26);
  LatLon b = Offset(a, 50.0, 0.0);
  EXPECT_NEAR(HaversineMeters(a, b), 50.0, 0.01);
}

TEST(HaversineTest, EquirectangularCloseAtCityScale) {
  LatLon a(53.35, -6.26);
  for (double bearing : {0.0, 45.0, 90.0, 135.0, 180.0, 270.0}) {
    for (double dist : {50.0, 500.0, 5000.0}) {
      LatLon b = Offset(a, dist, bearing);
      double h = HaversineMeters(a, b);
      double e = EquirectangularMeters(a, b);
      EXPECT_NEAR(e / h, 1.0, 0.001) << "bearing=" << bearing
                                     << " dist=" << dist;
    }
  }
}

TEST(HaversineTest, TriangleInequalityHolds) {
  LatLon a(53.30, -6.30), b(53.35, -6.20), c(53.40, -6.25);
  EXPECT_LE(HaversineMeters(a, c),
            HaversineMeters(a, b) + HaversineMeters(b, c) + 1e-9);
}

TEST(OffsetTest, RoundTripBearingAndDistance) {
  LatLon origin(53.35, -6.26);
  for (double bearing : {0.0, 90.0, 180.0, 270.0, 33.0}) {
    LatLon moved = Offset(origin, 1000.0, bearing);
    EXPECT_NEAR(HaversineMeters(origin, moved), 1000.0, 0.5);
    double diff =
        std::fmod(BearingDegrees(origin, moved) - bearing + 360.0, 360.0);
    diff = std::min(diff, 360.0 - diff);  // circular distance
    EXPECT_NEAR(diff, 0.0, 0.5) << "bearing=" << bearing;
  }
}

TEST(ConversionTest, MetersToDegrees) {
  // One degree of latitude is ~111.2 km everywhere.
  EXPECT_NEAR(MetersToLatDegrees(111195.0), 1.0, 0.001);
  // Longitude degrees shrink with latitude.
  EXPECT_GT(MetersToLonDegrees(1000.0, 53.0), MetersToLonDegrees(1000.0, 0.0));
}

TEST(BBoxTest, EmptyBoxBehaviour) {
  BBox box;
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_FALSE(box.Contains({53.35, -6.26}));
}

TEST(BBoxTest, ExtendAndContain) {
  BBox box;
  box.Extend({53.30, -6.30});
  box.Extend({53.40, -6.20});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_TRUE(box.Contains({53.35, -6.25}));
  EXPECT_TRUE(box.Contains({53.30, -6.30}));  // boundary
  EXPECT_FALSE(box.Contains({53.29, -6.25}));
  EXPECT_FALSE(box.Contains({53.35, -6.31}));
}

TEST(PolygonTest, SquareContains) {
  Polygon square({{0.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {1.0, 0.0}});
  EXPECT_TRUE(square.Contains({0.5, 0.5}));
  EXPECT_FALSE(square.Contains({1.5, 0.5}));
  EXPECT_FALSE(square.Contains({-0.1, 0.5}));
}

TEST(PolygonTest, ClosedRingInputIsNormalised) {
  Polygon square({{0, 0}, {0, 1}, {1, 1}, {1, 0}, {0, 0}});
  EXPECT_EQ(square.size(), 4u);
  EXPECT_TRUE(square.Contains({0.5, 0.5}));
}

TEST(PolygonTest, DegenerateRingIsEmpty) {
  Polygon line({{0, 0}, {1, 1}});
  EXPECT_TRUE(line.empty());
  EXPECT_FALSE(line.Contains({0.5, 0.5}));
}

TEST(PolygonTest, ConcavePolygon) {
  // A "C" shape: the notch must not be inside.
  Polygon c({{0, 0}, {0, 3}, {3, 3}, {3, 2}, {1, 2}, {1, 1}, {3, 1}, {3, 0}});
  EXPECT_TRUE(c.Contains({0.5, 1.5}));   // spine of the C
  EXPECT_FALSE(c.Contains({2.0, 1.5}));  // inside the notch
  EXPECT_TRUE(c.Contains({2.0, 2.5}));   // top arm
}

TEST(RegionTest, HolesAreExcluded) {
  Polygon outer({{0, 0}, {0, 10}, {10, 10}, {10, 0}});
  Polygon hole({{4, 4}, {4, 6}, {6, 6}, {6, 4}});
  Region region(outer, {hole});
  EXPECT_TRUE(region.Contains({2, 2}));
  EXPECT_FALSE(region.Contains({5, 5}));
  EXPECT_FALSE(region.Contains({11, 5}));
}

TEST(DublinTest, LandModelIsTopologicallySane) {
  Region land = DublinLand();
  // City centre is on land.
  EXPECT_TRUE(land.Contains({53.3498, -6.2603}));
  // The bay is not.
  EXPECT_FALSE(land.Contains(InBayPoint()));
  // Wicklow is outside the boundary.
  EXPECT_FALSE(land.Contains(OutsideDublinPoint()));
  // Mid-river point is in the Liffey hole.
  EXPECT_FALSE(land.Contains({53.3469, -6.2500}));
}

TEST(DublinTest, AllHotspotsOnLand) {
  Region land = DublinLand();
  for (const auto& h : DublinHotspots()) {
    EXPECT_TRUE(land.Contains(h.center)) << h.name;
    EXPECT_GT(h.weight, 0.0) << h.name;
    EXPECT_GT(h.spread_m, 0.0) << h.name;
  }
}

TEST(DublinTest, HotspotKindsCoverAllThree) {
  bool commute = false, leisure = false, mixed = false;
  for (const auto& h : DublinHotspots()) {
    switch (h.kind) {
      case Hotspot::Kind::kCommute:
        commute = true;
        break;
      case Hotspot::Kind::kLeisure:
        leisure = true;
        break;
      case Hotspot::Kind::kMixed:
        mixed = true;
        break;
    }
  }
  EXPECT_TRUE(commute);
  EXPECT_TRUE(leisure);
  EXPECT_TRUE(mixed);
}

}  // namespace
}  // namespace bikegraph::geo
