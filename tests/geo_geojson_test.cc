#include "geo/geojson.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace bikegraph::geo {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(GeoJsonWriterTest, EmptyCollection) {
  GeoJsonWriter w;
  EXPECT_EQ(w.feature_count(), 0u);
  std::string out = w.ToString();
  EXPECT_NE(out.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(out.find("\"features\":["), std::string::npos);
}

TEST(GeoJsonWriterTest, PointFeatureLonLatOrder) {
  GeoJsonWriter w;
  w.AddPoint({53.35, -6.26}, {{"name", "test"}});
  std::string out = w.ToString();
  // GeoJSON is [lon, lat].
  EXPECT_NE(out.find("[-6.260000,53.350000]"), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"test\""), std::string::npos);
  EXPECT_EQ(w.feature_count(), 1u);
}

TEST(GeoJsonWriterTest, NumericPropertiesUnquoted) {
  GeoJsonWriter w;
  w.AddPoint({53.0, -6.0}, {{"degree", "42"}, {"ratio", "0.5"}});
  std::string out = w.ToString();
  EXPECT_NE(out.find("\"degree\":42"), std::string::npos);
  EXPECT_NE(out.find("\"ratio\":0.5"), std::string::npos);
}

TEST(GeoJsonWriterTest, LineGeometry) {
  GeoJsonWriter w;
  w.AddLine({53.0, -6.0}, {53.1, -6.1}, {{"trips", "5"}});
  std::string out = w.ToString();
  EXPECT_NE(out.find("\"LineString\""), std::string::npos);
  EXPECT_EQ(w.feature_count(), 1u);
}

TEST(GeoJsonWriterTest, WriteToFileRoundTrip) {
  GeoJsonWriter w;
  w.AddPoint({53.35, -6.26}, {{"k", "v"}});
  std::string path = ::testing::TempDir() + "/geojson_test.json";
  ASSERT_TRUE(w.WriteToFile(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), w.ToString());
  std::remove(path.c_str());
}

TEST(GeoJsonWriterTest, WriteToBadPathFails) {
  GeoJsonWriter w;
  EXPECT_FALSE(w.WriteToFile("/nonexistent-dir/x/y.json").ok());
}

}  // namespace
}  // namespace bikegraph::geo
