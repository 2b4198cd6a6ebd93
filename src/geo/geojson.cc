#include "geo/geojson.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace bikegraph::geo {
namespace {

std::string CoordPair(const LatLon& p) {
  char buf[64];
  // GeoJSON order is [lon, lat].
  std::snprintf(buf, sizeof(buf), "[%.6f,%.6f]", p.lon, p.lat);
  return buf;
}

bool LooksNumeric(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

std::string PropsJson(const GeoJsonWriter::Properties& props) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, value] : props) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(key) << "\":";
    if (LooksNumeric(value)) {
      os << value;
    } else {
      os << "\"" << JsonEscape(value) << "\"";
    }
  }
  os << "}";
  return os.str();
}

std::string Feature(const std::string& geometry,
                    const GeoJsonWriter::Properties& props) {
  std::ostringstream os;
  os << "{\"type\":\"Feature\",\"geometry\":" << geometry
     << ",\"properties\":" << PropsJson(props) << "}";
  return os.str();
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void GeoJsonWriter::AddPoint(const LatLon& p, const Properties& props) {
  features_.push_back(Feature(
      "{\"type\":\"Point\",\"coordinates\":" + CoordPair(p) + "}", props));
}

void GeoJsonWriter::AddLine(const LatLon& from, const LatLon& to,
                            const Properties& props) {
  AddLineString({from, to}, props);
}

void GeoJsonWriter::AddLineString(const std::vector<LatLon>& points,
                                  const Properties& props) {
  std::ostringstream geom;
  geom << "{\"type\":\"LineString\",\"coordinates\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) geom << ",";
    geom << CoordPair(points[i]);
  }
  geom << "]}";
  features_.push_back(Feature(geom.str(), props));
}

std::string GeoJsonWriter::ToString() const {
  std::ostringstream os;
  os << "{\"type\":\"FeatureCollection\",\"features\":[";
  for (size_t i = 0; i < features_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n" << features_[i];
  }
  os << "\n]}\n";
  return os.str();
}

Status GeoJsonWriter::WriteToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << ToString();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace bikegraph::geo
