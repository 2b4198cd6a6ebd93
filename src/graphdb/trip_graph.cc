#include "graphdb/trip_graph.h"

#include <string>

namespace bikegraph::graphdb {

Status TripGraph::AddTrip(int32_t from, int32_t to, int day, int hour) {
  if (from < 0 || to < 0 || static_cast<size_t>(from) >= node_count_ ||
      static_cast<size_t>(to) >= node_count_) {
    return Status::InvalidArgument("trip endpoint out of range: " +
                                   std::to_string(from) + " -> " +
                                   std::to_string(to));
  }
  if (day < 0 || day > 6 || hour < 0 || hour > 23) {
    return Status::InvalidArgument("trip day/hour out of range: " +
                                   std::to_string(day) + "/" +
                                   std::to_string(hour));
  }
  trips_.push_back(Trip{from, to, static_cast<uint8_t>(day),
                        static_cast<uint8_t>(hour)});
  return Status::OK();
}

}  // namespace bikegraph::graphdb
