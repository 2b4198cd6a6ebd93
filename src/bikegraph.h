#pragma once

/// \file bikegraph.h
/// \brief Umbrella header: the full public API of the BikeGraph library.
///
/// Downstream users can include this single header and link
/// `bikegraph::bikegraph`. Individual module headers remain includable on
/// their own for finer-grained dependencies.

// Core substrate: error handling, RNG, time.
#include "core/checked_cast.h"
#include "core/civil_time.h"
#include "core/io_env.h"
#include "core/logging.h"
#include "core/result.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/string_util.h"

// Geospatial substrate.
#include "geo/bbox.h"
#include "geo/dublin.h"
#include "geo/geojson.h"
#include "geo/grid_index.h"
#include "geo/haversine.h"
#include "geo/latlon.h"
#include "geo/polygon.h"

// Data layer.
#include "data/cleaning.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/records.h"
#include "data/synthetic.h"

// Graph store.
#include "graphdb/trip_graph.h"
#include "graphdb/weighted_graph.h"

// Clustering.
#include "cluster/geo_cluster.h"
#include "cluster/hac.h"

// The paper's core contribution: expansion optimisation.
#include "expansion/candidate.h"
#include "expansion/final_network.h"
#include "expansion/pipeline.h"
#include "expansion/selection.h"

// Community detection. detector.h is the single entry point (Detect(),
// algorithm registry); modularity.h holds the two objectives, modularity
// and the map-equation codelength.
#include "community/aggregate.h"
#include "community/detector.h"
#include "community/modularity.h"
#include "community/partition.h"

// Network metrics: the paper's Table II trip-graph counters.
#include "metrics/graph_stats.h"

// Streaming ingestion: sliding-window graphs, immutable snapshots,
// warm-start community refresh (see docs/STREAMING.md); durability —
// write-ahead log, crash-consistent checkpoints (see docs/DURABILITY.md).
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "stream/incremental_community.h"
#include "stream/reorder_buffer.h"
#include "stream/replay.h"
#include "stream/shard.h"
#include "stream/snapshot.h"
#include "stream/spsc_ring.h"
#include "stream/wal.h"
#include "stream/window_graph.h"

// Query serving: epoch-pinned concurrent reads over published snapshots
// with per-epoch memoization (see docs/SERVING.md).
#include "query/epoch_memo.h"
#include "query/query.h"
#include "query/service.h"
#include "query/workload.h"

// Analysis & experiments.
#include "analysis/community_stats.h"
#include "analysis/experiment.h"
#include "analysis/temporal_graph.h"

// Visualisation.
#include "viz/ascii_table.h"
#include "viz/map_export.h"
