#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "core/civil_time.h"
#include "geo/grid_index.h"
#include "geo/haversine.h"

#include "core/checked_cast.h"

namespace bikegraph::data {

std::array<double, 24> HourProfile(geo::Hotspot::Kind kind, bool weekend) {
  using Kind = geo::Hotspot::Kind;
  std::array<double, 24> w{};
  auto bump = [&w](double center, double sigma, double height) {
    for (int h = 0; h < 24; ++h) {
      double d = h - center;
      w[AsIndex(h)] += height * std::exp(-(d * d) / (2.0 * sigma * sigma));
    }
  };
  // Base activity: quiet nights. The three kinds form three separable
  // hourly classes: commute (AM+PM rush), leisure (midday), mixed
  // (evening social/errands) — the classes the paper's Fig. 7 surfaces.
  for (int h = 0; h < 24; ++h) {
    w[AsIndex(h)] = (h >= 7 && h <= 22) ? 0.15 : 0.02;
  }
  switch (kind) {
    case Kind::kCommute:
      if (weekend) {
        bump(13.0, 3.5, 0.6);  // weak midday bump
      } else {
        bump(8.0, 1.2, 2.8);   // morning rush
        bump(17.3, 1.6, 2.6);  // evening rush
        bump(13.0, 2.0, 0.4);  // lunch
      }
      break;
    case Kind::kLeisure:
      bump(13.5, 2.4, weekend ? 3.2 : 1.8);  // midday leisure
      bump(17.5, 2.0, 0.4);
      break;
    case Kind::kMixed:
      // Evening-heavy social/errand usage, both weekday and weekend.
      bump(19.0, 1.8, weekend ? 2.4 : 2.0);
      bump(9.0, 2.0, 0.5);
      break;
  }
  return w;
}

std::array<double, 7> DayProfile(geo::Hotspot::Kind kind) {
  using Kind = geo::Hotspot::Kind;
  switch (kind) {
    case Kind::kCommute:
      return {1.00, 1.05, 1.05, 1.02, 0.98, 0.48, 0.40};
    case Kind::kLeisure:
      return {0.55, 0.55, 0.58, 0.62, 0.80, 1.55, 1.35};
    case Kind::kMixed:
      return {0.90, 0.92, 0.92, 0.92, 0.95, 1.05, 0.95};
  }
  return {1, 1, 1, 1, 1, 1, 1};
}

double SeasonalFactor(int year, int month) {
  // Seasonal shape: cycling peaks May-September.
  static const double kMonthly[12] = {0.55, 0.60, 0.75, 0.90, 1.05, 1.15,
                                      1.20, 1.15, 1.05, 0.90, 0.70, 0.55};
  double f = kMonthly[month - 1];
  // COVID-19: WHO pandemic declaration March 2020; severe Irish lockdown
  // Mar-May 2020, partial recovery through the summer, winter 20/21
  // restrictions, strong recovery from mid-2021.
  if (year == 2020) {
    if (month == 3) f *= 0.55;
    else if (month == 4) f *= 0.35;
    else if (month == 5) f *= 0.45;
    else if (month == 6) f *= 0.70;
    else if (month >= 7 && month <= 9) f *= 0.85;
    else if (month >= 10) f *= 0.70;
  } else if (year == 2021) {
    if (month <= 2) f *= 0.60;
    else if (month <= 4) f *= 0.75;
    else if (month <= 6) f *= 0.95;
    // July on: back to normal.
  }
  return f;
}

namespace {

using geo::Hotspot;
using geo::LatLon;

/// Draws a point from a 2-D Gaussian around `center`, rejected into `land`.
LatLon SamplePointNear(const LatLon& center, double spread_m,
                       const geo::Region& land, Rng* rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    double dx = rng->NextGaussian() * spread_m;  // east metres
    double dy = rng->NextGaussian() * spread_m;  // north metres
    LatLon p(center.lat + geo::MetersToLatDegrees(dy),
             center.lon + geo::MetersToLonDegrees(dx, center.lat));
    if (land.Contains(p)) return p;
  }
  return center;  // hotspot centres are always on land
}

/// One dockless "popular spot": a canonical location plus its CRP mass.
struct Spot {
  LatLon position;
  int64_t canonical_location_id;
  double popularity = 1.0;
};

/// A micro-centre (street corner / shop front): the level-1 CRP unit; owns
/// a pool of spots grown by the level-2 CRP. Each micro-centre carries its
/// own behavioural kind — usually inherited from its hotspot, sometimes not
/// (a cafe row inside a commuter district behaves like a leisure spot).
/// This per-endpoint idiosyncrasy is what gives individual stations the
/// distinct temporal signatures the paper's GHour analysis surfaces.
struct MicroCenter {
  LatLon position;
  double popularity = 1.0;
  Hotspot::Kind kind = Hotspot::Kind::kMixed;
  std::vector<size_t> spot_ids;  // into GenState::spots
};

/// Generator state shared across trip sampling.
struct GenState {
  SyntheticConfig config;
  geo::Region land;
  std::vector<Hotspot> hotspots;
  std::vector<LatLon> station_sites;           // index = station ordinal
  std::vector<int64_t> station_location_ids;   // parallel to station_sites
  std::vector<int> station_hotspot;            // owning hotspot per station
  std::vector<Hotspot::Kind> station_kind;     // behavioural kind per station
  geo::GridIndex station_index{200.0};

  std::vector<LocationRecord> locations;
  std::vector<Spot> spots;
  std::vector<MicroCenter> micros;
  std::vector<std::vector<size_t>> hotspot_micros;  // micro ids per hotspot
  double micro_alpha_unit = 0.0;  // level-1 alpha per unit of hotspot weight
  int64_t next_location_id = 1;

  // Precomputed per-hotspot pairwise gravity weights for destination choice.
  std::vector<std::vector<double>> dest_weights;

  Rng rng{0};
};

/// Draws an endpoint kind: inherit the hotspot's kind with probability
/// `fidelity`, otherwise uniform over the three kinds.
Hotspot::Kind SampleKind(Rng* rng, Hotspot::Kind hotspot_kind,
                         double fidelity) {
  if (rng->NextDouble() < fidelity) return hotspot_kind;
  switch (rng->NextBounded(3)) {
    case 0:
      return Hotspot::Kind::kCommute;
    case 1:
      return Hotspot::Kind::kLeisure;
    default:
      return Hotspot::Kind::kMixed;
  }
}

int64_t NewLocation(GenState* state, const LatLon& pos, bool is_station,
                    const std::string& name) {
  int64_t id = state->next_location_id++;
  state->locations.emplace_back(id, pos, is_station, name);
  return id;
}

void PlaceStations(GenState* state) {
  const auto& cfg = state->config;
  std::vector<double> weights;
  weights.reserve(state->hotspots.size());
  for (const auto& h : state->hotspots) weights.push_back(h.weight);

  geo::GridIndex placed(cfg.station_min_separation_m);
  int made = 0;
  int guard = 0;
  while (made < cfg.station_count && guard++ < 100000) {
    int h = static_cast<int>(state->rng.NextWeighted(weights));
    const Hotspot& hot = state->hotspots[AsIndex(h)];
    LatLon p = SamplePointNear(hot.center, hot.spread_m * 1.1, state->land,
                               &state->rng);
    if (!placed.empty()) {
      auto near = placed.Nearest(p);
      if (near.id >= 0 && near.distance_m < cfg.station_min_separation_m) {
        continue;
      }
    }
    placed.Add(made, p);
    state->station_sites.push_back(p);
    state->station_hotspot.push_back(h);
    state->station_kind.push_back(
        SampleKind(&state->rng, hot.kind, cfg.kind_fidelity));
    std::string name = hot.name + " / Stn " + std::to_string(made + 1);
    state->station_location_ids.push_back(NewLocation(state, p, true, name));
    state->station_index.Add(made, p);
    ++made;
  }
}

/// A sampled trip endpoint: the location-table id plus the behavioural
/// kind of the niche it belongs to.
struct Endpoint {
  int64_t location_id;
  Hotspot::Kind kind;
};

/// Hour-activity multiplier of a behavioural kind at a given hour; used to
/// steer trips towards endpoints that are "open" at the trip's start time
/// (a commute niche absorbs rush-hour arrivals, a park absorbs midday
/// ones). `hour < 0` disables the modulation. The sampler calls this for
/// every micro-centre and hotspot on every trip, so the 3 kinds x
/// {weekday, weekend} x 24 hours are tabulated once from HourProfile.
double HourAffinity(Hotspot::Kind kind, bool weekend, int hour) {
  if (hour < 0) return 1.0;
  using Table = std::array<std::array<std::array<double, 24>, 2>, 3>;
  static const Table kTable = [] {
    Table table{};
    for (Hotspot::Kind k : {Hotspot::Kind::kCommute, Hotspot::Kind::kLeisure,
                            Hotspot::Kind::kMixed}) {
      for (bool we : {false, true}) {
        const std::array<double, 24> profile = HourProfile(k, we);
        for (size_t h = 0; h < 24; ++h) {
          table[static_cast<size_t>(k)][we ? 1 : 0][h] = 0.05 + profile[h];
        }
      }
    }
    return table;
  }();
  return kTable[static_cast<size_t>(kind)][weekend ? 1 : 0][AsIndex(hour)];
}

/// Chooses (or creates) the dockless location for an endpoint near
/// hotspot `h`. Two-level CRP: pick/grow a micro-centre, then pick/grow a
/// spot inside it, with occasional GPS jitter producing a fresh location a
/// few metres away. When `hour >= 0`, micro-centres are weighted by their
/// kind's activity at that hour.
Endpoint SampleDocklessLocation(GenState* state, int h, int hour = -1,
                                bool weekend = false) {
  auto& cfg = state->config;
  Rng& rng = state->rng;

  // Level 1: micro-centre CRP within the hotspot.
  auto& pool = state->hotspot_micros[AsIndex(h)];
  const double micro_alpha =
      state->micro_alpha_unit * std::max(0.2, state->hotspots[AsIndex(h)].weight);
  double total_mass = micro_alpha;
  for (size_t mid : pool) {
    total_mass += state->micros[mid].popularity *
                  HourAffinity(state->micros[mid].kind, weekend, hour);
  }
  double pick = rng.NextDouble() * total_mass;
  size_t micro_id = SIZE_MAX;
  double acc = 0.0;
  for (size_t mid : pool) {
    acc += state->micros[mid].popularity *
           HourAffinity(state->micros[mid].kind, weekend, hour);
    if (pick < acc) {
      micro_id = mid;
      break;
    }
  }
  if (micro_id == SIZE_MAX) {
    const Hotspot& hot = state->hotspots[AsIndex(h)];
    MicroCenter micro;
    micro.position =
        SamplePointNear(hot.center, hot.spread_m, state->land, &rng);
    micro.kind = SampleKind(&rng, hot.kind, cfg.kind_fidelity);
    state->micros.push_back(std::move(micro));
    micro_id = state->micros.size() - 1;
    pool.push_back(micro_id);
  }
  MicroCenter& micro = state->micros[micro_id];
  micro.popularity += 1.0;

  // Level 2: spot CRP within the micro-centre.
  double spot_mass = cfg.spot_alpha_per_micro;
  for (size_t sid : micro.spot_ids) {
    spot_mass += state->spots[sid].popularity;
  }
  pick = rng.NextDouble() * spot_mass;
  size_t spot_id = SIZE_MAX;
  acc = 0.0;
  for (size_t sid : micro.spot_ids) {
    acc += state->spots[sid].popularity;
    if (pick < acc) {
      spot_id = sid;
      break;
    }
  }
  if (spot_id == SIZE_MAX) {
    Spot spot;
    spot.position = SamplePointNear(micro.position, cfg.micro_sigma_m,
                                    state->land, &rng);
    spot.canonical_location_id = NewLocation(state, spot.position, false, "");
    state->spots.push_back(spot);
    spot_id = state->spots.size() - 1;
    micro.spot_ids.push_back(spot_id);
    return {state->spots[spot_id].canonical_location_id, micro.kind};
  }
  Spot& spot = state->spots[spot_id];
  spot.popularity += 1.0;
  if (rng.NextDouble() < cfg.gps_jitter_prob) {
    // A fresh location a few metres from the spot (GPS scatter).
    double dx = rng.NextGaussian() * cfg.gps_jitter_sigma_m;
    double dy = rng.NextGaussian() * cfg.gps_jitter_sigma_m;
    LatLon p(spot.position.lat + geo::MetersToLatDegrees(dy),
             spot.position.lon +
                 geo::MetersToLonDegrees(dx, spot.position.lat));
    if (!state->land.Contains(p)) p = spot.position;
    return {NewLocation(state, p, false, ""), micro.kind};
  }
  return {spot.canonical_location_id, micro.kind};
}

/// True when a trip between the two points crosses the Liffey corridor
/// (the river runs east-west at ~53.3468 between Heuston and the port).
bool CrossesRiver(const LatLon& a, const LatLon& b) {
  constexpr double kRiverLat = 53.3468;
  if ((a.lat > kRiverLat) == (b.lat > kRiverLat)) return false;
  // Longitude where the segment crosses the river's latitude.
  const double t = (kRiverLat - a.lat) / (b.lat - a.lat);
  const double lon = a.lon + t * (b.lon - a.lon);
  return lon >= -6.31 && lon <= -6.10;  // river + estuary span
}

void PrecomputeDestinationWeights(GenState* state) {
  const size_t n = state->hotspots.size();
  state->dest_weights.assign(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const LatLon& pi = state->hotspots[i].center;
      const LatLon& pj = state->hotspots[j].center;
      double d = geo::HaversineMeters(pi, pj);
      double gravity = std::exp(-d / state->config.trip_distance_scale_m);
      // Self-trips (loops within a hotspot) are common in BSS data.
      if (i == j) gravity = state->config.self_gravity;
      if (CrossesRiver(pi, pj)) {
        gravity *= state->config.river_crossing_factor;
      }
      state->dest_weights[i][j] = state->hotspots[j].weight * gravity;
    }
  }
}

/// Per-day sampling weights across the study window.
std::vector<double> BuildDayWeights(CivilTime start, int n_days) {
  std::vector<double> w(AsIndex(n_days));
  for (int i = 0; i < n_days; ++i) {
    CivilTime day = start.AddDays(i);
    w[AsIndex(i)] = SeasonalFactor(day.year(), day.month());
  }
  return w;
}

int SampleHour(GenState* state, Hotspot::Kind kind, bool weekend) {
  auto profile = HourProfile(kind, weekend);
  std::vector<double> w(profile.begin(), profile.end());
  return static_cast<int>(state->rng.NextWeighted(w));
}

}  // namespace

std::vector<geo::LatLon> GenerateStationSites(const SyntheticConfig& config) {
  GenState state;
  state.config = config;
  state.land = geo::DublinLand();
  state.hotspots = geo::DublinHotspots();
  state.rng = Rng(config.seed);
  PlaceStations(&state);
  return state.station_sites;
}

Result<Dataset> GenerateSyntheticMoby(const SyntheticConfig& config) {
  if (config.station_count <= 0 || config.clean_rental_count == 0) {
    return Status::InvalidArgument("station_count and clean_rental_count must be positive");
  }
  GenState state;
  state.config = config;
  state.land = geo::DublinLand();
  state.hotspots = geo::DublinHotspots();
  state.rng = Rng(config.seed);
  state.hotspot_micros.assign(state.hotspots.size(), {});
  double total_hotspot_weight = 0.0;
  for (const auto& h : state.hotspots) {
    total_hotspot_weight += std::max(0.2, h.weight);
  }
  state.micro_alpha_unit = config.micro_concentration / total_hotspot_weight;

  PlaceStations(&state);
  PrecomputeDestinationWeights(&state);

  BIKEGRAPH_ASSIGN_OR_RETURN(
      CivilTime window_start,
      CivilTime::FromCalendar(config.start_year, config.start_month,
                              config.start_day));
  BIKEGRAPH_ASSIGN_OR_RETURN(
      CivilTime window_end,
      CivilTime::FromCalendar(config.end_year, config.end_month,
                              config.end_day));
  const int n_days = static_cast<int>(
      (window_end.seconds_since_epoch() - window_start.seconds_since_epoch()) /
      86400);
  if (n_days <= 0) {
    return Status::InvalidArgument("study window is empty");
  }
  std::vector<double> day_weights = BuildDayWeights(window_start, n_days);

  std::vector<double> hotspot_weights;
  for (const auto& h : state.hotspots) hotspot_weights.push_back(h.weight);

  std::vector<RentalRecord> rentals;
  rentals.reserve(config.clean_rental_count);

  // Per-station endpoint weights inside a hotspot: stations owned by the
  // hotspot, popularity heavy-tailed.
  std::vector<std::vector<int>> hotspot_stations(state.hotspots.size());
  for (size_t s = 0; s < state.station_sites.size(); ++s) {
    hotspot_stations[AsIndex(state.station_hotspot[s])].push_back(static_cast<int>(s));
  }
  std::vector<double> station_popularity(state.station_sites.size());
  for (auto& p : station_popularity) {
    p = 0.02 + state.rng.NextExponential(1.1);  // heavy-ish tail
  }

  auto pick_station_near = [&](int h, const LatLon& fallback, int hour,
                               bool weekend) -> Endpoint {
    // Prefer stations of the hotspot (hour-weighted when the trip's start
    // time is already known); fall back to the nearest station.
    const auto& owned = hotspot_stations[AsIndex(h)];
    int s;
    if (!owned.empty()) {
      std::vector<double> w;
      w.reserve(owned.size());
      for (int idx : owned) {
        w.push_back(station_popularity[AsIndex(idx)] *
                    HourAffinity(state.station_kind[AsIndex(idx)], weekend, hour));
      }
      s = owned[state.rng.NextWeighted(w)];
    } else {
      s = static_cast<int>(state.station_index.Nearest(fallback).id);
    }
    return {state.station_location_ids[AsIndex(s)], state.station_kind[AsIndex(s)]};
  };

  // Per-kind day distributions: seasonal weight x the kind's day-of-week
  // profile. The trip's calendar day is drawn from its *origin endpoint's*
  // kind, which is what stamps individual stations with commute-like or
  // leisure-like weekly signatures.
  std::array<std::vector<double>, 3> kind_day_weights;
  for (int k = 0; k < 3; ++k) {
    auto profile = DayProfile(static_cast<Hotspot::Kind>(k));
    kind_day_weights[AsIndex(k)].resize(AsIndex(n_days));
    for (int i = 0; i < n_days; ++i) {
      const int dow =
          static_cast<int>(window_start.AddDays(i).weekday());
      kind_day_weights[AsIndex(k)][AsIndex(i)] = day_weights[AsIndex(i)] * profile[AsIndex(dow)];
    }
  }

  int64_t rental_id = 1;
  for (size_t t = 0; t < config.clean_rental_count; ++t) {
    // Origin hotspot by static attraction weight, then the origin endpoint
    // (fixed station or dockless niche), whose kind drives the temporal
    // sampling below.
    const int oh = static_cast<int>(state.rng.NextWeighted(hotspot_weights));
    Endpoint origin;
    if (state.rng.NextDouble() < config.station_endpoint_prob) {
      origin = pick_station_near(oh, state.hotspots[AsIndex(oh)].center, /*hour=*/-1,
                                 /*weekend=*/false);
    } else {
      origin = SampleDocklessLocation(&state, oh);
    }
    const int kind_idx = static_cast<int>(origin.kind);

    // Calendar day and start hour from the origin's kind (seasonal x
    // weekly profile; kind-specific hourly profile).
    const int day_idx = static_cast<int>(
        state.rng.NextWeighted(kind_day_weights[AsIndex(kind_idx)]));
    const CivilTime day = window_start.AddDays(day_idx);
    const bool weekend = IsWeekend(day.weekday());
    const int dow = static_cast<int>(day.weekday());
    const int hour = SampleHour(&state, origin.kind, weekend);

    // Destination hotspot: gravity x the destination's weekly profile x its
    // hourly activity (rush-hour trips flow towards commute niches, midday
    // trips towards leisure ones).
    std::vector<double> dest_w(state.hotspots.size());
    for (size_t h = 0; h < state.hotspots.size(); ++h) {
      dest_w[h] = state.dest_weights[AsIndex(oh)][h] *
                  DayProfile(state.hotspots[h].kind)[AsIndex(dow)] *
                  HourAffinity(state.hotspots[h].kind, weekend, hour);
    }
    const int dh = static_cast<int>(state.rng.NextWeighted(dest_w));
    Endpoint dest;
    if (state.rng.NextDouble() < config.station_endpoint_prob) {
      dest = pick_station_near(dh, state.hotspots[AsIndex(dh)].center, hour, weekend);
    } else {
      dest = SampleDocklessLocation(&state, dh, hour, weekend);
    }
    const int64_t origin_loc = origin.location_id;
    const int64_t dest_loc = dest.location_id;
    const int minute = static_cast<int>(state.rng.NextBounded(60));
    const int second = static_cast<int>(state.rng.NextBounded(60));
    CivilTime start_time = CivilTime(day.seconds_since_epoch() + hour * 3600 +
                                     minute * 60 + second);

    // Duration from straight-line distance at riding speed, plus overhead.
    const LatLon origin_pos = state.locations[AsIndex(origin_loc - 1)].position;
    const LatLon dest_pos = state.locations[AsIndex(dest_loc - 1)].position;
    double dist = geo::HaversineMeters(origin_pos, dest_pos);
    double detour = 1.25 + 0.15 * state.rng.NextDouble();
    double ride_s = dist * detour / config.ride_speed_mps;
    double overhead_s = 90.0 + state.rng.NextExponential(1.0 / 240.0);
    if (dist < 30.0) {
      // Loop trip: leisure ride returning to the same area.
      ride_s = 600.0 + state.rng.NextExponential(1.0 / 1200.0);
    }
    CivilTime end_time =
        start_time.AddSeconds(static_cast<int64_t>(ride_s + overhead_s));

    RentalRecord r;
    r.id = rental_id++;
    r.bike_id = 1 + static_cast<int64_t>(state.rng.NextBounded(
                        static_cast<uint64_t>(config.bike_count)));
    r.start_time = start_time;
    r.end_time = end_time;
    r.rental_location_id = origin_loc;
    r.return_location_id = dest_loc;
    rentals.push_back(r);
  }

  // ---- Dirty-record injection -------------------------------------------
  Rng& rng = state.rng;
  auto random_clean_location = [&]() -> int64_t {
    return rentals[rng.NextBounded(rentals.size())].rental_location_id;
  };
  auto random_time = [&]() {
    int day_idx = static_cast<int>(rng.NextWeighted(day_weights));
    CivilTime day = window_start.AddDays(day_idx);
    return CivilTime(day.seconds_since_epoch() +
                     static_cast<int64_t>(rng.NextBounded(86400)));
  };
  auto add_dirty_rentals_at = [&](int64_t bad_loc, int mean_count) {
    int k = rng.NextPoisson(mean_count);
    for (int i = 0; i < k; ++i) {
      RentalRecord r;
      r.id = rental_id++;
      r.bike_id = 1 + static_cast<int64_t>(
                          rng.NextBounded(static_cast<uint64_t>(config.bike_count)));
      r.start_time = random_time();
      r.end_time = r.start_time.AddSeconds(
          300 + static_cast<int64_t>(rng.NextBounded(3600)));
      if (rng.NextDouble() < 0.5) {
        r.rental_location_id = bad_loc;
        r.return_location_id = random_clean_location();
      } else {
        r.rental_location_id = random_clean_location();
        r.return_location_id = bad_loc;
      }
      rentals.push_back(r);
    }
  };

  // Bad stations first (paper: 95 stations before cleaning, 92 after).
  const geo::LatLon outside = geo::OutsideDublinPoint();
  const geo::LatLon in_bay = geo::InBayPoint();
  for (int b = 0; b < config.bad_station_count; ++b) {
    LatLon pos;
    bool missing = false;
    switch (b % 3) {
      case 0:
        pos = LatLon(outside.lat + 0.002 * b, outside.lon - 0.003 * b);
        break;
      case 1:
        pos = LatLon(in_bay.lat + 0.002 * b, in_bay.lon + 0.002 * b);
        break;
      default:
        missing = true;
        break;
    }
    LocationRecord rec;
    rec.id = state.next_location_id++;
    rec.is_station = true;
    rec.name = "Decommissioned Stn " + std::to_string(b + 1);
    if (!missing) rec.position = pos;
    state.locations.push_back(rec);
    add_dirty_rentals_at(rec.id, config.dirty_rentals_per_bad_location);
  }

  // Rule-1 fodder: locations outside the study area.
  for (int i = 0; i < config.dirty_outside_locations; ++i) {
    LatLon p(outside.lat + rng.NextUniform(-0.05, 0.02),
             outside.lon + rng.NextUniform(-0.06, 0.06));
    int64_t id = NewLocation(&state, p, false, "");
    add_dirty_rentals_at(id, config.dirty_rentals_per_bad_location);
  }
  // Rule-2 fodder: locations in the bay.
  for (int i = 0; i < config.dirty_water_locations; ++i) {
    LatLon p(in_bay.lat + rng.NextUniform(-0.015, 0.02),
             in_bay.lon + rng.NextUniform(-0.01, 0.05));
    int64_t id = NewLocation(&state, p, false, "");
    add_dirty_rentals_at(id, config.dirty_rentals_per_bad_location);
  }
  // Rule-3 fodder: locations with missing coordinates.
  for (int i = 0; i < config.dirty_missing_coord_locations; ++i) {
    LocationRecord rec;
    rec.id = state.next_location_id++;
    state.locations.push_back(rec);
    add_dirty_rentals_at(rec.id, config.dirty_rentals_per_bad_location);
  }
  // Rule-4 fodder: rentals with a missing FK.
  for (int i = 0; i < config.dirty_missing_fk_rentals; ++i) {
    RentalRecord r;
    r.id = rental_id++;
    r.bike_id = 1 + static_cast<int64_t>(
                        rng.NextBounded(static_cast<uint64_t>(config.bike_count)));
    r.start_time = random_time();
    r.end_time = r.start_time.AddSeconds(600);
    if (rng.NextDouble() < 0.5) {
      r.rental_location_id = kInvalidId;
      r.return_location_id = random_clean_location();
    } else {
      r.rental_location_id = random_clean_location();
      r.return_location_id = kInvalidId;
    }
    rentals.push_back(r);
  }
  // Rule-5 fodder: rentals referencing ids absent from the Location table.
  for (int i = 0; i < config.dirty_dangling_fk_rentals; ++i) {
    RentalRecord r;
    r.id = rental_id++;
    r.bike_id = 1 + static_cast<int64_t>(
                        rng.NextBounded(static_cast<uint64_t>(config.bike_count)));
    r.start_time = random_time();
    r.end_time = r.start_time.AddSeconds(600);
    int64_t ghost = 10000000 + static_cast<int64_t>(rng.NextBounded(100000));
    if (rng.NextDouble() < 0.5) {
      r.rental_location_id = ghost;
      r.return_location_id = random_clean_location();
    } else {
      r.rental_location_id = random_clean_location();
      r.return_location_id = ghost;
    }
    rentals.push_back(r);
  }
  // Rule-6 fodder: locations never referenced by any rental.
  for (int i = 0; i < config.dirty_unreferenced_locations; ++i) {
    int h = static_cast<int>(rng.NextWeighted(hotspot_weights));
    LatLon p = SamplePointNear(state.hotspots[AsIndex(h)].center,
                               state.hotspots[AsIndex(h)].spread_m, state.land, &rng);
    NewLocation(&state, p, false, "");
  }

  return Dataset(std::move(state.locations), std::move(rentals));
}

}  // namespace bikegraph::data
