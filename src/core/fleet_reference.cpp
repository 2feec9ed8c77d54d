#include "core/fleet_reference.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/check.hpp"
#include "core/reference_planner.hpp"

namespace wrsn::csa::reference {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Key stop indices in EDF order (window_close, then stop index) — the same
/// total order as the fast fleet planner.
std::vector<std::size_t> keys_edf(const std::vector<Stop>& stops) {
  std::vector<std::size_t> keys;
  for (std::size_t i = 0; i < stops.size(); ++i) {
    if (stops[i].is_key) keys.push_back(i);
  }
  std::sort(keys.begin(), keys.end(), [&](std::size_t a, std::size_t b) {
    if (stops[a].window_close != stops[b].window_close) {
      return stops[a].window_close < stops[b].window_close;
    }
    return a < b;
  });
  return keys;
}

/// Phase D for one charger: the original full-rescore cost-benefit greedy
/// (core/reference_planner.cpp), restricted to `cell`; whatever the loop
/// cannot place is appended to `spill`.
void fill_cell_rescore(const TideInstance& instance, NaiveRouteState& route,
                       const std::vector<std::size_t>& cell,
                       std::vector<std::size_t>& spill) {
  std::vector<std::size_t> remaining = cell;
  while (!remaining.empty()) {
    double best_score = -kInf;
    std::size_t best_stop = 0;
    std::size_t best_pos = 0;
    std::size_t best_remaining_idx = 0;
    bool found = false;
    for (std::size_t r = 0; r < remaining.size(); ++r) {
      const std::size_t stop = remaining[r];
      const auto best = route.best_insertion(stop);
      if (!best.has_value()) continue;
      const double score =
          instance.stops[stop].utility / std::max(best->second, 1.0);
      if (score > best_score) {
        best_score = score;
        best_stop = stop;
        best_pos = best->first;
        best_remaining_idx = r;
        found = true;
      }
    }
    if (!found) break;
    route.insert(best_stop, best_pos);
    remaining.erase(remaining.begin() +
                    static_cast<std::ptrdiff_t>(best_remaining_idx));
  }
  spill.insert(spill.end(), remaining.begin(), remaining.end());
}

}  // namespace

FleetPlan NaiveFleetPlanner::plan(const FleetInstance& instance) const {
  instance.validate();
  const std::size_t m = instance.chargers.size();

  FleetPlan out;
  out.keys_total = instance.key_count();
  out.plans.resize(m);

  std::vector<std::size_t> alive;
  for (std::size_t k = 0; k < m; ++k) {
    if (instance.chargers[k].alive) alive.push_back(k);
  }
  const std::vector<std::size_t> keys = keys_edf(instance.stops);

  if (alive.empty()) {
    out.unscheduled_keys = keys;
    for (Plan& p : out.plans) p.keys_total = out.keys_total;
    return out;
  }

  // One member instance per alive charger over the full stop pool; travel
  // times come straight from TideInstance::travel_time (the naive route
  // state keeps no rows), which RouteState's row contract pins
  // bit-identical to the fast planner's route-owned rows.
  std::vector<TideInstance> insts(m);
  std::vector<std::optional<NaiveRouteState>> routes(m);
  for (const std::size_t k : alive) {
    insts[k].start_position = instance.chargers[k].start_position;
    insts[k].start_time = instance.chargers[k].start_time;
    insts[k].speed = instance.chargers[k].speed;
    insts[k].stops = instance.stops;
    routes[k].emplace(insts[k]);
  }

  // (A) Spatial seed: nearest alive depot by squared distance, ties to the
  // lower charger index.
  std::vector<std::size_t> seed(instance.stops.size());
  for (std::size_t i = 0; i < instance.stops.size(); ++i) {
    std::size_t best = alive.front();
    double best_sq = (instance.stops[i].position -
                      instance.chargers[best].start_position)
                         .norm_sq();
    for (std::size_t j = 1; j < alive.size(); ++j) {
      const std::size_t k = alive[j];
      const double d = (instance.stops[i].position -
                        instance.chargers[k].start_position)
                           .norm_sq();
      if (d < best_sq) {
        best_sq = d;
        best = k;
      }
    }
    seed[i] = best;
  }

  // (B) Per-charger EDF key skeleton.
  std::vector<std::size_t> orphans;
  for (const std::size_t key : keys) {
    NaiveRouteState& route = *routes[seed[key]];
    if (const auto best = route.best_insertion(key)) {
      route.insert(key, best->first);
    } else {
      orphans.push_back(key);
    }
  }

  // (C) Orphan key auction (min delta, ties to the lower charger index).
  const auto auction = [&](std::size_t stop) -> std::optional<std::size_t> {
    std::optional<std::size_t> winner;
    std::size_t winner_pos = 0;
    Seconds winner_delta = kInf;
    for (const std::size_t k : alive) {
      const auto bid = routes[k]->best_insertion(stop);
      if (bid && bid->second < winner_delta) {
        winner = k;
        winner_pos = bid->first;
        winner_delta = bid->second;
      }
    }
    if (winner) routes[*winner]->insert(stop, winner_pos);
    return winner;
  };
  for (const std::size_t key : orphans) {
    if (const auto winner = auction(key)) {
      if (*winner != seed[key]) ++out.auction_moves;
    } else {
      out.unscheduled_keys.push_back(key);
    }
  }

  // (D) Per-charger full-rescore utility fill restricted to the seed cell.
  std::vector<std::size_t> spill;
  for (const std::size_t k : alive) {
    std::vector<std::size_t> cell;
    for (std::size_t i = 0; i < instance.stops.size(); ++i) {
      const Stop& s = instance.stops[i];
      if (!s.is_key && s.utility > 0.0 && seed[i] == k) cell.push_back(i);
    }
    fill_cell_rescore(insts[k], *routes[k], cell, spill);
  }

  // (E) Utility spill auction, descending utility (ties: lower stop index).
  std::sort(spill.begin(), spill.end(), [&](std::size_t a, std::size_t b) {
    const double ua = instance.stops[a].utility;
    const double ub = instance.stops[b].utility;
    return ua != ub ? ua > ub : a < b;
  });
  for (const std::size_t stop : spill) {
    if (const auto winner = auction(stop)) {
      if (*winner != seed[stop]) ++out.auction_moves;
    }
  }

  for (std::size_t k = 0; k < m; ++k) {
    if (routes[k]) {
      out.plans[k] = routes[k]->to_plan();
    } else {
      out.plans[k].keys_total = out.keys_total;
    }
    out.utility += out.plans[k].utility;
    out.keys_scheduled += out.plans[k].keys_scheduled;
  }
  WRSN_ASSERT(out.keys_scheduled + out.unscheduled_keys.size() ==
              out.keys_total);
  return out;
}

}  // namespace wrsn::csa::reference
