#include "core/planners.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/check.hpp"
#include "core/route_state.hpp"
#include "obs/metrics.hpp"

namespace wrsn::csa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Phase 1: EDF-ordered key insertion, each at its cheapest feasible
/// position.  Keys that cannot be placed are skipped (counted as missed).
/// O(K * route) with the slack-based RouteState.  `keys` is caller-owned
/// scratch (cleared here) so steady-state replans allocate nothing.
void insert_keys_edf(const TideInstance& instance, RouteState& route,
                     std::vector<std::size_t>& keys,
                     std::uint64_t& insertions_tried) {
  keys.clear();
  for (std::size_t i = 0; i < instance.stops.size(); ++i) {
    if (instance.stops[i].is_key) keys.push_back(i);
  }
  std::sort(keys.begin(), keys.end(), [&](std::size_t a, std::size_t b) {
    return instance.stops[a].window_close < instance.stops[b].window_close;
  });
  insertions_tried += keys.size();
  for (const std::size_t key : keys) {
    if (const auto best = route.best_insertion(key)) {
      route.insert(key, best->first);
    }
  }
}

/// Phase 2: cost-benefit greedy filling with the non-key stops, lazily
/// (CELF-style).  Selection is identical to the classic full-rescore loop
/// (core/reference_planner.cpp): argmax of utility / max(delta, 1), ties to
/// the smallest stop index — the reference scans `remaining` in ascending
/// stop order with a strict >, which is exactly that tie-break, so neither
/// the utility-sorted traversal here nor O(1) candidate removal (an
/// `inserted` flag instead of the old O(n) mid-vector erase) can change the
/// outcome.  The speedup: utility is an upper bound on any stop's score
/// (denominator >= 1), so a round may stop rescoring as soon as the
/// remaining candidates' utilities fall below the incumbent best — with
/// wide windows the winner's insertion is absorbed by waiting slack (delta
/// = 0, score = utility) and a round rescores only a handful of entries.
/// The round loop itself lives in the shared CelfFill engine.
void fill_utility_greedy(const TideInstance& instance, RouteState& route,
                         CelfFill& fill, std::uint64_t& insertions_tried) {
  fill.clear(instance.stops.size());
  for (std::size_t i = 0; i < instance.stops.size(); ++i) {
    const Stop& s = instance.stops[i];
    if (s.is_key || s.utility <= 0.0) continue;
    fill.add(route, i);
  }
  fill.run(route, insertions_tried);
}

}  // namespace

CsaPlanner::~CsaPlanner() {
  WRSN_OBS_ADD(kCsaInsertionsTried, double(insertions_tried_));
  WRSN_OBS_ADD(kCsaTravelCells, double(route_.travel_cells()));
}

Plan CsaPlanner::plan(const TideInstance& instance, Rng& rng) const {
  Plan out;
  plan_into(instance, rng, out);
  return out;
}

void CsaPlanner::plan_into(const TideInstance& instance, Rng& rng,
                           Plan& out) const {
  (void)rng;
  WRSN_OBS_SPAN(kCsaPlanNs);
  instance.validate();
  route_.bind(instance);
  route_.reserve(instance.stops.size());
  insert_keys_edf(instance, route_, keys_, insertions_tried_);
  fill_utility_greedy(instance, route_, fill_, insertions_tried_);
  route_.to_plan_into(out);
}

Plan UtilityFirstPlanner::plan(const TideInstance& instance, Rng& rng) const {
  (void)rng;
  instance.validate();
  RouteState route(instance);
  // The ablation planner is cold (bench-only); flush per call.
  std::vector<std::size_t> keys;
  CelfFill fill;
  std::uint64_t insertions = 0;
  fill_utility_greedy(instance, route, fill, insertions);
  insert_keys_edf(instance, route, keys, insertions);
  WRSN_OBS_ADD(kCsaInsertionsTried, double(insertions));
  WRSN_OBS_ADD(kCsaTravelCells, double(route.travel_cells()));
  return route.to_plan();
}

Plan GreedyNearestPlanner::plan(const TideInstance& instance, Rng& rng) const {
  (void)rng;
  instance.validate();

  std::vector<bool> used(instance.stops.size(), false);
  std::vector<std::size_t> order;
  geom::Vec2 pos = instance.start_position;
  Seconds clock = instance.start_time;

  for (std::size_t step = 0; step < instance.stops.size(); ++step) {
    std::size_t best = instance.stops.size();
    double best_dist = kInf;
    for (std::size_t i = 0; i < instance.stops.size(); ++i) {
      if (used[i]) continue;
      const Stop& s = instance.stops[i];
      // One sqrt per stop: travel time is distance / speed by definition.
      const double d = geom::distance(pos, s.position);
      const Seconds arrival = clock + d / instance.speed;
      if (std::max(arrival, s.window_open) >
          s.window_close + kWindowEpsilon) {
        continue;  // window already lost from here (same tolerance as the
                   // evaluators, so a chosen stop is never dropped later)
      }
      if (d < best_dist) {
        best_dist = d;
        best = i;
      }
    }
    if (best == instance.stops.size()) break;
    used[best] = true;
    order.push_back(best);
    const Stop& s = instance.stops[best];
    const Seconds arrival = clock + best_dist / instance.speed;
    clock = std::max(arrival, s.window_open) + s.service_time;
    pos = s.position;
  }
  return evaluate_order_dropping(instance, order);
}

Plan RandomPlanner::plan(const TideInstance& instance, Rng& rng) const {
  instance.validate();
  std::vector<std::size_t> order(instance.stops.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  return evaluate_order_dropping(instance, order);
}

}  // namespace wrsn::csa
