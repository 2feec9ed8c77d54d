// TIDE: the charging-uTility optImization problem with key-noDe timE window
// constraints — the formal core of the Charging Spoofing Attack.
//
// Given the mobile charger's position, a set of KEY stops (nodes to be
// spoof-charged; each must have its service START inside a hard time window,
// i.e. after the node's charging request and before the base station's
// escalation deadline) and a set of UTILITY stops (genuine charging jobs,
// each with its own window and a utility equal to the energy it restores),
// find a route and schedule that services every key stop inside its window
// while maximizing the total utility of the genuine stops served.  Waiting
// at a stop until its window opens is allowed.  TIDE contains TSP with time
// windows as the special case of zero utility stops, hence it is NP-hard.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "geom/vec2.hpp"
#include "net/network.hpp"

namespace wrsn::csa {

/// One candidate visit in a TIDE instance.
struct Stop {
  net::NodeId node = net::kInvalidNode;
  geom::Vec2 position;
  /// Earliest allowed service start [s] (the node's request time).
  Seconds window_open = 0.0;
  /// Latest allowed service start [s] (escalation deadline minus margin).
  Seconds window_close = 0.0;
  /// Service duration [s].
  Seconds service_time = 0.0;
  /// Utility of serving this stop (0 for key stops by convention).
  double utility = 0.0;
  /// Key stops are hard constraints (spoof targets); others are optional.
  bool is_key = false;
};

/// A static TIDE planning problem.
struct TideInstance {
  geom::Vec2 start_position;
  Seconds start_time = 0.0;
  MetersPerSecond speed = 3.0;
  std::vector<Stop> stops;

  std::size_t key_count() const;
  /// Travel time between two stop positions at the instance speed.
  Seconds travel_time(geom::Vec2 from, geom::Vec2 to) const;
  /// Throws ConfigError on inconsistent data (closed-before-open windows,
  /// non-positive speed, negative service times).
  void validate() const;
};

/// Feasibility tolerance on window-close comparisons [s]; shared by the
/// evaluators and the planners' incremental insertion checks so a schedule
/// accepted by one is never rejected by the other over rounding.
inline constexpr Seconds kWindowEpsilon = 1e-9;

/// One scheduled visit of an evaluated plan.
struct Visit {
  std::size_t stop_index = 0;
  Seconds arrival = 0.0;        ///< when the MC reaches the stop
  Seconds service_start = 0.0;  ///< max(arrival, window_open)
  Seconds departure = 0.0;      ///< service_start + service_time
};

/// An evaluated route through a TIDE instance.
struct Plan {
  std::vector<Visit> visits;
  double utility = 0.0;          ///< total utility of non-key stops served
  std::size_t keys_scheduled = 0;
  std::size_t keys_total = 0;
  Seconds completion_time = 0.0;

  bool covers_all_keys() const { return keys_scheduled == keys_total; }
};

/// Walks `order` (stop indices) through the instance: arrivals, in-window
/// waits, departures.  Returns nullopt if any stop's service would start
/// after its window closes.  `keys_total` is filled from the instance (not
/// from the order), so a feasible order that omits keys yields a Plan with
/// covers_all_keys() == false.
std::optional<Plan> evaluate_order(const TideInstance& instance,
                                   std::span<const std::size_t> order);

/// Allocation-free variant: fills `out` in place (reusing its visit storage)
/// and returns false instead of nullopt on an infeasible order.  `out` is
/// cleared in both cases.
bool evaluate_order_into(const TideInstance& instance,
                         std::span<const std::size_t> order, Plan& out);

/// Like evaluate_order but drops infeasible stops instead of failing:
/// greedily keeps each stop whose window can still be met.  Used by the
/// baseline planners that ignore deadlines when choosing their order.
Plan evaluate_order_dropping(const TideInstance& instance,
                             std::span<const std::size_t> order);

}  // namespace wrsn::csa
