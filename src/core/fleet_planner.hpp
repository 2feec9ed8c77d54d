// Fleet-level TIDE: M cooperating mobile chargers over one shared stop pool.
//
// CooperativeFleetPlanner extends the single-charger CSA scheme (see
// core/planners.hpp) to a fleet with a deterministic partition-then-auction
// decomposition:
//
//   (A) Spatial seed: every stop is assigned to the nearest ALIVE charger by
//       SQUARED depot distance, ties to the lower charger index — the same
//       rule as mc::nearest_depot, so the planner, the agent territories and
//       the fault-handoff redistribution all decompose the field identically.
//   (B) Key skeleton: key stops in EDF order (window_close, then stop index)
//       are each placed at the cheapest feasible position of their seed
//       charger's route; failures fall into an orphan pool.
//   (C) Orphan key auction: every alive charger (the seed re-bids too) bids
//       its best-insertion completion-time delta; the minimum delta wins,
//       ties to the lower charger index.  Keys with no feasible bid anywhere
//       are reported in `FleetPlan::unscheduled_keys`.
//   (D) Per-charger utility fill: each charger runs the CSA cost-benefit
//       greedy fill (lazy, CELF-style) restricted to the utility stops of
//       its own seed cell.
//   (E) Utility spill auction: cell-local leftovers are re-auctioned across
//       the whole fleet (descending utility, ties to the lower stop index;
//       awards as in C), so slack anywhere in the fleet can absorb demand
//       from an overloaded cell.
//
// Every phase is a deterministic fold with total-order tie-breaks, so plans
// are bit-identical across platforms and thread counts.  The retained naive
// sequential implementation (core/fleet_reference.hpp) runs the same phases
// on the tail-walking NaiveRouteState with full-rescore fills; the
// FleetPlanEquivalence suite pins the two bit-for-bit, mirroring the
// PlanEquivalence discipline for the single-charger planners.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/planners.hpp"
#include "core/route_state.hpp"
#include "core/tide.hpp"

namespace wrsn::csa {

/// One vehicle of a fleet planning problem.  `start_position` doubles as the
/// depot / Voronoi seed for the spatial decomposition.
struct FleetCharger {
  geom::Vec2 start_position;
  Seconds start_time = 0.0;
  MetersPerSecond speed = 3.0;
  /// Permanently lost chargers stay in the list with `alive = false` so
  /// charger indices stay stable; they receive an empty plan and their
  /// would-be stops are seeded to the surviving fleet instead.
  bool alive = true;
};

/// A static fleet TIDE problem: M chargers over ONE shared stop pool.
struct FleetInstance {
  std::vector<FleetCharger> chargers;
  std::vector<Stop> stops;

  std::size_t key_count() const;
  /// Throws ConfigError on inconsistent data (no chargers, non-positive
  /// speeds, or stop data TideInstance::validate would reject).
  void validate() const;
};

/// An evaluated fleet route set.  `plans.size() == chargers.size()` always:
/// a dead charger (or one whose cell is empty and who wins no auction) holds
/// a default-constructed empty Plan, never a skipped entry, so plan indices
/// stay aligned with charger ids downstream.  Visits carry GLOBAL stop-pool
/// indices; per-charger `Plan::keys_total` is the global key count (each
/// member plan is over the full pool), so use the fleet-level aggregates
/// here for coverage questions.
struct FleetPlan {
  std::vector<Plan> plans;
  /// Keys no charger could feasibly schedule, in EDF order.
  std::vector<std::size_t> unscheduled_keys;
  double utility = 0.0;
  std::size_t keys_scheduled = 0;
  std::size_t keys_total = 0;
  /// Stops awarded to a charger other than their spatial seed (phases C/E).
  std::size_t auction_moves = 0;

  bool covers_all_keys() const { return keys_scheduled == keys_total; }
};

/// Strategy interface for fleet planners (deterministic: no rng).
class FleetPlanner {
 public:
  virtual ~FleetPlanner() = default;
  virtual std::string_view name() const = 0;
  virtual FleetPlan plan(const FleetInstance& instance) const = 0;
};

/// The production fleet planner (phases A-E above) on the slack-based
/// RouteState.  Each charger's route computes the travel rows of its own
/// stops, so a plan holds only the rows of stops that enter some route,
/// and fills each row only in the columns its scans read: an auction bid
/// or a cell fill computes a candidate's legs to that route's stops.
///
/// Same thread-affinity rule as csa::Planner (mutable arenas: one thread
/// at a time).
class CooperativeFleetPlanner final : public FleetPlanner {
 public:
  std::string_view name() const override { return "Fleet-CSA"; }
  FleetPlan plan(const FleetInstance& instance) const override;
  /// In-place variant for the replan loop.  All per-charger state (member
  /// instances, route states and their row pools) and every phase's
  /// scratch list are arenas reused across calls, so a steady-state replan
  /// over a previously seen stop set performs no heap allocation
  /// (sim_alloc_test pins this).
  void plan_into(const FleetInstance& instance, FleetPlan& out) const;

 private:
  // plan() is const (FleetPlanner interface); the arenas hold no cross-call
  // state a later call can observe.
  mutable std::vector<TideInstance> insts_;
  mutable std::vector<RouteState> routes_;
  mutable std::vector<std::size_t> alive_;
  mutable std::vector<std::size_t> keys_;
  mutable std::vector<std::size_t> seed_;
  mutable std::vector<std::size_t> orphans_;
  mutable std::vector<std::size_t> spill_;
  mutable std::vector<std::size_t> cell_;
  mutable CelfFill fill_;
};

}  // namespace wrsn::csa
