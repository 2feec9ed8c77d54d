// Retained naive reference implementation of the fleet planner.
//
// Runs the same partition-then-auction phases as CooperativeFleetPlanner
// (core/fleet_planner.hpp) but on the tail-walking NaiveRouteState with the
// original full-rescore greedy fills and travel times recomputed per leg —
// no slack arrays, no CELF laziness, no travel matrices.  It
// exists ONLY as the executable specification for the FleetPlanEquivalence
// suite (tests/fleet_plan_equivalence_test.cpp), which pins the fast
// planner's plans bit-for-bit to this one.  Do not use it in benches or
// production paths.
#pragma once

#include "core/fleet_planner.hpp"

namespace wrsn::csa::reference {

class NaiveFleetPlanner final : public FleetPlanner {
 public:
  std::string_view name() const override { return "Fleet-naive-reference"; }
  FleetPlan plan(const FleetInstance& instance) const override;
};

}  // namespace wrsn::csa::reference
