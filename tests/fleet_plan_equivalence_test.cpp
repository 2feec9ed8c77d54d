// FleetPlanEquivalence: the cooperative fleet planner (slack-based
// RouteState with per-route travel rows filled column by column as the
// scans read them, CELF fills) must produce plans
// IDENTICAL to the retained naive sequential implementation
// (core/fleet_reference.hpp) on every instance — same per-charger visit
// sequences, bit-equal utilities and completion times, same orphan pool and
// auction outcomes.  Mirrors the single-charger PlanEquivalence discipline
// (tests/property_test.cpp): 4 instance families x 40 seeds = 160 instances,
// including permanent-charger-loss handoff shapes (dead chargers whose
// would-be stops re-enter the auction), clustered instances whose empty
// cells force the utility spill auction, and an exact-arithmetic grid whose
// scores tie.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/rng.hpp"
#include "core/fleet_planner.hpp"
#include "core/fleet_reference.hpp"
#include "core/planners.hpp"

namespace wrsn::csa {
namespace {

// Random fleet problem.  Stops get distinct node ids (node = index), as a
// mission's stops do.
FleetInstance random_fleet(Rng& gen, int chargers, int keys, int stops) {
  FleetInstance inst;
  for (int m = 0; m < chargers; ++m) {
    FleetCharger c;
    c.start_position = {gen.uniform(-150.0, 150.0),
                        gen.uniform(-150.0, 150.0)};
    c.start_time = gen.uniform(0.0, 50.0);
    c.speed = gen.uniform(1.0, 8.0);
    inst.chargers.push_back(c);
  }
  for (int i = 0; i < keys + stops; ++i) {
    Stop s;
    s.node = static_cast<net::NodeId>(i);
    s.position = {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)};
    s.window_open = gen.uniform(0.0, 150.0);
    s.window_close = s.window_open + gen.uniform(10.0, 500.0);
    s.service_time = gen.uniform(0.0, 15.0);
    s.is_key = i < keys;
    s.utility = s.is_key ? 0.0 : gen.uniform(0.5, 10.0);
    inst.stops.push_back(s);
  }
  return inst;
}

void expect_fleet_plans_identical(const FleetInstance& inst,
                                  const char* family) {
  const FleetPlan fast = CooperativeFleetPlanner().plan(inst);
  const FleetPlan ref = reference::NaiveFleetPlanner().plan(inst);

  ASSERT_EQ(fast.plans.size(), inst.chargers.size()) << family;
  ASSERT_EQ(ref.plans.size(), inst.chargers.size()) << family;
  for (std::size_t m = 0; m < inst.chargers.size(); ++m) {
    ASSERT_EQ(fast.plans[m].visits.size(), ref.plans[m].visits.size())
        << family << " charger " << m;
    for (std::size_t i = 0; i < fast.plans[m].visits.size(); ++i) {
      ASSERT_EQ(fast.plans[m].visits[i].stop_index,
                ref.plans[m].visits[i].stop_index)
          << family << " charger " << m << " visit " << i;
    }
    // Same visit order + same instance => bit-equal evaluation.
    EXPECT_EQ(fast.plans[m].utility, ref.plans[m].utility) << family;
    EXPECT_EQ(fast.plans[m].completion_time, ref.plans[m].completion_time)
        << family;
    EXPECT_EQ(fast.plans[m].keys_scheduled, ref.plans[m].keys_scheduled)
        << family;
  }
  EXPECT_EQ(fast.utility, ref.utility) << family;
  EXPECT_EQ(fast.keys_scheduled, ref.keys_scheduled) << family;
  EXPECT_EQ(fast.keys_total, ref.keys_total) << family;
  EXPECT_EQ(fast.auction_moves, ref.auction_moves) << family;
  EXPECT_EQ(fast.unscheduled_keys, ref.unscheduled_keys) << family;
  EXPECT_EQ(fast.keys_scheduled + fast.unscheduled_keys.size(),
            fast.keys_total)
      << family;
}

class FleetPlanEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FleetPlanEquivalence, CooperativePlannerMatchesNaiveReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());

  {  // Mixed fleet: 3 chargers over a generic shared pool.
    Rng gen(seed * 613 + 17);
    expect_fleet_plans_identical(random_fleet(gen, 3, 5, 18), "mixed");
  }
  {  // Permanent-loss handoff shape: 1-2 of 4 chargers are dead; their
     // would-be stops must re-seed and re-auction onto the survivors.
    Rng gen(seed * 331 + 7);
    FleetInstance inst = random_fleet(gen, 4, 6, 16);
    inst.chargers[std::size_t(gen.uniform_int(0, 3))].alive = false;
    if (gen.bernoulli(0.5)) inst.chargers[0].alive = false;
    if (std::none_of(inst.chargers.begin(), inst.chargers.end(),
                     [](const FleetCharger& c) { return c.alive; })) {
      inst.chargers[3].alive = true;
    }
    expect_fleet_plans_identical(inst, "dead-charger");
  }
  {  // Clustered: every stop sits in charger 0's cell, cells 1-2 are empty
     // and tight windows push leftovers through the spill auction.
    Rng gen(seed * 977 + 29);
    FleetInstance inst = random_fleet(gen, 3, 4, 14);
    inst.chargers[0].start_position = {0.0, 0.0};
    inst.chargers[1].start_position = {900.0, 0.0};
    inst.chargers[2].start_position = {0.0, 900.0};
    for (Stop& s : inst.stops) {
      s.position = {gen.uniform(-60.0, 60.0), gen.uniform(-60.0, 60.0)};
      s.window_close = s.window_open + gen.uniform(5.0, 120.0);
    }
    expect_fleet_plans_identical(inst, "clustered-empty-cell");
  }
  {  // Exact integer arithmetic: each charger sits mid-way along its own
     // symmetric collinear grid of equal-utility stops, so mirrored stops
     // tie EXACTLY on insertion delta and score and the fill's
     // smallest-stop tie-break decides every such pick.
    Rng gen(seed * 59 + 1);
    FleetInstance inst;
    inst.chargers.push_back({{0.0, 0.0}, 0.0, 1.0, /*alive=*/true});
    inst.chargers.push_back({{1000.0, 0.0}, 0.0, 1.0, /*alive=*/true});
    const int per_charger = 3 + static_cast<int>(gen.uniform(0.0, 6.0));
    for (int i = 0; i < 2 * per_charger; ++i) {
      const int local = i % per_charger;
      const double origin = i < per_charger ? 0.0 : 1000.0;
      const double side = (local % 2 == 0) ? 1.0 : -1.0;
      Stop s;
      s.node = static_cast<net::NodeId>(i);
      s.position = {origin + side * 10.0 * (1 + local / 2), 0.0};
      s.window_open = static_cast<double>(20 * (local % 3));
      s.window_close = s.window_open + 400.0;
      s.service_time = 5.0;
      s.is_key = local == 0;
      s.utility = s.is_key ? 0.0 : 4.0;  // equal utilities => exact ties
      inst.stops.push_back(s);
    }
    expect_fleet_plans_identical(inst, "integer-grid");
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDeadAndClustered, FleetPlanEquivalence,
                         ::testing::Range(0, 40));

// A fleet of one is the single-charger problem: the cooperative planner
// must reproduce CsaPlanner bit-for-bit.  (Both sort keys EDF; the fleet's
// (window_close, index) total order only differs on exact deadline ties,
// which the continuous random generator never produces.)
TEST(FleetPlanEquivalenceTargeted, SingleChargerFleetMatchesCsaPlanner) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng gen(seed * 127 + 3);
    const FleetInstance fleet = random_fleet(gen, 1, 4, 14);

    TideInstance tide;
    tide.start_position = fleet.chargers[0].start_position;
    tide.start_time = fleet.chargers[0].start_time;
    tide.speed = fleet.chargers[0].speed;
    tide.stops = fleet.stops;

    const FleetPlan fp = CooperativeFleetPlanner().plan(fleet);
    Rng planner_rng(1);
    const Plan solo = CsaPlanner().plan(tide, planner_rng);

    ASSERT_EQ(fp.plans.size(), 1u);
    ASSERT_EQ(fp.plans[0].visits.size(), solo.visits.size());
    for (std::size_t i = 0; i < solo.visits.size(); ++i) {
      EXPECT_EQ(fp.plans[0].visits[i].stop_index, solo.visits[i].stop_index);
    }
    EXPECT_EQ(fp.plans[0].utility, solo.utility);
    EXPECT_EQ(fp.plans[0].completion_time, solo.completion_time);
    EXPECT_EQ(fp.keys_scheduled, solo.keys_scheduled);
    EXPECT_EQ(fp.auction_moves, 0u);
  }
}

TEST(FleetPlanEquivalenceTargeted, NoStopServedTwiceAcrossFleet) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng gen(seed * 59 + 11);
    const FleetInstance inst = random_fleet(gen, 4, 6, 20);
    const FleetPlan fp = CooperativeFleetPlanner().plan(inst);
    std::set<std::size_t> served;
    for (const Plan& p : fp.plans) {
      for (const Visit& v : p.visits) {
        EXPECT_TRUE(served.insert(v.stop_index).second)
            << "stop " << v.stop_index << " served by two chargers (seed "
            << seed << ")";
      }
    }
  }
}

TEST(FleetPlanEquivalenceTargeted, AllChargersDeadLeavesEveryKeyOrphaned) {
  Rng gen(99);
  FleetInstance inst = random_fleet(gen, 3, 5, 10);
  for (FleetCharger& c : inst.chargers) c.alive = false;
  expect_fleet_plans_identical(inst, "all-dead");

  const FleetPlan fp = CooperativeFleetPlanner().plan(inst);
  EXPECT_EQ(fp.keys_scheduled, 0u);
  EXPECT_EQ(fp.unscheduled_keys.size(), inst.key_count());
  EXPECT_EQ(fp.utility, 0.0);
  EXPECT_EQ(fp.auction_moves, 0u);
  for (const Plan& p : fp.plans) {
    EXPECT_TRUE(p.visits.empty());
    EXPECT_EQ(p.keys_total, fp.keys_total);
  }
}

// The handoff contract: killing a charger must not silently drop the live
// key windows of its cell — with generous windows the survivor picks every
// one of them up through the re-seeded auction.
TEST(FleetPlanEquivalenceTargeted, DeadChargerKeysReenterTheAuction) {
  FleetInstance inst;
  inst.chargers.push_back({{0.0, 0.0}, 0.0, 5.0, /*alive=*/false});
  inst.chargers.push_back({{200.0, 0.0}, 0.0, 5.0, /*alive=*/true});
  for (int i = 0; i < 6; ++i) {
    Stop s;
    s.node = static_cast<net::NodeId>(i);
    s.position = {double(10 * i), 5.0};  // all in the dead charger's cell
    s.window_open = 0.0;
    s.window_close = 10'000.0;  // generous: feasible from the far depot
    s.service_time = 10.0;
    s.is_key = true;
    inst.stops.push_back(s);
  }
  expect_fleet_plans_identical(inst, "handoff-keys");

  const FleetPlan fp = CooperativeFleetPlanner().plan(inst);
  EXPECT_TRUE(fp.plans[0].visits.empty());
  EXPECT_TRUE(fp.covers_all_keys());
  EXPECT_TRUE(fp.unscheduled_keys.empty());
  EXPECT_EQ(fp.plans[1].visits.size(), 6u);
}

}  // namespace
}  // namespace wrsn::csa
