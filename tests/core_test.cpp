// Tests for the paper's core: the TIDE problem model, the CSA approximation
// planner and its baselines, the exact solver (including the empirical
// approximation-ratio property), and the attack orchestrator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>

#include "analysis/scenario.hpp"
#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/celf_fill.hpp"
#include "core/exact.hpp"
#include "core/orchestrator.hpp"
#include "core/planners.hpp"
#include "core/reference_planner.hpp"
#include "core/report.hpp"
#include "core/route_state.hpp"
#include "core/tide.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace wrsn::csa {
namespace {

using geom::Vec2;

Stop make_stop(Vec2 pos, Seconds open, Seconds close, Seconds service,
               double utility, bool key) {
  Stop s;
  s.node = 0;
  s.position = pos;
  s.window_open = open;
  s.window_close = close;
  s.service_time = service;
  s.utility = utility;
  s.is_key = key;
  return s;
}

TideInstance simple_instance() {
  TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.start_time = 0.0;
  inst.speed = 1.0;
  return inst;
}

TEST(Tide, ValidateRejectsBadStops) {
  TideInstance inst = simple_instance();
  inst.speed = 0.0;
  EXPECT_THROW(inst.validate(), ConfigError);
  inst = simple_instance();
  inst.stops.push_back(make_stop({1, 0}, 10.0, 5.0, 1.0, 0.0, true));
  EXPECT_THROW(inst.validate(), ConfigError);
  inst = simple_instance();
  inst.stops.push_back(make_stop({1, 0}, 0.0, 5.0, -1.0, 0.0, true));
  EXPECT_THROW(inst.validate(), ConfigError);
}

TEST(Tide, EvaluateComputesArrivalsWaitsAndUtility) {
  TideInstance inst = simple_instance();
  // Stop 0 at x=10, window [20, 100]: arrive at 10, wait to 20, serve 5.
  inst.stops.push_back(make_stop({10, 0}, 20.0, 100.0, 5.0, 3.0, false));
  // Stop 1 at x=20, open immediately.
  inst.stops.push_back(make_stop({20, 0}, 0.0, 200.0, 2.0, 4.0, false));
  const std::size_t order[] = {0, 1};
  const auto plan = evaluate_order(inst, order);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->visits.size(), 2u);
  EXPECT_DOUBLE_EQ(plan->visits[0].arrival, 10.0);
  EXPECT_DOUBLE_EQ(plan->visits[0].service_start, 20.0);
  EXPECT_DOUBLE_EQ(plan->visits[0].departure, 25.0);
  EXPECT_DOUBLE_EQ(plan->visits[1].arrival, 35.0);
  EXPECT_DOUBLE_EQ(plan->visits[1].service_start, 35.0);
  EXPECT_DOUBLE_EQ(plan->completion_time, 37.0);
  EXPECT_DOUBLE_EQ(plan->utility, 7.0);
}

TEST(Tide, EvaluateFailsOnMissedWindow) {
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({100, 0}, 0.0, 50.0, 1.0, 0.0, true));
  const std::size_t order[] = {0};  // arrival at 100 > close 50
  EXPECT_FALSE(evaluate_order(inst, order).has_value());
}

TEST(Tide, EvaluateDroppingSkipsMissedStops) {
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({100, 0}, 0.0, 50.0, 1.0, 5.0, false));
  inst.stops.push_back(make_stop({10, 0}, 0.0, 500.0, 1.0, 7.0, false));
  const std::size_t order[] = {0, 1};
  const Plan plan = evaluate_order_dropping(inst, order);
  ASSERT_EQ(plan.visits.size(), 1u);
  EXPECT_EQ(plan.visits[0].stop_index, 1u);
  EXPECT_DOUBLE_EQ(plan.utility, 7.0);
}

TEST(Tide, KeyCountAndCoverage) {
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({10, 0}, 0.0, 1e6, 1.0, 0.0, true));
  inst.stops.push_back(make_stop({20, 0}, 0.0, 1e6, 1.0, 5.0, false));
  EXPECT_EQ(inst.key_count(), 1u);
  const std::size_t only_utility[] = {1};
  const auto partial = evaluate_order(inst, only_utility);
  ASSERT_TRUE(partial.has_value());
  EXPECT_FALSE(partial->covers_all_keys());
  const std::size_t both[] = {0, 1};
  const auto full = evaluate_order(inst, both);
  ASSERT_TRUE(full.has_value());
  EXPECT_TRUE(full->covers_all_keys());
}

TEST(CsaPlanner, SchedulesAllKeysWithTightWindows) {
  TideInstance inst = simple_instance();
  // Three keys whose EDF order is the reverse of their index order.
  inst.stops.push_back(make_stop({10, 0}, 0.0, 300.0, 5.0, 0.0, true));
  inst.stops.push_back(make_stop({20, 0}, 0.0, 200.0, 5.0, 0.0, true));
  inst.stops.push_back(make_stop({30, 0}, 0.0, 100.0, 5.0, 0.0, true));
  Rng rng(1);
  const Plan plan = CsaPlanner().plan(inst, rng);
  EXPECT_TRUE(plan.covers_all_keys());
  EXPECT_EQ(plan.keys_total, 3u);
}

TEST(CsaPlanner, FillsSlackWithUtilityStops) {
  TideInstance inst = simple_instance();
  // One key far in the future; plenty of slack for utility stops.
  inst.stops.push_back(make_stop({50, 0}, 500.0, 600.0, 10.0, 0.0, true));
  inst.stops.push_back(make_stop({10, 0}, 0.0, 400.0, 10.0, 5.0, false));
  inst.stops.push_back(make_stop({20, 0}, 0.0, 400.0, 10.0, 7.0, false));
  Rng rng(1);
  const Plan plan = CsaPlanner().plan(inst, rng);
  EXPECT_TRUE(plan.covers_all_keys());
  EXPECT_DOUBLE_EQ(plan.utility, 12.0);
}

TEST(CsaPlanner, NeverViolatesKeyWindowForUtility) {
  TideInstance inst = simple_instance();
  // Key must start by 25; a juicy utility stop would blow that window.
  inst.stops.push_back(make_stop({20, 0}, 0.0, 25.0, 5.0, 0.0, true));
  inst.stops.push_back(make_stop({-50, 0}, 0.0, 1e6, 50.0, 100.0, false));
  Rng rng(1);
  const Plan plan = CsaPlanner().plan(inst, rng);
  EXPECT_TRUE(plan.covers_all_keys());
  // The utility stop can only appear after the key.
  ASSERT_GE(plan.visits.size(), 1u);
  EXPECT_TRUE(inst.stops[plan.visits[0].stop_index].is_key);
}

TEST(CsaPlanner, EmptyInstanceYieldsEmptyPlan) {
  TideInstance inst = simple_instance();
  Rng rng(1);
  const Plan plan = CsaPlanner().plan(inst, rng);
  EXPECT_TRUE(plan.visits.empty());
  EXPECT_TRUE(plan.covers_all_keys());  // vacuously: 0 of 0
}

TEST(CsaPlanner, InfeasibleKeyIsDroppedNotFatal) {
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({1000, 0}, 0.0, 10.0, 1.0, 0.0, true));
  Rng rng(1);
  const Plan plan = CsaPlanner().plan(inst, rng);
  EXPECT_EQ(plan.keys_scheduled, 0u);
  EXPECT_EQ(plan.keys_total, 1u);
  EXPECT_FALSE(plan.covers_all_keys());
}

TEST(UtilityFirstPlanner, CanMissKeysCsaKeeps) {
  // A utility stop with an urgent window whose 30 s service, taken first,
  // makes the key window unreachable; CSA reserves the key slot first and
  // sacrifices the utility instead.
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({40, 0}, 30.0, 50.0, 5.0, 0.0, true));
  inst.stops.push_back(make_stop({-5, 0}, 0.0, 10.0, 30.0, 50.0, false));
  Rng rng(1);
  const Plan csa = CsaPlanner().plan(inst, rng);
  const Plan utility_first = UtilityFirstPlanner().plan(inst, rng);
  EXPECT_TRUE(csa.covers_all_keys());
  EXPECT_FALSE(utility_first.covers_all_keys());
  EXPECT_GT(utility_first.utility, csa.utility);  // the trade it made
}

// Bitwise double equality (EXPECT_EQ on doubles would let -0.0 == 0.0 pass).
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Every row the route holds reproduces travel_time bit-for-bit: the row of
// the stop at each route position, against every stop.
void expect_rows_match_travel_time(const RouteState& route,
                                   const TideInstance& inst) {
  for (std::size_t i = 0; i < inst.stops.size(); ++i) {
    EXPECT_EQ(bits(route.from_start(i)),
              bits(inst.travel_time(inst.start_position,
                                    inst.stops[i].position)))
        << i;
  }
  for (std::size_t pos = 0; pos < route.order().size(); ++pos) {
    const Vec2 from = inst.stops[route.order()[pos]].position;
    for (std::size_t j = 0; j < inst.stops.size(); ++j) {
      EXPECT_EQ(bits(route.row(pos)[j]),
                bits(inst.travel_time(from, inst.stops[j].position)))
          << pos << "," << j;
    }
  }
}

// Both directions: the row of a's position read at b equals the row of b's
// position read at a.
void expect_rows_symmetric(const RouteState& route) {
  const std::size_t n = route.order().size();
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      EXPECT_EQ(bits(route.row(p)[route.order()[q]]),
                bits(route.row(q)[route.order()[p]]))
          << p << "," << q;
    }
  }
}

// The TravelMatrix tests hold the travel-time rows a RouteState computes
// (its start row and one row per route stop: the slices of the travel-time
// matrix its scans read) to travel_time, and to the binding they were
// computed for.

// Every row must reproduce travel_time bit-for-bit, symmetry included: the
// planners' equivalence with the naive reference relies on every leg being
// the same double the reference recomputes.
TEST(TravelMatrix, MatchesTravelTimeBitForBit) {
  Rng gen(17);
  TideInstance inst = simple_instance();
  inst.speed = 3.7;
  inst.start_position = {gen.uniform(-50.0, 50.0), gen.uniform(-50.0, 50.0)};
  for (int i = 0; i < 12; ++i) {
    inst.stops.push_back(make_stop(
        {gen.uniform(-100.0, 100.0), gen.uniform(-100.0, 100.0)}, 0.0, 1e6,
        1.0, 1.0, false));
  }
  RouteState route(inst);
  for (std::size_t i = 0; i < inst.stops.size(); ++i) {
    route.insert(i, route.order().size());
  }
  ASSERT_EQ(route.order().size(), inst.stops.size());
  expect_rows_match_travel_time(route, inst);
  expect_rows_symmetric(route);
}

// A route answers only for the stops it was bound with: a stop index of a
// larger instance has no row cell, and must throw instead of being read.
TEST(TravelMatrix, SetRejectsWrongSize) {
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({1, 0}, 0.0, 1e6, 1.0, 1.0, false));
  RouteState route(inst);
  for (const std::size_t stop : {std::size_t{1}, std::size_t{5}}) {
    EXPECT_THROW((void)route.try_insert(stop, 0), PreconditionError) << stop;
    EXPECT_THROW((void)route.best_insertion(stop), PreconditionError) << stop;
    EXPECT_THROW(route.insert(stop, 0), PreconditionError) << stop;
  }
  EXPECT_TRUE(route.order().empty());
  ASSERT_TRUE(route.try_insert(0, 0).has_value());
  route.insert(0, 0);
  EXPECT_EQ(route.order().size(), 1u);
}

// Rows snapshot the stops of the last bind().  Scanning or inserting after
// stops were added, without binding again, must throw instead of reading
// past the start row or writing past a row buffer; a planner binds afresh
// and plans the grown instance.
TEST(TravelMatrix, StaleLazyMatrixThrowsInsteadOfReadingPastIt) {
  Rng gen(11);
  TideInstance inst = simple_instance();
  const auto push_stops = [&](int count) {
    for (int i = 0; i < count; ++i) {
      inst.stops.push_back(make_stop(
          {gen.uniform(-100.0, 100.0), gen.uniform(-100.0, 100.0)}, 0.0, 1e6,
          1.0, 1.0, i == 0));
    }
  };
  push_stops(3);
  Rng rng(1);
  (void)CsaPlanner().plan(inst, rng);
  RouteState route(inst);
  route.insert(0, 0);
  push_stops(37);
  EXPECT_THROW((void)route.best_insertion(39), PreconditionError);
  EXPECT_THROW((void)route.try_insert(39, 1), PreconditionError);
  // Within the old stop range too: the row would be written at the new
  // width into a buffer sized for the old one.
  EXPECT_THROW((void)route.best_insertion(1), PreconditionError);
  EXPECT_THROW(route.insert(1, 1), PreconditionError);

  route.bind(inst);
  for (std::size_t i = 0; i < inst.stops.size(); ++i) {
    route.insert(i, route.order().size());
  }
  expect_rows_match_travel_time(route, inst);
  const Plan plan = CsaPlanner().plan(inst, rng);
  EXPECT_TRUE(plan.covers_all_keys());
}

// Symmetry holds whichever order the stops enter the route and whichever
// row is computed first: each cell is computed from its own row's endpoint
// order, so symmetry rests on hypot being sign-symmetric.
TEST(TravelMatrix, SymmetricBitForBitInAnyRowTouchOrder) {
  Rng gen(29);
  TideInstance inst = simple_instance();
  inst.speed = 3.7;
  inst.start_position = {gen.uniform(-50.0, 50.0), gen.uniform(-50.0, 50.0)};
  for (int i = 0; i < 24; ++i) {
    inst.stops.push_back(make_stop(
        {gen.uniform(-500.0, 500.0), gen.uniform(-500.0, 500.0)}, 0.0, 1e6,
        1.0, 1.0, false));
  }
  const std::size_t n = inst.stops.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  RouteState route;
  for (int trial = 0; trial < 4; ++trial) {
    gen.shuffle(order);
    route.bind(inst);
    for (const std::size_t stop : order) {
      const auto pos = static_cast<std::size_t>(gen.uniform_int(
          0, static_cast<std::int64_t>(route.order().size())));
      route.insert(stop, pos);
    }
    ASSERT_EQ(route.order().size(), n);
    expect_rows_match_travel_time(route, inst);
    expect_rows_symmetric(route);
  }
}

// A bind after the stops moved, the start moved and the speed changed (the
// stop count unchanged) must leave no row of the earlier binding behind —
// otherwise a replan after a mobility epoch would plan on old positions.
TEST(RouteState, RebindAfterStopsMoveLeavesNoStaleRow) {
  Rng gen(5);
  TideInstance inst = simple_instance();
  inst.speed = 2.5;
  for (int i = 0; i < 16; ++i) {
    inst.stops.push_back(make_stop(
        {gen.uniform(-100.0, 100.0), gen.uniform(-100.0, 100.0)}, 0.0, 1e6,
        1.0, 1.0, false));
  }
  RouteState route(inst);
  for (std::size_t i = 0; i < inst.stops.size(); ++i) {
    route.insert(i, route.order().size());
  }
  expect_rows_match_travel_time(route, inst);

  for (Stop& s : inst.stops) {
    s.position += Vec2{gen.uniform(-30.0, 30.0), gen.uniform(-30.0, 30.0)};
  }
  inst.start_position = {7.0, -3.0};
  inst.speed = 3.25;
  route.bind(inst);
  EXPECT_TRUE(route.order().empty());
  for (std::size_t i = inst.stops.size(); i-- > 0;) {
    route.insert(i, 0);
  }
  expect_rows_match_travel_time(route, inst);
}

// The route caches row pointers, so the first row must keep its address
// and values while later inserts take pool buffers (50 more here, enough
// to grow the pool several times).  A rebind at a larger stop count must
// then serve fresh rows only.
TEST(RouteState, EarlyRowPointerSurvivesPoolGrowthAndRebind) {
  Rng gen(23);
  TideInstance inst = simple_instance();
  inst.speed = 2.75;
  const auto push_stops = [&](int count) {
    for (int i = 0; i < count; ++i) {
      inst.stops.push_back(make_stop(
          {gen.uniform(-300.0, 300.0), gen.uniform(-300.0, 300.0)}, 0.0, 1e6,
          1.0, 1.0, false));
    }
  };
  push_stops(64);
  RouteState route(inst);
  route.insert(5, 0);
  const Seconds* const early = route.row(0);
  std::vector<std::uint64_t> expect(inst.stops.size());
  for (std::size_t j = 0; j < inst.stops.size(); ++j) {
    expect[j] = bits(inst.travel_time(inst.stops[5].position,
                                      inst.stops[j].position));
    ASSERT_EQ(bits(early[j]), expect[j]) << j;
  }
  // Each new stop goes in front, so stop 5's row moves to the back of the
  // route while its buffer stays put.
  for (std::size_t i = 10; i < 60; ++i) route.insert(i, 0);
  ASSERT_EQ(route.order().size(), 51u);
  ASSERT_EQ(route.order().back(), 5u);
  EXPECT_EQ(route.row(50), early);
  for (std::size_t j = 0; j < inst.stops.size(); ++j) {
    EXPECT_EQ(bits(early[j]), expect[j]) << j;
  }

  for (Stop& s : inst.stops) {
    s.position += Vec2{gen.uniform(-20.0, 20.0), gen.uniform(-20.0, 20.0)};
  }
  push_stops(40);
  route.bind(inst);
  for (std::size_t i = 0; i < inst.stops.size(); ++i) {
    route.insert(i, route.order().size());
  }
  expect_rows_match_travel_time(route, inst);
}

// A plan holds rows only for the stops on its route: every leg an insertion
// scan reads sits next to a route stop and is read from that stop's row.
// At 1,610 stops that is a small fraction of the n x n matrix, and probing
// every off-route stop at every position (the scans a fill or an auction
// runs) touches no row.
TEST(RouteState, LargeCsaPlanFillsOnlyRouteRows) {
  Rng gen(42);
  TideInstance inst = simple_instance();
  inst.speed = 3.0;
  for (std::size_t i = 0; i < 1610; ++i) {
    const bool key = i < 10;
    Stop s = make_stop(
        {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)}, 0.0, 0.0,
        gen.uniform(600.0, 1'800.0), key ? 0.0 : gen.uniform(100.0, 8'000.0),
        key);
    s.window_open = gen.uniform(0.0, 20'000.0);
    s.window_close = s.window_open + gen.uniform(3'600.0, 14'400.0);
    inst.stops.push_back(s);
  }
  Rng rng(1);
  const Plan plan = CsaPlanner().plan(inst, rng);
  ASSERT_FALSE(plan.visits.empty());
  EXPECT_LT(plan.visits.size(), inst.stops.size() / 4);

  RouteState route(inst);
  std::vector<bool> on_route(inst.stops.size(), false);
  for (const Visit& v : plan.visits) {
    route.insert(v.stop_index, route.order().size());
    on_route[v.stop_index] = true;
  }
  std::vector<const Seconds*> rows(route.order().size());
  for (std::size_t pos = 0; pos < rows.size(); ++pos) rows[pos] = route.row(pos);
  for (std::size_t stop = 0; stop < inst.stops.size(); ++stop) {
    if (on_route[stop]) continue;
    (void)route.best_insertion(stop);
    for (std::size_t pos = 0; pos <= route.order().size(); ++pos) {
      (void)route.try_insert(stop, pos);
    }
  }
  ASSERT_EQ(route.order().size(), plan.visits.size());
  for (std::size_t pos = 0; pos < rows.size(); ++pos) {
    EXPECT_EQ(route.row(pos), rows[pos]) << pos;
  }
  expect_rows_match_travel_time(route, inst);
  EXPECT_EQ(bits(route.to_plan().utility), bits(plan.utility));
}

// Visit by visit, bit for bit.
void expect_same_plan(const Plan& got, const Plan& want) {
  ASSERT_EQ(got.visits.size(), want.visits.size());
  for (std::size_t k = 0; k < got.visits.size(); ++k) {
    EXPECT_EQ(got.visits[k].stop_index, want.visits[k].stop_index) << k;
    EXPECT_EQ(bits(got.visits[k].arrival), bits(want.visits[k].arrival)) << k;
    EXPECT_EQ(bits(got.visits[k].service_start),
              bits(want.visits[k].service_start))
        << k;
    EXPECT_EQ(bits(got.visits[k].departure), bits(want.visits[k].departure))
        << k;
  }
  EXPECT_EQ(bits(got.utility), bits(want.utility));
  EXPECT_EQ(got.keys_scheduled, want.keys_scheduled);
  EXPECT_EQ(got.keys_total, want.keys_total);
  EXPECT_EQ(bits(got.completion_time), bits(want.completion_time));
}

// One instance planned, changed in place and planned again — on the same
// planner — must plan exactly as a freshly built instance and the naive
// reference do: travel times are never carried over from an earlier plan.
// Two changes: every stop moves and the speed changes with the stop count
// kept, and stops are appended.
TEST(CsaPlanner, ReplanAfterInstanceChangesMatchesFreshAndReference) {
  Rng gen(31);
  TideInstance inst = simple_instance();
  inst.speed = 3.0;
  const auto push_stops = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const bool key = i % 6 == 0;
      Stop s = make_stop(
          {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)}, 0.0, 0.0,
          gen.uniform(60.0, 300.0), key ? 0.0 : gen.uniform(100.0, 8'000.0),
          key);
      s.window_open = gen.uniform(0.0, 2'000.0);
      s.window_close = s.window_open + gen.uniform(1'800.0, 7'200.0);
      inst.stops.push_back(s);
    }
  };
  push_stops(30);
  const CsaPlanner planner;
  Rng rng(1);
  Plan plan;
  planner.plan_into(inst, rng, plan);
  ASSERT_FALSE(plan.visits.empty());

  const auto expect_fresh_plan = [&](const char* change) {
    SCOPED_TRACE(change);
    planner.plan_into(inst, rng, plan);
    ASSERT_FALSE(plan.visits.empty());
    TideInstance fresh;
    fresh.start_position = inst.start_position;
    fresh.start_time = inst.start_time;
    fresh.speed = inst.speed;
    fresh.stops = inst.stops;
    Rng r1(1);
    Rng r2(1);
    expect_same_plan(plan, CsaPlanner().plan(fresh, r1));
    expect_same_plan(plan, reference::NaiveCsaPlanner().plan(fresh, r2));
  };

  for (Stop& s : inst.stops) {
    s.position += Vec2{gen.uniform(-60.0, 60.0), gen.uniform(-60.0, 60.0)};
  }
  inst.speed = 2.25;
  expect_fresh_plan("stops moved, speed changed");

  push_stops(25);
  expect_fresh_plan("stops appended");
}

// Integer-exact slack behavior: a stop inserted in front of a long wait is
// fully absorbed (delta exactly 0, downstream schedule untouched), and the
// slack array rejects exactly the insertions whose pushed-forward delay
// breaks a downstream window.
TEST(RouteState, SlackAbsorbsAndRejectsExactly) {
  TideInstance inst = simple_instance();  // speed 1, start (0,0) at t=0
  // Stop 0: x=100, window opens at 1000 -> 900 s of waiting slack.
  inst.stops.push_back(make_stop({100, 0}, 1000.0, 1100.0, 10.0, 0.0, true));
  // Stop 1: x=50, on the way, wide window, service 30.
  inst.stops.push_back(make_stop({50, 0}, 0.0, 2000.0, 30.0, 5.0, false));
  // Stop 2: x=200, window so tight after stop 0 that any extra delay kills
  // it: depart stop 0 at 1010, travel 100 -> arrival 1110, close at 1110.
  inst.stops.push_back(make_stop({200, 0}, 0.0, 1110.0, 1.0, 7.0, false));

  RouteState route(inst);
  route.insert(0, 0);

  // Inserting stop 1 before stop 0 is absorbed by the 900 s wait.
  const auto absorbed = route.try_insert(1, 0);
  ASSERT_TRUE(absorbed.has_value());
  EXPECT_EQ(*absorbed, 0.0);

  route.insert(2, 1);  // route: [0, 2], stop 2 starts exactly at its close
  // Now stop 1 before stop 0 would still be absorbed at stop 0 (the wait
  // soaks the delay before it ever reaches stop 2).
  const auto still_ok = route.try_insert(1, 0);
  ASSERT_TRUE(still_ok.has_value());
  EXPECT_EQ(*still_ok, 0.0);
  // But inserting stop 1 BETWEEN 0 and 2 pushes stop 2 past its window:
  // zero slack there, so the slack array must reject it.
  EXPECT_FALSE(route.try_insert(1, 1).has_value());
  // And appending at the end is fine (nothing downstream).
  EXPECT_TRUE(route.try_insert(1, 2).has_value());

  // The naive reference agrees on all three verdicts.
  csa::reference::NaiveRouteState naive(inst);
  naive.insert(0, 0);
  naive.insert(2, 1);
  EXPECT_EQ(naive.try_insert(1, 0).has_value(), true);
  EXPECT_EQ(*naive.try_insert(1, 0), 0.0);
  EXPECT_FALSE(naive.try_insert(1, 1).has_value());
  EXPECT_TRUE(naive.try_insert(1, 2).has_value());
}

// Documents the satellite "swap-and-pop / O(1) candidate removal" change:
// the greedy fill's argmax is keyed on (score, then smallest stop index),
// which is exactly what the old first-wins scan over the ascending-sorted
// `remaining` vector computed — `remaining` was built in ascending stop
// order and mid-vector erase preserves that order, so "first maximum in
// iteration order" always meant "smallest stop index".  Making the key
// explicit frees the implementation to store candidates in any order
// (utility-sorted with O(1) tombstone removal) without changing any plan.
// The instance below forces an EXACT score tie (equal utilities, both
// insertions fully absorbed so both deltas are 0), where only the
// tie-break determines the result.
TEST(CsaPlanner, FillTieBreakPrefersSmallestStopIndex) {
  TideInstance inst = simple_instance();  // speed 1
  // Key at x=100 opens at 1000: everything before it is absorbed.
  inst.stops.push_back(make_stop({100, 0}, 1000.0, 1100.0, 10.0, 0.0, true));
  // Two identical utility stops at the same position, same window, same
  // utility: scores tie exactly; index 1 must be inserted first.
  inst.stops.push_back(make_stop({40, 0}, 0.0, 2000.0, 5.0, 6.0, false));
  inst.stops.push_back(make_stop({40, 0}, 0.0, 2000.0, 5.0, 6.0, false));

  Rng rng(1);
  const Plan plan = CsaPlanner().plan(inst, rng);
  ASSERT_EQ(plan.visits.size(), 3u);
  // Stop 1 was inserted first (at position 0); stop 2's later insertion
  // also lands at position 0 (same min delta 0, smallest position wins),
  // so the visit order is [2, 1, 0] — exactly what the naive first-wins
  // scan produces.
  EXPECT_EQ(plan.visits[0].stop_index, 2u);
  EXPECT_EQ(plan.visits[1].stop_index, 1u);
  EXPECT_EQ(plan.visits[2].stop_index, 0u);
  Rng rng2(1);
  const Plan ref = csa::reference::NaiveCsaPlanner().plan(inst, rng2);
  ASSERT_EQ(ref.visits.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.visits[i].stop_index, ref.visits[i].stop_index);
  }
}

// The fill's reachability prefilter drops a stop the charger cannot reach
// in time even straight from the start, so no round ever scores it.  Plans
// cannot show the prefilter (such a stop is never inserted), but the
// insertions-tried tally can.
TEST(CsaPlanner, UnreachableStopIsNeverScored) {
  TideInstance inst = simple_instance();  // speed 1
  inst.stops.push_back(make_stop({100, 0}, 1000.0, 1100.0, 10.0, 0.0, true));
  inst.stops.push_back(make_stop({40, 0}, 0.0, 2000.0, 5.0, 6.0, false));
  inst.stops.push_back(make_stop({-30, 0}, 0.0, 2000.0, 5.0, 4.0, false));
  // 500 m away but closing at t = 50: unreachable, and the best utility, so
  // without the prefilter every round would score it before any cutoff.
  inst.stops.push_back(make_stop({500, 0}, 0.0, 50.0, 5.0, 9.0, false));

  const RouteState route(inst);
  CelfFill fill;
  fill.clear(inst.stops.size());
  EXPECT_TRUE(fill.add(route, 1));
  EXPECT_TRUE(fill.add(route, 2));
  EXPECT_FALSE(fill.add(route, 3));
  EXPECT_EQ(fill.candidates().size(), 2u);

  obs::MetricRegistry registry;
  {
    const obs::ScopedRegistry scope(&registry);
    const CsaPlanner planner;
    Rng rng(1);
    const Plan plan = planner.plan(inst, rng);
    ASSERT_EQ(plan.visits.size(), 3u);
  }
  // One key placement, then one scan in each of the two fill rounds that
  // insert (the CELF cutoff ends the first after stop 1).  Scoring stop 3
  // too would add one scan to each of three rounds.
  EXPECT_EQ(registry.value(obs::Metric::kCsaInsertionsTried), 3.0);
}

// Satellite bugfix: GreedyNearest used a bare `>` on window_close while the
// evaluators tolerate kWindowEpsilon; a stop arriving within the epsilon was
// skipped by the planner although evaluate_order_dropping would accept it.
TEST(GreedyNearest, AcceptsArrivalWithinWindowEpsilon) {
  TideInstance inst = simple_instance();  // speed 1
  // Arrival lands epsilon/2 past the close: inside the shared tolerance.
  inst.stops.push_back(
      make_stop({10.0 + 5e-10, 0}, 0.0, 10.0, 1.0, 3.0, false));
  Rng rng(1);
  const Plan plan = GreedyNearestPlanner().plan(inst, rng);
  ASSERT_EQ(plan.visits.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.utility, 3.0);
}

TEST(GreedyNearest, VisitsNearestFirstRegardlessOfDeadline) {
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({10, 0}, 0.0, 1e6, 1.0, 1.0, false));
  inst.stops.push_back(make_stop({100, 0}, 0.0, 105.0, 1.0, 0.0, true));
  Rng rng(1);
  const Plan plan = GreedyNearestPlanner().plan(inst, rng);
  // Nearest-first goes to x=10 first; the key at x=100 closes at 105 and
  // is then missed (10 + 1 + 90 = 101 arrival < 105 though...).
  ASSERT_FALSE(plan.visits.empty());
  EXPECT_EQ(plan.visits[0].stop_index, 0u);
}

TEST(RandomPlanner, DeterministicGivenRng) {
  TideInstance inst = simple_instance();
  for (int i = 0; i < 6; ++i) {
    inst.stops.push_back(
        make_stop({double(10 * (i + 1)), 0.0}, 0.0, 1e6, 1.0, 1.0, false));
  }
  Rng r1(5), r2(5);
  const Plan a = RandomPlanner().plan(inst, r1);
  const Plan b = RandomPlanner().plan(inst, r2);
  ASSERT_EQ(a.visits.size(), b.visits.size());
  for (std::size_t i = 0; i < a.visits.size(); ++i) {
    EXPECT_EQ(a.visits[i].stop_index, b.visits[i].stop_index);
  }
}

TEST(ExactPlanner, RefusesOversizedInstances) {
  TideInstance inst = simple_instance();
  for (int i = 0; i < 20; ++i) {
    inst.stops.push_back(make_stop({1.0 * i, 0.0}, 0.0, 1e6, 1.0, 1.0, false));
  }
  Rng rng(1);
  EXPECT_THROW(ExactPlanner(16).plan(inst, rng), PreconditionError);
}

TEST(ExactPlanner, SolvesTrivialInstanceExactly) {
  TideInstance inst = simple_instance();
  inst.stops.push_back(make_stop({10, 0}, 0.0, 1e6, 1.0, 5.0, false));
  inst.stops.push_back(make_stop({20, 0}, 0.0, 1e6, 1.0, 7.0, false));
  Rng rng(1);
  const Plan plan = ExactPlanner().plan(inst, rng);
  EXPECT_DOUBLE_EQ(plan.utility, 12.0);  // both reachable: take both
}

TEST(ExactPlanner, PrefersKeyCoverageOverUtility) {
  TideInstance inst = simple_instance();
  // Serving the huge-utility stop first would miss the key window.
  inst.stops.push_back(make_stop({30, 0}, 0.0, 35.0, 5.0, 0.0, true));
  inst.stops.push_back(make_stop({-40, 0}, 0.0, 1e6, 10.0, 1000.0, false));
  Rng rng(1);
  const Plan plan = ExactPlanner().plan(inst, rng);
  EXPECT_TRUE(plan.covers_all_keys());
  // And it still picks up the utility stop afterwards.
  EXPECT_DOUBLE_EQ(plan.utility, 1000.0);
}

TEST(ExactPlanner, RespectsWindowsOnReconstruction) {
  Rng gen(99);
  for (int trial = 0; trial < 20; ++trial) {
    TideInstance inst = simple_instance();
    inst.speed = 5.0;
    for (int i = 0; i < 7; ++i) {
      const Seconds open = gen.uniform(0.0, 50.0);
      inst.stops.push_back(make_stop(
          {gen.uniform(-50.0, 50.0), gen.uniform(-50.0, 50.0)}, open,
          open + gen.uniform(20.0, 200.0), gen.uniform(1.0, 5.0),
          gen.uniform(1.0, 10.0), false));
    }
    Rng rng(1);
    const Plan plan = ExactPlanner().plan(inst, rng);
    // Re-evaluate the reconstructed order: must be feasible and match.
    std::vector<std::size_t> order;
    for (const Visit& v : plan.visits) order.push_back(v.stop_index);
    const auto check = evaluate_order(inst, order);
    ASSERT_TRUE(check.has_value());
    EXPECT_DOUBLE_EQ(check->utility, plan.utility);
  }
}

// The headline algorithmic property: CSA's utility is within a constant
// factor of optimal on feasible instances (the paper's "bounded performance
// guarantee").  We check the empirical ratio across random small instances.
class ApproxRatio : public ::testing::TestWithParam<int> {};

TEST_P(ApproxRatio, CsaNearOptimal) {
  Rng gen(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  TideInstance inst = simple_instance();
  inst.speed = 5.0;
  // Two keys with generous-but-real windows plus 8 utility stops.
  for (int k = 0; k < 2; ++k) {
    const Seconds open = gen.uniform(0.0, 60.0);
    inst.stops.push_back(
        make_stop({gen.uniform(-40.0, 40.0), gen.uniform(-40.0, 40.0)}, open,
                  open + gen.uniform(60.0, 200.0), gen.uniform(2.0, 6.0), 0.0,
                  true));
  }
  for (int i = 0; i < 8; ++i) {
    const Seconds open = gen.uniform(0.0, 80.0);
    inst.stops.push_back(
        make_stop({gen.uniform(-40.0, 40.0), gen.uniform(-40.0, 40.0)}, open,
                  open + gen.uniform(40.0, 300.0), gen.uniform(1.0, 4.0),
                  gen.uniform(1.0, 10.0), false));
  }
  Rng rng(1);
  const Plan exact = ExactPlanner().plan(inst, rng);
  const Plan approx = CsaPlanner().plan(inst, rng);
  if (!exact.covers_all_keys()) return;  // infeasible draw: skip
  EXPECT_TRUE(approx.covers_all_keys());
  if (exact.utility > 0.0) {
    // Documented guarantee ~0.316; empirically CSA is far better.
    EXPECT_GE(approx.utility / exact.utility, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ApproxRatio,
                         ::testing::Range(0, 30));

TEST(Report, CountsKeysDeathsAndDetection) {
  net::TopologyConfig tcfg;
  tcfg.node_count = 10;
  tcfg.comm_range = 60.0;
  Rng rng(3);
  const net::Network network = net::generate_topology(tcfg, rng);

  sim::Trace trace;
  trace.deaths.push_back({100.0, 0, false});
  trace.deaths.push_back({200.0, 1, false});
  trace.deaths.push_back({300.0, 2, true});
  trace.escalations.push_back({250.0, 2});

  sim::SessionRecord genuine;
  genuine.node = 5;
  genuine.kind = sim::SessionKind::Genuine;
  genuine.delivered = 100.0;
  trace.sessions.push_back(genuine);
  sim::SessionRecord spoofed;
  spoofed.node = 0;
  spoofed.kind = sim::SessionKind::Spoofed;
  spoofed.delivered = 0.5;
  trace.sessions.push_back(spoofed);

  const std::vector<net::NodeId> keys{0, 1, 7};
  std::vector<detect::SuiteResult> detections;
  detections.push_back(
      {"death-rate", detect::Detection{150.0, 1, "cluster"}});

  const AttackReport report =
      build_report(network, trace, keys, detections);
  EXPECT_EQ(report.keys_total, 3u);
  EXPECT_EQ(report.keys_dead, 2u);
  EXPECT_EQ(report.keys_dead_before_detection, 1u);  // only the 100 s death
  EXPECT_TRUE(report.detected);
  EXPECT_DOUBLE_EQ(report.detection_time, 150.0);
  EXPECT_EQ(report.detector_name, "death-rate");
  EXPECT_EQ(report.deaths_total, 3u);
  EXPECT_EQ(report.escalations, 1u);
  EXPECT_EQ(report.sessions_genuine, 1u);
  EXPECT_EQ(report.sessions_spoofed, 1u);
  EXPECT_DOUBLE_EQ(report.utility_delivered, 100.0);
  EXPECT_DOUBLE_EQ(report.spoof_delivered, 0.5);
  EXPECT_NEAR(report.exhaustion_ratio, 2.0 / 3.0, 1e-12);
}

TEST(Report, NoDetectorsMeansUndetected) {
  net::TopologyConfig tcfg;
  tcfg.node_count = 5;
  tcfg.comm_range = 80.0;
  Rng rng(4);
  const net::Network network = net::generate_topology(tcfg, rng);
  sim::Trace trace;
  const std::vector<net::NodeId> keys{0};
  const AttackReport report = build_report(network, trace, keys, {});
  EXPECT_FALSE(report.detected);
  EXPECT_EQ(report.keys_dead, 0u);
}

// Oracle for the report's partition replay: apply the deaths in trace
// order and run a full connectivity BFS after each one.
std::optional<Seconds> replay_partition(const net::Network& network,
                                        const sim::Trace& trace) {
  Bitmap alive(network.size(), true);
  for (const sim::DeathRecord& death : trace.deaths) {
    alive.reset(death.node);
    if (!net::is_connected(network, alive)) return death.time;
  }
  return std::nullopt;
}

std::optional<Seconds> report_partition(const net::Network& network,
                                        const sim::Trace& trace) {
  return build_report(network, trace, {}, {}).partition_time;
}

TEST(Report, PartitionTimeMatchesPerDeathReplay) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    net::TopologyConfig tcfg;
    tcfg.node_count = 50;
    tcfg.comm_range = 24.0;
    Rng rng(seed);
    const net::Network network = net::generate_topology(tcfg, rng);
    // A random death order over a random prefix of a shuffled id list.
    std::vector<net::NodeId> order(network.size());
    std::iota(order.begin(), order.end(), net::NodeId{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    const auto deaths = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(order.size())));
    sim::Trace trace;
    for (std::size_t k = 0; k < deaths; ++k) {
      trace.deaths.push_back({10.0 * double(k + 1), order[k], false});
    }
    EXPECT_EQ(report_partition(network, trace),
              replay_partition(network, trace))
        << "seed " << seed;
  }
}

TEST(Report, PartitionTimeIsTheFirstDisconnectEvenIfLaterHealed) {
  // sink - 0 - 1 - 2 - 3, 10 m apart with 12 m radios.
  std::vector<net::SensorSpec> nodes(4);
  for (net::NodeId i = 0; i < 4; ++i) {
    nodes[i].id = i;
    nodes[i].position = {10.0 * double(i + 1), 0.0};
  }
  const net::Network line(std::move(nodes), {0.0, 0.0}, 12.0);

  sim::Trace trace;
  EXPECT_EQ(report_partition(line, trace), std::nullopt);  // empty trace

  // 2 dies and strands leaf 3; 3's own death heals the graph; nothing after
  // it disconnects.  The answer is still the first stranding.
  trace.deaths = {{5.0, 2, false}, {8.0, 3, false}, {9.0, 1, false}};
  EXPECT_EQ(report_partition(line, trace), std::optional<Seconds>(5.0));
  EXPECT_EQ(replay_partition(line, trace), std::optional<Seconds>(5.0));

  // A healthy prefix, then a transient partition in the middle.
  trace.deaths = {{1.0, 3, false}, {2.0, 1, false}, {3.0, 2, false}};
  EXPECT_EQ(report_partition(line, trace), std::optional<Seconds>(2.0));

  // Partitioned, healed, partitioned again: a replay that stops at the
  // first connected state it meets going backwards would answer 3.
  trace.deaths = {{1.0, 2, false}, {2.0, 3, false}, {3.0, 0, false}};
  EXPECT_EQ(report_partition(line, trace), std::optional<Seconds>(1.0));
  EXPECT_EQ(replay_partition(line, trace), std::optional<Seconds>(1.0));

  // A node recorded dead twice comes back only at its first record.
  trace.deaths = {{1.0, 2, false}, {2.0, 2, false}, {3.0, 3, false}};
  EXPECT_EQ(report_partition(line, trace), std::optional<Seconds>(1.0));
  EXPECT_EQ(replay_partition(line, trace), std::optional<Seconds>(1.0));

  trace.deaths = {{1.0, 4, false}};
  EXPECT_THROW(report_partition(line, trace), PreconditionError);

  // Dying from the tail inwards never partitions, down to the empty graph.
  trace.deaths = {
      {1.0, 3, false}, {2.0, 2, false}, {3.0, 1, false}, {4.0, 0, false}};
  EXPECT_EQ(report_partition(line, trace), std::nullopt);
  EXPECT_EQ(replay_partition(line, trace), std::nullopt);
}

TEST(AttackParams, Validation) {
  AttackParams params;
  params.charger.depot = {0.0, 0.0};
  EXPECT_NO_THROW(params.validate());
  params.window_margin = -1.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = AttackParams{};
  params.comm_antenna_offset = 0.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = AttackParams{};
  params.campaign_slack = 0.0;
  EXPECT_THROW(params.validate(), ConfigError);
}

// Orchestrator behaviour through the scenario harness (smaller world for
// test speed).
analysis::ScenarioConfig small_scenario(std::uint64_t seed) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.topology.node_count = 50;
  cfg.topology.region = {{0.0, 0.0}, {250.0, 250.0}};
  cfg.topology.comm_range = 60.0;
  cfg.horizon = 2.5 * 86'400.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  cfg.attack.key_selection.max_count = 5;
  cfg.seed = seed;
  return cfg;
}

TEST(Orchestrator, SpoofedSessionsDeliverNothingButLookNormal) {
  const analysis::ScenarioResult result = analysis::run_mission(
      small_scenario(42), analysis::ChargerMode::Attack);
  std::size_t spoofed = 0;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    if (s.kind != sim::SessionKind::Spoofed) continue;
    ++spoofed;
    EXPECT_LT(s.delivered, 0.01 * s.expected_gain);
    // The carrier at the comm antenna stays strong (RSSI evasion).
    EXPECT_GT(s.rf_observed, 0.0);
    // Same radiated energy per second as a benign session.
    EXPECT_NEAR(s.radiated / (s.end - s.start),
                result.report.sessions_genuine > 0 ? 10.0 : 10.0, 1e-6);
  }
  EXPECT_GT(spoofed, 0u);
}

TEST(Orchestrator, KillsMajorityOfKeyTargets) {
  const analysis::ScenarioResult result = analysis::run_mission(
      small_scenario(43), analysis::ChargerMode::Attack);
  EXPECT_GE(result.report.exhaustion_ratio, 0.6);
}

TEST(Orchestrator, SpoofedNodesDieSilently) {
  const analysis::ScenarioResult result = analysis::run_mission(
      small_scenario(44), analysis::ChargerMode::Attack);
  const std::set<net::NodeId> keys(result.keys.begin(), result.keys.end());
  std::set<net::NodeId> spoofed_nodes;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    if (s.kind == sim::SessionKind::Spoofed) spoofed_nodes.insert(s.node);
  }
  for (const sim::DeathRecord& d : result.trace.deaths) {
    if (spoofed_nodes.count(d.node) > 0) {
      EXPECT_FALSE(d.request_outstanding)
          << "spoofed key " << d.node << " died while begging";
    }
  }
}

TEST(Orchestrator, NoServiceModeNeverSpoofsAndGetsAudited) {
  analysis::ScenarioConfig cfg = small_scenario(45);
  cfg.attack.spoof_mode = SpoofMode::NoService;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  EXPECT_EQ(result.report.sessions_spoofed, 0u);
  // Starved key nodes produce escalations / died-waiting audits.
  EXPECT_TRUE(result.report.detected);
}

TEST(Orchestrator, SilentSkipCaughtByRssi) {
  analysis::ScenarioConfig cfg = small_scenario(46);
  cfg.attack.spoof_mode = SpoofMode::SilentSkip;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  ASSERT_TRUE(result.report.detected);
  EXPECT_EQ(result.report.detector_name, "rssi-presence");
}

TEST(Orchestrator, PartialCancelEvadesSingleSessionAudit) {
  // The extension attack: deliver ~45 % of expectation.  The energy-delta
  // single-session test (threshold 0.30) must NOT fire; the sequential
  // CUSUM must catch it instead.
  analysis::ScenarioConfig cfg = small_scenario(52);
  cfg.attack.spoof_mode = SpoofMode::PartialCancel;
  cfg.hardened_detectors = true;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  ASSERT_GT(result.report.sessions_spoofed, 0u);
  bool fleet_fired = false;
  for (const detect::SuiteResult& r : result.detections) {
    if (r.detector == "energy-delta") {
      EXPECT_FALSE(r.detection.has_value())
          << "single-session audit should be evaded by the partial leak";
    }
    if (r.detector == "cusum-shortfall") {
      // Each victim is short-changed exactly once, so per-node sequential
      // statistics never accumulate — a finding of this reproduction.
      EXPECT_FALSE(r.detection.has_value());
    }
    if (r.detector == "fleet-cusum" && r.detection.has_value()) {
      fleet_fired = true;
    }
  }
  EXPECT_TRUE(fleet_fired)
      << "only fleet-level aggregation catches once-per-victim leaks";
}

TEST(Orchestrator, PartialCancelDeliversTheLeak) {
  analysis::ScenarioConfig cfg = small_scenario(53);
  cfg.attack.spoof_mode = SpoofMode::PartialCancel;
  cfg.attack.partial_leak_ratio = 0.45;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  std::size_t spoofed = 0;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    if (s.kind != sim::SessionKind::Spoofed) continue;
    ++spoofed;
    EXPECT_NEAR(s.delivered / s.expected_gain, 0.45, 0.08);
  }
  EXPECT_GT(spoofed, 0u);
}

TEST(Orchestrator, HardenedSuiteCatchesPhaseCancel) {
  analysis::ScenarioConfig cfg = small_scenario(47);
  cfg.hardened_detectors = true;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  ASSERT_TRUE(result.report.detected);
  EXPECT_TRUE(result.report.detector_name == "energy-delta" ||
              result.report.detector_name == "cusum-shortfall");
}

TEST(Orchestrator, PacingDisabledKillsFasterOrEqual) {
  analysis::ScenarioConfig paced = small_scenario(48);
  analysis::ScenarioConfig unpaced = small_scenario(48);
  unpaced.attack.pace_limit = 0;
  const auto r_paced =
      analysis::run_mission(paced, analysis::ChargerMode::Attack);
  const auto r_unpaced =
      analysis::run_mission(unpaced, analysis::ChargerMode::Attack);
  // Without pacing, kills are never deferred: at least as many keys dead.
  EXPECT_GE(r_unpaced.report.keys_dead + 1, r_paced.report.keys_dead);
}

}  // namespace
}  // namespace wrsn::csa
