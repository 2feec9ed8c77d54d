// Cross-cutting property tests: invariants that must hold for every random
// instance, seed, and planner — plan feasibility, energy accounting, wave
// physics conservation, and world-level monotonicities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include "analysis/scenario.hpp"
#include "common/rng.hpp"
#include "core/exact.hpp"
#include "core/planners.hpp"
#include "core/reference_planner.hpp"
#include "core/route_state.hpp"
#include "wpt/charging_model.hpp"
#include "wpt/spoofing.hpp"
#include "wpt/wave.hpp"

namespace wrsn {
namespace {

csa::TideInstance random_tide(Rng& gen, int keys, int stops) {
  csa::TideInstance inst;
  inst.start_position = {gen.uniform(-20.0, 20.0), gen.uniform(-20.0, 20.0)};
  inst.start_time = gen.uniform(0.0, 100.0);
  inst.speed = gen.uniform(1.0, 8.0);
  for (int i = 0; i < keys + stops; ++i) {
    csa::Stop s;
    s.node = static_cast<net::NodeId>(i);
    s.position = {gen.uniform(-80.0, 80.0), gen.uniform(-80.0, 80.0)};
    s.window_open = inst.start_time + gen.uniform(0.0, 120.0);
    s.window_close = s.window_open + gen.uniform(10.0, 400.0);
    s.service_time = gen.uniform(0.0, 15.0);
    s.is_key = i < keys;
    s.utility = s.is_key ? 0.0 : gen.uniform(0.5, 10.0);
    inst.stops.push_back(s);
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Equivalence of the optimized planner stack with the retained naive
// reference (core/reference_planner.hpp): the slack-based RouteState, its
// route-owned travel rows, and the lazy CELF-style greedy fill are pure
// optimizations — on every instance the produced Plan must be IDENTICAL
// (visit order, utility, completion time, key count) to the pre-optimization
// implementation.  5 instance families x 50 seeds = 250 instances, covering
// degenerate shapes: zero-slack windows, all-key, all-infeasible, and an
// exact-arithmetic integer grid where insertion scores tie exactly.
// ---------------------------------------------------------------------------

void expect_plans_identical(const csa::TideInstance& inst,
                            const char* family) {
  Rng r1(1), r2(1), r3(1), r4(1);
  const csa::Plan fast_csa = csa::CsaPlanner().plan(inst, r1);
  const csa::Plan ref_csa = csa::reference::NaiveCsaPlanner().plan(inst, r2);
  ASSERT_EQ(fast_csa.visits.size(), ref_csa.visits.size()) << family;
  for (std::size_t i = 0; i < fast_csa.visits.size(); ++i) {
    ASSERT_EQ(fast_csa.visits[i].stop_index, ref_csa.visits[i].stop_index)
        << family << " visit " << i;
  }
  // Same order + same instance => the evaluator yields bit-equal numbers.
  EXPECT_EQ(fast_csa.utility, ref_csa.utility) << family;
  EXPECT_EQ(fast_csa.completion_time, ref_csa.completion_time) << family;
  EXPECT_EQ(fast_csa.keys_scheduled, ref_csa.keys_scheduled) << family;

  const csa::Plan fast_uf = csa::UtilityFirstPlanner().plan(inst, r3);
  const csa::Plan ref_uf =
      csa::reference::NaiveUtilityFirstPlanner().plan(inst, r4);
  ASSERT_EQ(fast_uf.visits.size(), ref_uf.visits.size()) << family;
  for (std::size_t i = 0; i < fast_uf.visits.size(); ++i) {
    ASSERT_EQ(fast_uf.visits[i].stop_index, ref_uf.visits[i].stop_index)
        << family << " visit " << i;
  }
  EXPECT_EQ(fast_uf.utility, ref_uf.utility) << family;
  EXPECT_EQ(fast_uf.completion_time, ref_uf.completion_time) << family;
}

class PlanEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PlanEquivalence, OptimizedPlannerMatchesNaiveReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());

  {  // Mixed keys + utility stops, generic windows.
    Rng gen(seed * 613 + 11);
    expect_plans_identical(random_tide(gen, 3, 12), "mixed");
  }
  {  // Degenerate: zero-slack windows (service must start exactly at open).
    Rng gen(seed * 331 + 5);
    csa::TideInstance inst = random_tide(gen, 2, 10);
    for (csa::Stop& s : inst.stops) s.window_close = s.window_open;
    expect_plans_identical(inst, "zero-slack");
  }
  {  // Degenerate: every stop is a key (greedy fill has nothing to do).
    Rng gen(seed * 977 + 3);
    csa::TideInstance inst = random_tide(gen, 10, 0);
    expect_plans_identical(inst, "all-key");
  }
  {  // Degenerate: nothing is reachable inside its window.
    Rng gen(seed * 741 + 7);
    csa::TideInstance inst = random_tide(gen, 2, 8);
    for (csa::Stop& s : inst.stops) {
      s.window_open = 0.0;
      s.window_close = 0.0;  // closed before any positive travel time
      s.position = {500.0 + gen.uniform(0.0, 100.0), 500.0};
    }
    Rng probe(1);
    const csa::Plan p = csa::CsaPlanner().plan(inst, probe);
    expect_plans_identical(inst, "all-infeasible");
    EXPECT_TRUE(p.visits.empty());
  }
  {  // Fault-shaped: an MC breakdown delays departure — start_time jumps by
     // a repair delay, leaving a mix of expired, zero-slack, and still-open
     // windows, exactly the instance shape the orchestrator hands the
     // planner after a fault::FaultInjector outage ends.
    Rng gen(seed * 487 + 13);
    csa::TideInstance inst = random_tide(gen, 3, 10);
    inst.start_time += gen.uniform(60.0, 300.0);
    for (std::size_t i = 0; i < inst.stops.size(); ++i) {
      if (i % 3 == 0) {
        // Window closed entirely before the repaired departure.
        inst.stops[i].window_close = inst.start_time - gen.uniform(1.0, 50.0);
        inst.stops[i].window_open = inst.stops[i].window_close - 30.0;
      } else if (i % 3 == 1) {
        // Deadline collapses onto the departure instant (zero slack left).
        inst.stops[i].window_open = inst.start_time;
        inst.stops[i].window_close = inst.start_time;
      }
    }
    expect_plans_identical(inst, "post-outage");
  }
  {  // Fault-shaped: travel-budget loss models as a crippled vehicle, so
     // distant stops fall out of feasibility mid-range rather than
     // all-or-nothing.
    Rng gen(seed * 853 + 29);
    csa::TideInstance inst = random_tide(gen, 2, 10);
    inst.speed = gen.uniform(0.2, 0.8);
    expect_plans_identical(inst, "crippled-speed");
  }
  {  // Exact integer arithmetic on a symmetric collinear grid: insertion
     // deltas and cost-benefit scores tie EXACTLY, so this pins down the
     // deterministic tie-breaking (smallest position / smallest stop index)
     // shared by both implementations.
    Rng gen(seed * 59 + 1);
    csa::TideInstance inst;
    inst.start_position = {0.0, 0.0};
    inst.start_time = 0.0;
    inst.speed = 1.0;
    const int n = 3 + static_cast<int>(gen.uniform(0.0, 6.0));
    for (int i = 0; i < n; ++i) {
      csa::Stop s;
      s.node = static_cast<net::NodeId>(i);
      const double side = (i % 2 == 0) ? 1.0 : -1.0;
      s.position = {side * 10.0 * (1 + i / 2), 0.0};
      s.window_open = static_cast<double>(20 * (i % 3));
      s.window_close = s.window_open + 400.0;
      s.service_time = 5.0;
      s.is_key = (i == 0);
      s.utility = s.is_key ? 0.0 : 4.0;  // equal utilities => exact ties
      inst.stops.push_back(s);
    }
    expect_plans_identical(inst, "integer-grid");
  }
}

INSTANTIATE_TEST_SUITE_P(RandomAndDegenerate, PlanEquivalence,
                         ::testing::Range(0, 50));

// The slack suffix array must answer exactly what the naive tail walk
// answers, for every stop at every position, at every route size along a
// growing route: same feasibility verdict, same absorbed-to-zero
// classification, and the same delta up to rounding.
TEST(RouteStateProperty, TryInsertMatchesNaiveWalkEverywhere) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng gen(seed * 127 + 9);
    const csa::TideInstance inst = random_tide(gen, 2, 10);
    csa::RouteState fast(inst);
    csa::reference::NaiveRouteState naive(inst);
    for (std::size_t round = 0; round < inst.stops.size(); ++round) {
      for (std::size_t stop = 0; stop < inst.stops.size(); ++stop) {
        for (std::size_t pos = 0; pos <= fast.order().size(); ++pos) {
          const auto f = fast.try_insert(stop, pos);
          const auto n = naive.try_insert(stop, pos);
          ASSERT_EQ(f.has_value(), n.has_value())
              << "seed " << seed << " stop " << stop << " pos " << pos;
          if (f.has_value()) {
            ASSERT_EQ(*f == 0.0, *n == 0.0)
                << "seed " << seed << " stop " << stop << " pos " << pos;
            ASSERT_NEAR(*f, *n, 1e-7)
                << "seed " << seed << " stop " << stop << " pos " << pos;
          }
        }
      }
      // Grow both routes identically: append the first insertable stop.
      bool grown = false;
      for (std::size_t stop = 0; stop < inst.stops.size() && !grown; ++stop) {
        if (std::find(fast.order().begin(), fast.order().end(), stop) !=
            fast.order().end()) {
          continue;
        }
        const auto best = fast.best_insertion(stop);
        const auto ref = naive.best_insertion(stop);
        ASSERT_EQ(best.has_value(), ref.has_value());
        if (!best.has_value()) continue;
        ASSERT_EQ(best->first, ref->first);
        fast.insert(stop, best->first);
        naive.insert(stop, best->first);
        grown = true;
      }
      if (!grown) break;
    }
    ASSERT_EQ(fast.order(), naive.order()) << "seed " << seed;
    EXPECT_EQ(fast.completion(), naive.completion()) << "seed " << seed;
  }
}

// Every plan any planner returns must re-evaluate as feasible with the
// same utility and key count (no planner may fabricate a schedule).
class PlannerFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(PlannerFeasibility, PlansAlwaysReEvaluate) {
  Rng gen(static_cast<std::uint64_t>(GetParam()) * 101 + 3);
  const csa::TideInstance inst = random_tide(gen, 3, 8);

  const csa::CsaPlanner planner_csa;
  const csa::UtilityFirstPlanner planner_uf;
  const csa::GreedyNearestPlanner planner_gn;
  const csa::RandomPlanner planner_rnd;
  const csa::ExactPlanner planner_exact;
  const csa::Planner* planners[] = {&planner_csa, &planner_uf, &planner_gn,
                                    &planner_rnd, &planner_exact};
  for (const csa::Planner* planner : planners) {
    Rng rng(7);
    const csa::Plan plan = planner->plan(inst, rng);
    std::vector<std::size_t> order;
    for (const csa::Visit& v : plan.visits) order.push_back(v.stop_index);
    const auto check = csa::evaluate_order(inst, order);
    ASSERT_TRUE(check.has_value()) << planner->name();
    EXPECT_NEAR(check->utility, plan.utility, 1e-9) << planner->name();
    EXPECT_EQ(check->keys_scheduled, plan.keys_scheduled) << planner->name();
    // No duplicate visits.
    std::set<std::size_t> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), order.size()) << planner->name();
    // Visits are chronologically ordered with waits honoured.
    for (std::size_t i = 1; i < plan.visits.size(); ++i) {
      EXPECT_GE(plan.visits[i].arrival, plan.visits[i - 1].departure - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PlannerFeasibility,
                         ::testing::Range(0, 20));

// CSA never schedules fewer keys than the exact optimum (its EDF skeleton
// may only tie or, in pathological cases, miss at most what the optimum
// misses too — on these generous instances it must match).
class KeyCoverage : public ::testing::TestWithParam<int> {};

TEST_P(KeyCoverage, CsaMatchesExactWhenExactCoversAll) {
  Rng gen(static_cast<std::uint64_t>(GetParam()) * 991 + 17);
  const csa::TideInstance inst = random_tide(gen, 2, 7);
  Rng rng(5);
  const csa::Plan exact = csa::ExactPlanner().plan(inst, rng);
  if (!exact.covers_all_keys()) return;
  const csa::Plan plan = csa::CsaPlanner().plan(inst, rng);
  EXPECT_TRUE(plan.covers_all_keys());
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KeyCoverage,
                         ::testing::Range(0, 25));

// Wave physics: total power through a circle around an isolated source is
// independent of the phase convention, and superposition of co-located
// identical sources quadruples power everywhere.
TEST(WaveProperty, PhaseOffsetDoesNotChangeSingleSourcePower) {
  wpt::WaveSource a;
  a.position = {0.0, 0.0};
  a.alpha = 2.0;
  a.max_range = 100.0;
  for (double phase = 0.0; phase < 6.28; phase += 0.7) {
    wpt::WaveSource b = a;
    b.phase_offset = phase;
    for (double angle = 0.0; angle < 6.28; angle += 0.9) {
      const geom::Vec2 probe{10.0 * std::cos(angle), 10.0 * std::sin(angle)};
      EXPECT_NEAR(wpt::superposed_rf_power({&a, 1}, probe),
                  wpt::superposed_rf_power({&b, 1}, probe), 1e-12);
    }
  }
}

TEST(WaveProperty, RandomPhaseAveragePowerEqualsIncoherentSum) {
  // Averaged over a uniformly random relative carrier phase, the expected
  // coherent power at ANY point equals the incoherent sum — interference
  // redistributes energy, it does not create or destroy it.
  wpt::WaveSource s1;
  s1.position = {0.0, 0.5};
  s1.alpha = 1.0;
  s1.max_range = 1e5;
  wpt::WaveSource s2 = s1;
  s2.position = {0.3, -0.5};

  Rng rng(9);
  for (int probe_idx = 0; probe_idx < 5; ++probe_idx) {
    const geom::Vec2 probe{rng.uniform(-30.0, 30.0),
                           rng.uniform(-30.0, 30.0)};
    double coherent = 0.0;
    const int samples = 5'000;
    for (int i = 0; i < samples; ++i) {
      wpt::WaveSource randomized = s2;
      randomized.phase_offset = constants::kTwoPi * i / samples;
      const wpt::WaveSource arr[] = {s1, randomized};
      coherent += wpt::superposed_rf_power(arr, probe);
    }
    const wpt::WaveSource arr[] = {s1, s2};
    const double incoherent = wpt::incoherent_rf_power(arr, probe);
    EXPECT_NEAR(coherent / samples / incoherent, 1.0, 0.01)
        << "probe " << probe_idx;
  }
}

// Spoof suppression must degrade gracefully with hardware quality.
TEST(SpoofProperty, SuppressionMonotoneInJitter) {
  const wpt::ChargingModel model;
  Watts worst_low = 0.0, worst_high = 0.0;
  for (const double sigma : {0.002, 0.1}) {
    wpt::SpoofingParams params;
    params.phase_jitter_sigma = sigma;
    const wpt::SpoofingEmitter emitter(model, params);
    Rng rng(3);
    Watts worst = 0.0;
    for (int i = 0; i < 100; ++i) {
      const auto out = emitter.configure({0.0, 0.0}, {0.3, 0.0}, &rng);
      worst = std::max(worst, out.rf_at_target);
    }
    (sigma < 0.01 ? worst_low : worst_high) = worst;
  }
  EXPECT_LT(worst_low, worst_high);
}

// World-level monotonicity: a higher request threshold can only produce
// earlier (or equal) first requests.
TEST(WorldProperty, RequestThresholdMonotonicity) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    double first_low = 0.0, first_high = 0.0;
    for (const double threshold : {0.2, 0.5}) {
      analysis::ScenarioConfig cfg = analysis::default_scenario();
      cfg.seed = seed;
      cfg.topology.node_count = 30;
      cfg.topology.region = {{0.0, 0.0}, {180.0, 180.0}};
      cfg.world.request_threshold = threshold;
      cfg.world.initial_level_min = 0.40;
      cfg.world.initial_level_max = 0.80;
      cfg.horizon = 5 * 86'400.0;
      cfg.world.hardware_mtbf = 0.0;
      const auto result =
          analysis::run_mission(cfg, analysis::ChargerMode::Benign);
      ASSERT_FALSE(result.trace.requests.empty());
      (threshold < 0.3 ? first_low : first_high) =
          result.trace.requests.front().time;
    }
    EXPECT_LE(first_high, first_low) << "seed " << seed;
  }
}

// Battery conservation across a full mission: for every node, delivered
// energy can never exceed the charger's radiated energy budget and no
// node's level exceeds its capacity at any recorded instant.
TEST(WorldProperty, SessionEnergiesPhysical) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 21;
  const auto result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  for (const sim::SessionRecord& s : result.trace.sessions) {
    EXPECT_GE(s.delivered, 0.0);
    EXPECT_GE(s.radiated, -1e-9);
    EXPECT_LE(s.end - s.start, 4 * 3'600.0);  // no runaway sessions
    // DC delivered cannot exceed radiated RF (rectifier efficiency < 1).
    if (s.radiated > 0.0) {
      EXPECT_LE(s.delivered, s.radiated + 1e-6);
    }
  }
}

}  // namespace
}  // namespace wrsn
