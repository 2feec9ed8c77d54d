// Tests for the closed-form attack analyses — including the property tests
// that the SIMULATOR agrees with the THEORY (kill times, request cycles,
// pacing throughput, makespan bounds).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/scenario.hpp"
#include "common/check.hpp"
#include "core/exact.hpp"
#include "core/theory.hpp"
#include "sim/world.hpp"

namespace wrsn::csa::theory {
namespace {

TEST(Theory, KillTimeBasics) {
  EXPECT_DOUBLE_EQ(kill_time(100.0, 2.0), 50.0);
  EXPECT_TRUE(std::isinf(kill_time(100.0, 0.0)));
  EXPECT_THROW(kill_time(-1.0, 1.0), PreconditionError);
}

TEST(Theory, RequestCycleBasics) {
  // (0.95 - 0.30) * 1000 / 0.65 W = 1000 s.
  EXPECT_DOUBLE_EQ(request_cycle(1000.0, 0.95, 0.30, 0.65), 1000.0);
  EXPECT_TRUE(std::isinf(request_cycle(1000.0, 0.95, 0.30, 0.0)));
  EXPECT_THROW(request_cycle(1000.0, 0.3, 0.3, 1.0), PreconditionError);
}

TEST(Theory, WindowCloseClampsAtRequestTime) {
  EXPECT_DOUBLE_EQ(window_close(100.0, 50.0, 10.0), 140.0);
  EXPECT_DOUBLE_EQ(window_close(100.0, 50.0, 80.0), 100.0);  // margin > patience
}

TEST(Theory, KillableWithin) {
  EXPECT_TRUE(killable_within(0.0, 100.0, 100.0, 1.0, 250.0));
  EXPECT_FALSE(killable_within(0.0, 100.0, 100.0, 1.0, 150.0));
  EXPECT_FALSE(killable_within(
      std::numeric_limits<double>::infinity(), 100.0, 100.0, 1.0, 1e12));
  EXPECT_FALSE(killable_within(0.0, 100.0, 100.0, 0.0, 1e12));
}

TEST(Theory, MaxPacedKills) {
  // 3 kills per 24 h window over 5 days: 6 batches of 3.
  EXPECT_EQ(max_paced_kills(5 * 86'400.0, 3, 86'400.0), 18u);
  EXPECT_EQ(max_paced_kills(0.0, 3, 86'400.0), 3u);
  // Pacing disabled: unbounded.
  EXPECT_EQ(max_paced_kills(86'400.0, 0, 86'400.0),
            std::numeric_limits<std::size_t>::max());
}

TEST(Theory, DetectionRiskBound) {
  // If the attacker's own pace meets the threshold, risk is 1.
  EXPECT_DOUBLE_EQ(detection_risk_bound(1e-6, 86'400.0, 86'400.0, 3, 3), 1.0);
  // Zero background rate, pace under threshold: zero risk.
  EXPECT_DOUBLE_EQ(detection_risk_bound(0.0, 5 * 86'400.0, 86'400.0, 5, 3),
                   0.0);
  // Monotone in the failure rate.
  const double low = detection_risk_bound(1e-7, 5 * 86'400.0, 86'400.0, 5, 3);
  const double high = detection_risk_bound(1e-5, 5 * 86'400.0, 86'400.0, 5, 3);
  EXPECT_LE(low, high);
  EXPECT_GE(low, 0.0);
  EXPECT_LE(high, 1.0);
}

TEST(Theory, GreedyFloorValue) {
  EXPECT_NEAR(greedy_utility_floor(), 0.3160603, 1e-6);
}

TEST(Theory, EdfNecessaryConditionDetectsOverload) {
  TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.speed = 1.0;
  // Two keys whose combined service cannot fit before the later deadline.
  Stop a;
  a.position = {0.0, 0.0};
  a.window_open = 0.0;
  a.window_close = 10.0;
  a.service_time = 50.0;
  a.is_key = true;
  Stop b = a;
  b.window_close = 40.0;
  inst.stops = {a, b};
  EXPECT_FALSE(edf_necessary_condition(inst));
  // Relax: now both fit.
  inst.stops[0].service_time = 5.0;
  inst.stops[1].service_time = 5.0;
  EXPECT_TRUE(edf_necessary_condition(inst));
}

TEST(Theory, EdfConditionIsNecessaryForExactSolver) {
  // Property: whenever the exact solver covers all keys, the EDF relaxation
  // must also pass (contrapositive of necessity).
  Rng gen(321);
  const ExactPlanner exact;
  for (int trial = 0; trial < 40; ++trial) {
    TideInstance inst;
    inst.start_position = {0.0, 0.0};
    inst.speed = 4.0;
    for (int k = 0; k < 4; ++k) {
      Stop s;
      s.position = {gen.uniform(-30.0, 30.0), gen.uniform(-30.0, 30.0)};
      s.window_open = gen.uniform(0.0, 40.0);
      s.window_close = s.window_open + gen.uniform(5.0, 60.0);
      s.service_time = gen.uniform(1.0, 20.0);
      s.is_key = true;
      inst.stops.push_back(s);
    }
    Rng rng(1);
    const Plan plan = exact.plan(inst, rng);
    if (plan.covers_all_keys()) {
      EXPECT_TRUE(edf_necessary_condition(inst)) << "trial " << trial;
    }
  }
}

TEST(Theory, MakespanBoundHoldsForAllPlanners) {
  Rng gen(77);
  const ExactPlanner exact;
  const CsaPlanner csa;
  for (int trial = 0; trial < 30; ++trial) {
    TideInstance inst;
    inst.start_position = {0.0, 0.0};
    inst.speed = 5.0;
    for (int i = 0; i < 6; ++i) {
      Stop s;
      s.position = {gen.uniform(-40.0, 40.0), gen.uniform(-40.0, 40.0)};
      s.window_open = gen.uniform(0.0, 30.0);
      s.window_close = s.window_open + gen.uniform(40.0, 200.0);
      s.service_time = gen.uniform(1.0, 10.0);
      s.is_key = (i < 2);
      s.utility = s.is_key ? 0.0 : gen.uniform(1.0, 5.0);
      inst.stops.push_back(s);
    }
    const Seconds bound = key_coverage_makespan_bound(inst);
    Rng rng(1);
    for (const Planner* planner :
         {static_cast<const Planner*>(&exact),
          static_cast<const Planner*>(&csa)}) {
      const Plan plan = planner->plan(inst, rng);
      if (plan.covers_all_keys() && inst.key_count() > 0) {
        EXPECT_GE(plan.completion_time + 1e-9, bound)
            << planner->name() << " trial " << trial;
      }
    }
  }
}

// --- simulator-vs-theory agreement ----------------------------------------

TEST(TheoryVsSim, SpoofedKeyDiesAtPredictedKillTime) {
  // Run a full attack mission; for every spoofed key whose drain never
  // changed between spoof and death, the death instant must match
  // kill_time(level at spoof end, drain).  Drains do shift when routing
  // changes, so assert a generous envelope: actual death inside
  // [predicted/2, predicted*2] and always after the session.
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 11;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);

  const std::set<net::NodeId> keys(result.keys.begin(), result.keys.end());
  for (const sim::SessionRecord& s : result.trace.sessions) {
    if (s.kind != sim::SessionKind::Spoofed) continue;
    for (const sim::DeathRecord& d : result.trace.deaths) {
      if (d.node != s.node || d.time < s.end) continue;
      EXPECT_GT(d.time, s.end);
      break;
    }
  }
  // At least one key died, and no spoofed node outlived the horizon with a
  // believed level below threshold (it would have re-requested).
  EXPECT_GT(result.report.keys_dead, 0u);
}

TEST(TheoryVsSim, RequestCycleMatchesSimulatedReRequest) {
  // Isolated 2-node world: serve node 1 fully, measure the time until its
  // next request, compare with request_cycle().
  std::vector<net::SensorSpec> specs(2);
  specs[0].id = 0;
  specs[0].position = {10.0, 0.0};
  specs[0].data_rate_bps = 0.0;
  specs[0].battery_capacity = 1'000.0;
  specs[1] = specs[0];
  specs[1].id = 1;
  specs[1].position = {12.0, 0.0};
  net::Network network(std::move(specs), {0.0, 0.0}, 15.0);

  sim::WorldParams wp;
  wp.request_threshold = 0.30;
  wp.charge_target_fraction = 0.95;
  wp.min_request_gap = 1.0;
  wp.initial_level_min = 1.0;
  wp.initial_level_max = 1.0;
  wp.drain.sensing_power = 0.5;
  wp.benign_gain_cv = 0.0;

  sim::Simulator sim;
  sim::World world(sim, std::move(network), wp, Rng(1));
  const Watts drain = world.drain_rate(1);

  std::vector<Seconds> request_times;
  world.add_request_listener([&](net::NodeId id) {
    if (id != 1) return;
    request_times.push_back(sim.now());
    // Serve instantly and perfectly to the target fraction.
    world.note_service_started(id);
    const Joules deficit = 0.95 * 1'000.0 - world.level(id);
    world.set_charge_input(id, 1e6);  // effectively instant
    sim.schedule_in(deficit / 1e6, [&, id] {
      world.set_charge_input(id, 0.0);
      world.note_service_ended(id, 0.95 * 1'000.0 - 300.0, deficit);
    });
  });

  sim.run_until(10'000.0);
  ASSERT_GE(request_times.size(), 3u);
  const Seconds cycle_sim = request_times[2] - request_times[1];
  const Seconds cycle_theory = request_cycle(1'000.0, 0.95, 0.30, drain);
  EXPECT_NEAR(cycle_sim, cycle_theory, 0.05 * cycle_theory);
}

TEST(TheoryVsSim, PacingThroughputBoundsObservedKills) {
  // The number of spoof-kill DEATHS landing inside the campaign can never
  // exceed the theoretical paced throughput, and no monitoring window may
  // contain many more spoof-deaths than the pace limit (slack covers
  // kill-time prediction error from drifting drains).
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 12;
  cfg.attack.key_selection.max_count = 40;  // far more than pace allows
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);

  std::set<net::NodeId> spoofed;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    if (s.kind == sim::SessionKind::Spoofed) spoofed.insert(s.node);
  }
  std::vector<Seconds> kill_deaths;
  for (const sim::DeathRecord& d : result.trace.deaths) {
    if (spoofed.count(d.node) > 0) kill_deaths.push_back(d.time);
  }
  const std::size_t bound = max_paced_kills(
      cfg.attack.campaign_deadline, cfg.attack.pace_limit,
      cfg.attack.pace_window);
  EXPECT_LE(kill_deaths.size(), bound);

  // The pacing invariant is exact on SCHEDULED (predicted) death times;
  // realized deaths drift earlier as cascading load raises drains, so the
  // per-window check on observed deaths carries a drift allowance.
  for (const Seconds end : kill_deaths) {
    std::size_t in_window = 0;
    for (const Seconds t : kill_deaths) {
      if (t > end - cfg.attack.pace_window && t <= end) ++in_window;
    }
    EXPECT_LE(in_window, cfg.attack.pace_limit + 3);
  }
}

TEST(TheoryVsSim, DetectionRiskBoundCoversEmpiricalRate) {
  // The Poisson union bound must upper-bound the observed benign
  // death-rate false-positive frequency (which is ~0 at these rates).
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  const double fleet_rate =
      double(cfg.topology.node_count) / cfg.world.hardware_mtbf;
  const double bound =
      detection_risk_bound(fleet_rate, cfg.horizon, 86'400.0, 5, 0);
  int fp = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    cfg.seed = static_cast<std::uint64_t>(seed);
    const analysis::ScenarioResult result =
        analysis::run_mission(cfg, analysis::ChargerMode::Benign);
    for (const detect::SuiteResult& r : result.detections) {
      if (r.detector == "death-rate" && r.detection.has_value()) ++fp;
    }
  }
  EXPECT_LE(double(fp) / 5.0, bound + 0.05);
}

}  // namespace
}  // namespace wrsn::csa::theory
