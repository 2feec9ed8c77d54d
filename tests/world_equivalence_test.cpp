// Property suite pinning the Fast world updater to the Reference one.
//
// WorldUpdateMode::Fast patches the routing tree after a death (subtree
// repair), refreshes loads/drains into persistent buffers, and reschedules
// only the nodes whose drain rate changed.  WorldUpdateMode::Reference is
// the seed behaviour: full rebuild plus an unconditional resync+reschedule
// of every alive node.  The two must be observationally identical: same
// requests, sessions, deaths, and escalations (same nodes, same flags, same
// order), with event times agreeing to well under a millisecond (Reference
// resyncs every node at every death, folding floating-point error slightly
// differently, so bitwise-equal times are not attainable by design).
//
// Scenarios sweep attack and benign charger modes, the emergency-comparator
// defense, background hardware failures, deployment shapes, and sizes —
// every topology-churn source the simulator has.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "analysis/scenario.hpp"

namespace wrsn::analysis {
namespace {

constexpr Seconds kTimeTol = 1e-5;
constexpr Joules kEnergyTol = 1e-3;
constexpr double kRfTol = 1e-9;

void expect_traces_equal(const sim::Trace& fast, const sim::Trace& ref,
                         const std::string& label) {
  SCOPED_TRACE(label);

  ASSERT_EQ(fast.requests.size(), ref.requests.size());
  for (std::size_t i = 0; i < ref.requests.size(); ++i) {
    SCOPED_TRACE("request #" + std::to_string(i));
    EXPECT_EQ(fast.requests[i].node, ref.requests[i].node);
    EXPECT_EQ(fast.requests[i].emergency, ref.requests[i].emergency);
    EXPECT_NEAR(fast.requests[i].time, ref.requests[i].time, kTimeTol);
    EXPECT_NEAR(fast.requests[i].level_at_request,
                ref.requests[i].level_at_request, kEnergyTol);
  }

  ASSERT_EQ(fast.sessions.size(), ref.sessions.size());
  for (std::size_t i = 0; i < ref.sessions.size(); ++i) {
    SCOPED_TRACE("session #" + std::to_string(i));
    EXPECT_EQ(fast.sessions[i].node, ref.sessions[i].node);
    EXPECT_EQ(fast.sessions[i].kind, ref.sessions[i].kind);
    EXPECT_NEAR(fast.sessions[i].start, ref.sessions[i].start, kTimeTol);
    EXPECT_NEAR(fast.sessions[i].end, ref.sessions[i].end, kTimeTol);
    EXPECT_NEAR(fast.sessions[i].expected_gain, ref.sessions[i].expected_gain,
                kEnergyTol);
    EXPECT_NEAR(fast.sessions[i].delivered, ref.sessions[i].delivered,
                kEnergyTol);
    EXPECT_NEAR(fast.sessions[i].rf_observed, ref.sessions[i].rf_observed,
                kRfTol);
  }

  ASSERT_EQ(fast.deaths.size(), ref.deaths.size());
  for (std::size_t i = 0; i < ref.deaths.size(); ++i) {
    SCOPED_TRACE("death #" + std::to_string(i));
    EXPECT_EQ(fast.deaths[i].node, ref.deaths[i].node);
    EXPECT_EQ(fast.deaths[i].request_outstanding,
              ref.deaths[i].request_outstanding);
    EXPECT_NEAR(fast.deaths[i].time, ref.deaths[i].time, kTimeTol);
  }

  ASSERT_EQ(fast.escalations.size(), ref.escalations.size());
  for (std::size_t i = 0; i < ref.escalations.size(); ++i) {
    SCOPED_TRACE("escalation #" + std::to_string(i));
    EXPECT_EQ(fast.escalations[i].node, ref.escalations[i].node);
    EXPECT_NEAR(fast.escalations[i].time, ref.escalations[i].time, kTimeTol);
  }
}

/// Builds scenario #index of the randomized sweep.  Region area scales with
/// node count to hold density at the calibrated default (100 nodes on
/// 400 m x 400 m with 65 m radios).
ScenarioConfig scenario_for(std::uint64_t index) {
  ScenarioConfig cfg = default_scenario();

  const std::size_t sizes[] = {25, 36, 49};
  const std::size_t n = sizes[index % 3];
  const double side = 40.0 * std::sqrt(double(n));
  cfg.topology.node_count = n;
  cfg.topology.region = {{0.0, 0.0}, {side, side}};
  cfg.topology.deployment = (index % 5 == 0)   ? net::Deployment::Clustered
                            : (index % 5 == 3) ? net::Deployment::Corridor
                                               : net::Deployment::Uniform;
  cfg.topology.corridor_count = 1 + index % 3;

  // Heterogeneous battery/drain classes: the per-node scaling draws ride the
  // topology rng, so both modes see identical hardware.
  if (index % 4 == 1) {
    cfg.topology.class_count = 3;
    cfg.topology.class_capacity_ratio = 2.0;
    cfg.topology.class_rate_ratio = 1.5;
  }

  // Waypoint mobility: epochs rebuild adjacency and resync through the mode
  // seam, the strongest topology churn the simulator has.
  if (index % 6 == 2) {
    cfg.world.mobility.fraction = 0.2;
    cfg.world.mobility.interval = 1'800.0;
    cfg.world.mobility.speed_max = 2.0;
  }

  // k-coverage utility reweighs planner stops; both planners must agree.
  if (index % 5 == 2) {
    cfg.world.coverage.k = 2;
    cfg.world.coverage.bonus = 1.0;
  }

  // Mix in every topology-churn source across the sweep.
  cfg.world.emergency_enabled = (index % 3 == 0);
  cfg.world.hardware_mtbf = (index % 2 == 0) ? 10.0 * 86'400.0 : 0.0;

  cfg.horizon = 1.5 * 86'400.0;
  cfg.seed = 0x5DEECE66Dull * (index + 1) + 11;

  // Fault injection rides the sweep: the compiled FaultPlan is a pure
  // function of the scenario rng, so a faulted Fast mission must still
  // match its Reference twin record-for-record.
  if (index % 3 == 1) {
    cfg.faults.mc_breakdown_mtbf = cfg.horizon / 3.0;
    cfg.faults.mc_repair_mean = 3'600.0;
    cfg.faults.mc_budget_loss = 0.08;
    cfg.faults.node_burst_mtbf = cfg.horizon / 2.0;
    cfg.faults.node_burst_size = 2;
    cfg.faults.battery_drift_mtbf = cfg.horizon / 2.0;
    cfg.faults.battery_drift_power = 8e-3;
    cfg.faults.battery_drift_duration = (index % 6 == 1) ? 7'200.0 : 0.0;
  }
  if (index % 7 == 2) {
    cfg.faults.phase_noise_mtbf = cfg.horizon / 2.0;
    cfg.faults.phase_noise_duration = 3'600.0;
    cfg.faults.phase_noise_scale = 30.0;
    cfg.faults.escalation_drop_prob = 0.25;
    cfg.faults.escalation_delay_prob = 0.5;
    cfg.faults.escalation_delay_max = 1'200.0;
  }
  if (index % 11 == 5) cfg.faults.mc_permanent_at = cfg.horizon / 2.0;
  return cfg;
}

class WorldEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldEquivalence, FastMatchesReference) {
  const std::uint64_t index = GetParam();
  ScenarioConfig cfg = scenario_for(index);
  const ChargerMode mode =
      (index % 2 == 0) ? ChargerMode::Attack : ChargerMode::Benign;

  cfg.world.update_mode = sim::WorldUpdateMode::Fast;
  const ScenarioResult fast = run_mission(cfg, mode);
  cfg.world.update_mode = sim::WorldUpdateMode::Reference;
  const ScenarioResult ref = run_mission(cfg, mode);

  const std::string label =
      "scenario " + std::to_string(index) +
      (mode == ChargerMode::Attack ? " (attack)" : " (benign)");
  expect_traces_equal(fast.trace, ref.trace, label);
  EXPECT_EQ(fast.alive_at_end, ref.alive_at_end);
  EXPECT_EQ(fast.sink_connected_at_end, ref.sink_connected_at_end);
  EXPECT_EQ(fast.keys, ref.keys);
  EXPECT_EQ(fast.plans_computed, ref.plans_computed);

  // Fault execution draws from per-concern streams in fire order, which
  // trace equivalence keeps identical across modes — so the tallies must
  // agree exactly, not just approximately.
  EXPECT_EQ(fast.fault_stats.mc_breakdowns, ref.fault_stats.mc_breakdowns);
  EXPECT_EQ(fast.fault_stats.mc_repairs, ref.fault_stats.mc_repairs);
  EXPECT_EQ(fast.fault_stats.node_burst_kills,
            ref.fault_stats.node_burst_kills);
  EXPECT_EQ(fast.fault_stats.phase_noise_windows,
            ref.fault_stats.phase_noise_windows);
  EXPECT_EQ(fast.fault_stats.escalations_dropped,
            ref.fault_stats.escalations_dropped);
  EXPECT_EQ(fast.fault_stats.escalations_delayed,
            ref.fault_stats.escalations_delayed);
  EXPECT_EQ(fast.fault_stats.drift_nodes, ref.fault_stats.drift_nodes);
  EXPECT_EQ(fast.fault_stats.absorbed, ref.fault_stats.absorbed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorldEquivalence,
                         ::testing::Range(std::uint64_t{0},
                                          std::uint64_t{100}));

// Compound frontier scenario: mobile nodes AND heterogeneous classes AND
// k-coverage utility in one mission, under attack, with hardware failures —
// every new scenario family interacting at once.  Mobility epochs force
// full adjacency rebuilds that must resync identically through both update
// modes while the coverage index reweighs the planner's stop utilities.
TEST(WorldEquivalenceFrontier, MobileHeterogeneousCoverageMatches) {
  ScenarioConfig cfg = default_scenario();
  const std::size_t n = 64;
  const double side = 40.0 * std::sqrt(double(n));
  cfg.topology.node_count = n;
  cfg.topology.region = {{0.0, 0.0}, {side, side}};
  cfg.topology.class_count = 4;
  cfg.topology.class_capacity_ratio = 2.5;
  cfg.topology.class_rate_ratio = 1.8;
  cfg.world.mobility.fraction = 0.25;
  cfg.world.mobility.interval = 1'200.0;
  cfg.world.mobility.speed_max = 2.5;
  cfg.world.coverage.k = 3;
  cfg.world.coverage.bonus = 1.5;
  cfg.world.emergency_enabled = true;
  cfg.world.hardware_mtbf = 10.0 * 86'400.0;
  cfg.horizon = 1.5 * 86'400.0;
  cfg.seed = 0xF00DF00Dull;

  cfg.world.update_mode = sim::WorldUpdateMode::Fast;
  const ScenarioResult fast = run_mission(cfg, ChargerMode::Attack);
  cfg.world.update_mode = sim::WorldUpdateMode::Reference;
  const ScenarioResult ref = run_mission(cfg, ChargerMode::Attack);

  expect_traces_equal(fast.trace, ref.trace, "frontier compound (attack)");
  EXPECT_EQ(fast.alive_at_end, ref.alive_at_end);
  EXPECT_EQ(fast.sink_connected_at_end, ref.sink_connected_at_end);
  EXPECT_EQ(fast.keys, ref.keys);
  EXPECT_EQ(fast.plans_computed, ref.plans_computed);
}

// One target-scale scenario: N = 1600 exercises the SoA hot lanes and the
// word bitmap far past any cache the small sweep sizes stay inside, and the
// death-cascade repair runs over a topology deep enough for multi-hop
// subtree patches.  The horizon is short — the point is layout coverage at
// scale, not another long mission.
TEST(WorldEquivalenceScale, FastMatchesReferenceAt1600Nodes) {
  ScenarioConfig cfg = default_scenario();
  const std::size_t n = 1600;
  const double side = 40.0 * std::sqrt(double(n));
  cfg.topology.node_count = n;
  cfg.topology.region = {{0.0, 0.0}, {side, side}};
  cfg.world.emergency_enabled = true;
  cfg.horizon = 0.5 * 86'400.0;
  cfg.seed = 0xC0FFEEull;

  cfg.world.update_mode = sim::WorldUpdateMode::Fast;
  const ScenarioResult fast = run_mission(cfg, ChargerMode::Attack);
  cfg.world.update_mode = sim::WorldUpdateMode::Reference;
  const ScenarioResult ref = run_mission(cfg, ChargerMode::Attack);

  expect_traces_equal(fast.trace, ref.trace, "scenario n=1600 (attack)");
  EXPECT_FALSE(fast.trace.deaths.empty());  // the cascade path must fire
  EXPECT_EQ(fast.alive_at_end, ref.alive_at_end);
  EXPECT_EQ(fast.sink_connected_at_end, ref.sink_connected_at_end);
  EXPECT_EQ(fast.keys, ref.keys);
  EXPECT_EQ(fast.plans_computed, ref.plans_computed);
}

}  // namespace
}  // namespace wrsn::analysis
