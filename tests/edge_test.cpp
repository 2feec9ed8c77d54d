// Edge cases and failure injection: degenerate topologies, exhausted
// chargers, hostile parameterizations, audit placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/scenario.hpp"
#include "common/check.hpp"
#include "detect/audit_planner.hpp"
#include "mc/vehicle.hpp"
#include "net/topology.hpp"

namespace wrsn {
namespace {

TEST(AuditPlanner, BudgetZeroAndOversized) {
  net::TopologyConfig cfg;
  cfg.node_count = 20;
  cfg.comm_range = 40.0;
  Rng rng(1);
  const net::Network network = net::generate_topology(cfg, rng);
  const net::RoutingTree tree = net::build_routing_tree(network);
  const net::TrafficLoads loads = net::compute_loads(network, tree);

  Rng prng(2);
  EXPECT_TRUE(detect::select_audit_nodes(network, loads, 0,
                                         detect::AuditPlacement::Random, prng)
                  .empty());
  const auto all = detect::select_audit_nodes(
      network, loads, 500, detect::AuditPlacement::Random, prng);
  EXPECT_EQ(all.size(), 20u);  // clamped to network size
}

TEST(AuditPlanner, KeyRankedMirrorsAttackerSelection) {
  net::TopologyConfig cfg;
  cfg.node_count = 60;
  cfg.comm_range = 28.0;
  Rng rng(3);
  const net::Network network = net::generate_topology(cfg, rng);
  const net::RoutingTree tree = net::build_routing_tree(network);
  const net::TrafficLoads loads = net::compute_loads(network, tree);

  Rng prng(4);
  const auto audited = detect::select_audit_nodes(
      network, loads, 10, detect::AuditPlacement::KeyRanked, prng);

  net::KeyNodeConfig key_cfg;
  key_cfg.rule = net::KeyNodeRule::Hybrid;
  key_cfg.max_count = 10;
  const auto attacker_view = net::select_key_nodes(network, loads, key_cfg);
  EXPECT_EQ(audited, attacker_view);
}

TEST(AuditPlanner, PlacementsAreDistinctSets) {
  net::TopologyConfig cfg;
  cfg.node_count = 80;
  cfg.comm_range = 26.0;
  Rng rng(5);
  const net::Network network = net::generate_topology(cfg, rng);
  const net::RoutingTree tree = net::build_routing_tree(network);
  const net::TrafficLoads loads = net::compute_loads(network, tree);
  Rng prng(6);
  const auto random = detect::select_audit_nodes(
      network, loads, 15, detect::AuditPlacement::Random, prng);
  const auto traffic = detect::select_audit_nodes(
      network, loads, 15, detect::AuditPlacement::TopTraffic, prng);
  EXPECT_EQ(random.size(), 15u);
  EXPECT_EQ(traffic.size(), 15u);
  EXPECT_NE(random, traffic);  // astronomically unlikely to coincide
}

TEST(Edge, SingleNodeNetworkRuns) {
  std::vector<net::SensorSpec> specs(1);
  specs[0].id = 0;
  specs[0].position = {5.0, 0.0};
  specs[0].data_rate_bps = 1'000.0;
  specs[0].battery_capacity = 1'000.0;
  net::Network network(std::move(specs), {0.0, 0.0}, 10.0);

  sim::WorldParams wp;
  wp.drain.sensing_power = 0.05;
  sim::Simulator sim;
  sim::World world(sim, std::move(network), wp, Rng(1));
  mc::AgentParams ap;
  ap.charger.depot = {0.0, 0.0};
  mc::Vehicle agent(world, ap);
  agent.start();
  sim.run_until(100'000.0);
  EXPECT_TRUE(world.alive(0));
  EXPECT_GT(agent.sessions_completed(), 0u);
}

TEST(Edge, ChargerWithTinyBatteryCyclesThroughDepot) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 61;
  cfg.topology.node_count = 40;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.horizon = 2 * 86'400.0;
  // Battery holds only a few sessions; the agent must keep returning.
  cfg.benign.charger.battery_capacity = 1e5;
  cfg.benign.charger.depot_recharge_power = 2'000.0;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Benign);
  // Service continues despite the depot cycling (possibly degraded).
  EXPECT_GT(result.trace.sessions.size(), 5u);
  EXPECT_GT(result.alive_at_end, result.node_count - 8);
}

TEST(Edge, AttackerWithTinyBatterySurvives) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 62;
  cfg.attack.charger.battery_capacity = 1.5e5;
  cfg.attack.charger.depot_recharge_power = 2'000.0;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  EXPECT_GT(result.trace.sessions.size(), 5u);  // no deadlock
}

TEST(Edge, ZeroDataRateNodesOnlySense) {
  std::vector<net::SensorSpec> specs(2);
  for (net::NodeId i = 0; i < 2; ++i) {
    specs[i].id = i;
    specs[i].position = {5.0 + 5.0 * i, 0.0};
    specs[i].data_rate_bps = 0.0;
    specs[i].battery_capacity = 1'000.0;
  }
  net::Network network(std::move(specs), {0.0, 0.0}, 12.0);
  const net::RoutingTree tree = net::build_routing_tree(network);
  const net::TrafficLoads loads = net::compute_loads(network, tree);
  EXPECT_DOUBLE_EQ(loads.tx_bps[0], 0.0);
  net::DrainParams dp;
  const auto drains = net::compute_drain_rates(network, tree, loads, dp);
  EXPECT_DOUBLE_EQ(drains[0], dp.sensing_power);
  EXPECT_DOUBLE_EQ(drains[1], dp.sensing_power);
}

TEST(Edge, AllNodesHardwareFailBeforeAnyRequest) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 63;
  cfg.topology.node_count = 30;
  cfg.topology.region = {{0.0, 0.0}, {200.0, 200.0}};
  cfg.world.hardware_mtbf = 2'000.0;  // everything dies within the hour
  cfg.horizon = 86'400.0;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  EXPECT_EQ(result.alive_at_end, 0u);
  EXPECT_EQ(result.trace.deaths.size(), 30u);
}

TEST(Edge, EmergencyDefenseWithAggressiveThresholds) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 64;
  cfg.world.emergency_enabled = true;
  cfg.world.emergency_fraction = 0.2;
  cfg.world.emergency_patience = 300.0;
  // Must run without assertion failures or event storms.
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  EXPECT_GT(result.trace.sessions.size(), 0u);
}

TEST(Edge, WindowMarginLargerThanPatience) {
  // An absurd margin collapses every window to zero width: nothing is
  // servable, so the attacker idles and the network starves loudly.  The
  // run must complete without crashing, and the base station notices.
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 65;
  cfg.attack.window_margin = cfg.world.patience * 2.0;  // clamps to "now"
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  EXPECT_EQ(result.trace.sessions.size(), 0u);
  EXPECT_GT(result.report.escalations, 0u);
  EXPECT_TRUE(result.report.detected);
}

TEST(Edge, MaxCountOneKeySelectsSingleTarget) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 66;
  cfg.attack.key_selection.max_count = 1;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  EXPECT_EQ(result.keys.size(), 1u);
  EXPECT_LE(result.report.sessions_spoofed, 3u);
}

TEST(Edge, HugePatienceNeverEscalates) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 67;
  cfg.world.patience = 1e9;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Benign);
  EXPECT_EQ(result.report.escalations, 0u);
}

TEST(Edge, PermanentMcBreakdownStarvesLoudly) {
  // The charger dies for good halfway through the mission.  The run must
  // reach the horizon (no orchestrator deadlock), start no session after
  // the breakdown, and the base station must notice via escalations.
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 69;
  cfg.faults.mc_permanent_at = cfg.horizon / 2.0;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Benign);
  EXPECT_EQ(result.fault_stats.mc_breakdowns, 1u);
  EXPECT_EQ(result.fault_stats.mc_repairs, 0u);
  ASSERT_GT(result.trace.sessions.size(), 0u);
  for (const sim::SessionRecord& s : result.trace.sessions) {
    EXPECT_LT(s.start, cfg.faults.mc_permanent_at);
  }
  EXPECT_GT(result.trace.escalations.size(), 0u);
}

TEST(Edge, DelayedEscalationDeadlinesStayInTheFuture) {
  // Escalation-delay faults reschedule base-station deadlines; combined
  // with a permanent charger loss this is the harshest deadline churn the
  // simulator sees.  A deadline tightened into the past would trip the
  // kernel's schedule_at precondition and abort the run — so completing,
  // and every escalation trailing its own triggering request by at least
  // the patience window, is the regression check.
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 70;
  cfg.faults.mc_permanent_at = cfg.horizon * 0.4;
  cfg.faults.escalation_delay_prob = 0.5;
  cfg.faults.escalation_delay_max = 1'800.0;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Benign);
  ASSERT_GT(result.trace.escalations.size(), 0u);
  double previous = 0.0;
  for (const sim::EscalationRecord& e : result.trace.escalations) {
    EXPECT_GE(e.time, previous);  // append-only log stays chronological
    previous = e.time;
    // A node's requests are serialized, so the latest request at or before
    // the escalation is the one that went unserved.
    double request_time = -1.0;
    for (const sim::RequestRecord& r : result.trace.requests) {
      if (r.node == e.node && r.time <= e.time + 1e-9) {
        request_time = std::max(request_time, r.time);
      }
    }
    ASSERT_GE(request_time, 0.0) << "escalation without a request";
    EXPECT_GE(e.time, request_time + cfg.world.patience - 1e-6);
  }
}

TEST(Edge, DeterministicAcrossFleetRuns) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 68;
  cfg.fleet_size = 3;
  cfg.fleet_compromised = 1;
  const analysis::ScenarioResult a =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  const analysis::ScenarioResult b =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);
  EXPECT_EQ(a.trace.sessions.size(), b.trace.sessions.size());
  EXPECT_EQ(a.report.keys_dead, b.report.keys_dead);
}

}  // namespace
}  // namespace wrsn
