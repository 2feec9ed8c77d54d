// Golden digests of vehicle paths no other golden covers: every benign
// dispatch policy, the naive attack modes, and fleet handoffs in both
// directions.  The values were captured from the separate honest and
// attacker agents that mc::Vehicle replaced, so they pin that the merge
// changed no behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "common/fnv.hpp"
#include "core/orchestrator.hpp"
#include "mc/fleet.hpp"
#include "mc/vehicle.hpp"
#include "net/topology.hpp"

namespace wrsn {
namespace {

using analysis::ChargerMode;
using analysis::ScenarioConfig;
using analysis::ScenarioResult;

/// Activity-dense 12 h mission: requests, sessions and deaths all happen at
/// test-sized cost.
ScenarioConfig dense(std::uint64_t seed) {
  ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = seed;
  cfg.topology.node_count = 36;
  cfg.topology.region = {{0.0, 0.0}, {240.0, 240.0}};
  cfg.topology.battery_capacity = 2'500.0;
  cfg.world.drain.sensing_power = 0.05;
  cfg.world.initial_level_min = 0.4;
  cfg.world.initial_level_max = 0.55;
  cfg.world.patience = 5'400.0;
  cfg.horizon = 43'200.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  cfg.attack.key_selection.max_count = 6;
  return cfg;
}

/// digest_result plus what it leaves out: the neighbour probe and expected
/// gain of every session, and both energy ledgers.
std::uint64_t mission_digest(const ScenarioResult& result) {
  Fnv fnv;
  fnv.mix(analysis::digest_result(result));
  for (const sim::SessionRecord& s : result.trace.sessions) {
    fnv.mix(s.expected_gain);
    fnv.mix(s.rf_neighbor_probe);
    fnv.mix(s.nearest_probe_distance);
  }
  for (const mc::EnergyLedger* l : {&result.ledger, &result.fleet_ledger}) {
    fnv.mix(l->travel);
    fnv.mix(l->radiated_genuine);
    fnv.mix(l->radiated_spoofed);
    fnv.mix(l->drawn_for_radiation);
  }
  return fnv.hash();
}

struct GoldenCase {
  const char* name;
  ChargerMode mode;
  ScenarioConfig config;
  std::uint64_t digest;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const auto add = [&](const char* name, ChargerMode mode,
                       ScenarioConfig cfg, std::uint64_t digest) {
    cases.push_back({name, mode, std::move(cfg), digest});
  };

  ScenarioConfig tour = dense(81);
  tour.benign.policy = mc::SchedulePolicy::Tour;
  tour.faults.mc_breakdown_mtbf = 15'000.0;
  add("benign-tour", ChargerMode::Benign, tour,
      5252856793934916301ull);

  ScenarioConfig edf = dense(82);
  edf.benign.policy = mc::SchedulePolicy::Edf;
  add("benign-edf", ChargerMode::Benign, edf,
      12727086920847086593ull);

  ScenarioConfig fcfs = dense(83);
  fcfs.benign.policy = mc::SchedulePolicy::Fcfs;
  fcfs.faults.phase_noise_mtbf = 8'000.0;  // absorbed: no emitter
  add("benign-fcfs", ChargerMode::Benign, fcfs,
      13438690012325523465ull);

  ScenarioConfig njnp = dense(84);
  njnp.benign.preempt_travel = false;
  add("benign-njnp-no-preempt", ChargerMode::Benign, njnp,
      4551288751198778241ull);

  ScenarioConfig silent = dense(85);
  silent.attack.spoof_mode = csa::SpoofMode::SilentSkip;
  add("attack-silent-skip", ChargerMode::Attack, silent,
      6784276026461753709ull);

  ScenarioConfig starve = dense(86);
  starve.attack.spoof_mode = csa::SpoofMode::NoService;
  add("attack-no-service", ChargerMode::Attack, starve,
      15216505989563734119ull);

  // Member 0 dies for good; its cell is handed to members 1 and 2.
  ScenarioConfig honest_fleet = dense(87);
  honest_fleet.fleet_size = 3;
  honest_fleet.faults.mc_permanent_at = 0.3 * honest_fleet.horizon;
  add("honest-fleet-3-handoff", ChargerMode::Benign, honest_fleet,
      3204357758095674187ull);

  // MC faults hit the compromised member: the attacker dies for good and
  // the honest members adopt its cell.
  ScenarioConfig lost_attacker = dense(88);
  lost_attacker.fleet_size = 3;
  lost_attacker.fleet_compromised = 1;
  lost_attacker.faults.mc_permanent_at = 0.3 * lost_attacker.horizon;
  add("attack-fleet-3-attacker-lost", ChargerMode::Attack, lost_attacker,
      1960062254220547629ull);

  // Phase-noise windows reach the fleet attacker's emitter.
  ScenarioConfig noisy = dense(89);
  noisy.fleet_size = 2;
  noisy.fleet_compromised = 0;
  noisy.faults.phase_noise_mtbf = 8'000.0;
  noisy.faults.mc_breakdown_mtbf = 15'000.0;
  add("attack-fleet-2-phase-noise", ChargerMode::Attack, noisy,
      1305696076819771683ull);
  return cases;
}

TEST(MissionGolden, DigestsMatchTheTwoAgentImplementation) {
  for (const GoldenCase& golden : golden_cases()) {
    EXPECT_EQ(mission_digest(analysis::run_mission(golden.config,
                                                   golden.mode)),
              golden.digest)
        << golden.name;
  }
}

/// A 3-vehicle attack fleet (member 1 compromised) whose honest member 0 is
/// lost for good at 30 % of the horizon; members 1 and 2 split its cell by
/// nearest depot, so the compromised survivor adopts part of it.  MC faults
/// only ever hit the compromised member inside run_mission, so this path is
/// composed by hand.
ScenarioResult run_lost_honest_member(std::uint64_t seed) {
  const ScenarioConfig cfg = dense(seed);
  Rng rng(cfg.seed);
  Rng topo_rng = rng.fork("topology");
  net::Network network = net::generate_topology(cfg.topology, topo_rng);
  const std::vector<geom::Vec2> depots =
      mc::default_depots(cfg.topology.region, 3);
  const auto cells = mc::partition_by_depot(network, depots);

  sim::Simulator simulator;
  sim::World world(simulator, std::move(network), cfg.world,
                   rng.fork("world"));
  const csa::CsaPlanner planner;

  mc::AgentParams lost_params = cfg.benign;
  lost_params.charger.depot = depots[0];
  lost_params.territory = cells[0];
  mc::Vehicle lost(world, lost_params);
  lost.start();
  csa::AttackParams attack_params = cfg.attack;
  attack_params.charger.depot = depots[1];
  attack_params.territory = cells[1];
  auto strategy = std::make_unique<csa::CsaStrategy>(
      world, attack_params, planner, rng.fork("attack-1"));
  const csa::CsaStrategy& csa = *strategy;
  mc::Vehicle attacker(world, attack_params.charger,
                       attack_params.battery_reserve_fraction,
                       attack_params.territory, std::move(strategy));
  attacker.start();
  mc::AgentParams survivor_params = cfg.benign;
  survivor_params.charger.depot = depots[2];
  survivor_params.territory = cells[2];
  mc::Vehicle survivor(world, survivor_params);
  survivor.start();

  std::size_t adopted_by_attacker = 0;
  simulator.schedule_at(0.3 * cfg.horizon, [&] {
    lost.fault_breakdown(0.1, /*permanent=*/true);
    const geom::Vec2 survivor_depots[] = {depots[1], depots[2]};
    std::vector<net::NodeId> to_attacker, to_survivor;
    for (const net::NodeId id : cells[0]) {
      (mc::nearest_depot(world.network().node(id).position,
                         survivor_depots) == 0
           ? to_attacker
           : to_survivor)
          .push_back(id);
    }
    adopted_by_attacker = to_attacker.size();
    attacker.adopt_territory(to_attacker);
    survivor.adopt_territory(to_survivor);
  });
  simulator.run_until(cfg.horizon);
  EXPECT_GT(adopted_by_attacker, 0u);

  ScenarioResult result;
  result.keys = csa.key_targets();
  result.alive_at_end = world.alive_count();
  result.plans_computed = csa.plans_computed();
  result.events_executed = simulator.executed();
  result.ledger = attacker.charger().ledger();
  for (const mc::EnergyLedger* l :
       {&lost.charger().ledger(), &survivor.charger().ledger(),
        &attacker.charger().ledger()}) {
    result.fleet_ledger.travel += l->travel;
    result.fleet_ledger.radiated_genuine += l->radiated_genuine;
    result.fleet_ledger.radiated_spoofed += l->radiated_spoofed;
    result.fleet_ledger.drawn_for_radiation += l->drawn_for_radiation;
  }
  result.trace = std::move(world.trace());
  return result;
}

TEST(MissionGolden, CompromisedSurvivorAdoptsPartOfALostHonestCell) {
  const ScenarioResult result = run_lost_honest_member(90);
  EXPECT_GT(result.trace.sessions.size(), 0u);
  EXPECT_EQ(mission_digest(result), 3723688406169312552ull);
}

}  // namespace
}  // namespace wrsn
