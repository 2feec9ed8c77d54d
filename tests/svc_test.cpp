// Mission service: canonical scenario digest, LRU cache core, coalescing,
// admission control, batch submission, auto-seed streams, wire protocol,
// and the socket server round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "analysis/config_io.hpp"
#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "common/check.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "svc/cache.hpp"
#include "svc/digest.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace wrsn::svc {
namespace {

/// Small, activity-dense mission that finishes in a few milliseconds —
/// service tests run dozens of them.
analysis::ScenarioConfig quick_scenario(std::uint64_t seed) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = seed;
  cfg.topology.node_count = 16;
  cfg.topology.region = {{0.0, 0.0}, {160.0, 160.0}};
  cfg.topology.battery_capacity = 2'000.0;
  cfg.world.drain.sensing_power = 0.05;
  cfg.world.initial_level_min = 0.35;
  cfg.world.initial_level_max = 0.55;
  cfg.world.patience = 2'400.0;
  cfg.horizon = 10'800.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  return cfg;
}

MissionRequest quick_request(std::uint64_t seed) {
  MissionRequest request;
  request.config = quick_scenario(seed);
  return request;
}

std::string quick_repro(std::uint64_t seed) {
  analysis::FuzzOverrides o;
  o["mode"] = "attack";
  o["seed"] = std::to_string(seed);
  o["topology.node_count"] = "16";
  o["topology.region_size"] = "160";
  o["topology.battery_capacity"] = "2000";
  o["world.sensing_power"] = "0.05";
  o["world.initial_level_min"] = "0.35";
  o["world.initial_level_max"] = "0.55";
  o["world.patience"] = "2400";
  o["horizon"] = "10800";
  return analysis::format_repro(o);
}

bool same_outcome(const MissionOutcome& a, const MissionOutcome& b) {
  return std::memcmp(&a, &b, sizeof(MissionOutcome)) == 0;
}

// ---------------------------------------------------------------------------
// Scenario digest
// ---------------------------------------------------------------------------

TEST(ScenarioDigest, OrderInvariantAcrossOverrideOrderings) {
  // parse_repro yields a sorted map either way; the point pinned here is
  // that two differently-ordered descriptions of one scenario digest
  // identically once resolved.
  const std::string forward =
      "horizon=10800;mode=attack;seed=7;topology.node_count=20";
  const std::string reversed =
      "topology.node_count=20;seed=7;mode=attack;horizon=10800";
  const auto [cfg_a, mode_a] =
      analysis::resolve_overrides(analysis::parse_repro(forward));
  const auto [cfg_b, mode_b] =
      analysis::resolve_overrides(analysis::parse_repro(reversed));
  EXPECT_EQ(scenario_digest(cfg_a, mode_a), scenario_digest(cfg_b, mode_b));
}

TEST(ScenarioDigest, SeedIsExcluded) {
  analysis::ScenarioConfig a = quick_scenario(1);
  analysis::ScenarioConfig b = quick_scenario(999);
  EXPECT_EQ(scenario_digest(a, analysis::ChargerMode::Attack),
            scenario_digest(b, analysis::ChargerMode::Attack));
}

TEST(ScenarioDigest, ModeIsIncluded) {
  const analysis::ScenarioConfig cfg = quick_scenario(1);
  EXPECT_NE(scenario_digest(cfg, analysis::ChargerMode::Attack),
            scenario_digest(cfg, analysis::ChargerMode::Benign));
}

TEST(ScenarioDigest, EveryMutatedFieldChangesTheDigest) {
  const analysis::ScenarioConfig base = quick_scenario(1);
  const std::uint64_t base_digest =
      scenario_digest(base, analysis::ChargerMode::Attack);

  // EVERY field the digest walks, one mutation each.  When a field is added
  // to a config struct, digest.cpp must gain a mixer and this sweep a line —
  // a forgotten mixer makes the mission cache serve stale results for
  // configs that differ only in that field.
  std::vector<std::pair<const char*, analysis::ScenarioConfig>> mutants;
  auto add = [&](const char* name, auto&& mutate) {
    analysis::ScenarioConfig cfg = base;
    mutate(cfg);
    mutants.emplace_back(name, cfg);
  };

  // --- topology ---
  add("topology.region.lo.x", [](auto& c) { c.topology.region.lo.x -= 1.0; });
  add("topology.region.lo.y", [](auto& c) { c.topology.region.lo.y -= 1.0; });
  add("topology.region.hi.x", [](auto& c) { c.topology.region.hi.x += 1.0; });
  add("topology.region.hi.y", [](auto& c) { c.topology.region.hi.y += 1.0; });
  add("topology.node_count", [](auto& c) { c.topology.node_count += 1; });
  add("topology.comm_range", [](auto& c) { c.topology.comm_range += 1.0; });
  add("topology.deployment",
      [](auto& c) { c.topology.deployment = net::Deployment::Grid; });
  add("topology.sink_at_center", [](auto& c) {
    c.topology.sink_at_center = false;
    c.topology.sink_position = {1.0, 1.0};
  });
  add("topology.sink_position.x",
      [](auto& c) { c.topology.sink_position.x += 1.0; });
  add("topology.sink_position.y",
      [](auto& c) { c.topology.sink_position.y += 1.0; });
  add("topology.mean_data_rate_bps",
      [](auto& c) { c.topology.mean_data_rate_bps += 10.0; });
  add("topology.battery_capacity",
      [](auto& c) { c.topology.battery_capacity += 100.0; });
  add("topology.min_separation",
      [](auto& c) { c.topology.min_separation += 0.5; });
  add("topology.cluster_count", [](auto& c) { c.topology.cluster_count += 1; });
  add("topology.cluster_sigma_fraction",
      [](auto& c) { c.topology.cluster_sigma_fraction += 0.01; });
  add("topology.cluster_background_fraction",
      [](auto& c) { c.topology.cluster_background_fraction += 0.01; });
  add("topology.corridor_count",
      [](auto& c) { c.topology.corridor_count += 1; });
  add("topology.class_count", [](auto& c) { c.topology.class_count += 1; });
  add("topology.class_capacity_ratio",
      [](auto& c) { c.topology.class_capacity_ratio += 0.5; });
  add("topology.class_rate_ratio",
      [](auto& c) { c.topology.class_rate_ratio += 0.5; });
  add("topology.max_attempts", [](auto& c) { c.topology.max_attempts += 1; });

  // --- world ---
  add("world.request_threshold",
      [](auto& c) { c.world.request_threshold += 0.01; });
  add("world.min_request_gap", [](auto& c) { c.world.min_request_gap += 1.0; });
  add("world.patience", [](auto& c) { c.world.patience += 60.0; });
  add("world.charge_target_fraction",
      [](auto& c) { c.world.charge_target_fraction -= 0.01; });
  add("world.benign_gain_mean",
      [](auto& c) { c.world.benign_gain_mean += 0.01; });
  add("world.benign_gain_cv", [](auto& c) { c.world.benign_gain_cv += 0.01; });
  add("world.initial_level_min",
      [](auto& c) { c.world.initial_level_min += 0.01; });
  add("world.initial_level_max",
      [](auto& c) { c.world.initial_level_max -= 0.01; });
  add("world.emergency_enabled",
      [](auto& c) { c.world.emergency_enabled = !c.world.emergency_enabled; });
  add("world.emergency_fraction",
      [](auto& c) { c.world.emergency_fraction += 0.01; });
  add("world.emergency_patience",
      [](auto& c) { c.world.emergency_patience += 60.0; });
  add("world.hardware_mtbf", [](auto& c) { c.world.hardware_mtbf += 3'600.0; });
  add("world.update_mode", [](auto& c) {
    c.world.update_mode = c.world.update_mode == sim::WorldUpdateMode::Fast
                              ? sim::WorldUpdateMode::Reference
                              : sim::WorldUpdateMode::Fast;
  });
  add("world.charging.source_power",
      [](auto& c) { c.world.charging.source_power += 1.0; });
  add("world.charging.gain_product",
      [](auto& c) { c.world.charging.gain_product += 0.1; });
  add("world.charging.beta", [](auto& c) { c.world.charging.beta += 0.1; });
  add("world.charging.max_range",
      [](auto& c) { c.world.charging.max_range += 0.5; });
  add("world.charging.dock_distance",
      [](auto& c) { c.world.charging.dock_distance += 0.1; });
  add("world.charging.wavelength",
      [](auto& c) { c.world.charging.wavelength += 0.01; });
  add("world.rectifier.sensitivity",
      [](auto& c) { c.world.charging.rectifier.sensitivity += 1e-4; });
  add("world.rectifier.max_efficiency",
      [](auto& c) { c.world.charging.rectifier.max_efficiency -= 0.01; });
  add("world.rectifier.knee",
      [](auto& c) { c.world.charging.rectifier.knee += 0.01; });
  add("world.rectifier.dc_cap",
      [](auto& c) { c.world.charging.rectifier.dc_cap += 0.1; });
  add("world.routing.hop_cost",
      [](auto& c) { c.world.routing.hop_cost += 1.0; });
  add("world.drain.sensing_power",
      [](auto& c) { c.world.drain.sensing_power += 1e-3; });
  add("world.drain.radio.e_elec",
      [](auto& c) { c.world.drain.radio.e_elec += 1e-9; });
  add("world.drain.radio.e_amp",
      [](auto& c) { c.world.drain.radio.e_amp += 1e-12; });
  add("world.mobility.fraction",
      [](auto& c) { c.world.mobility.fraction += 0.1; });
  add("world.mobility.interval",
      [](auto& c) { c.world.mobility.interval += 60.0; });
  add("world.mobility.speed_min",
      [](auto& c) { c.world.mobility.speed_min += 0.1; });
  add("world.mobility.speed_max",
      [](auto& c) { c.world.mobility.speed_max += 0.1; });
  add("world.mobility.pause_min",
      [](auto& c) { c.world.mobility.pause_min += 10.0; });
  add("world.mobility.pause_max",
      [](auto& c) { c.world.mobility.pause_max += 10.0; });
  add("world.coverage.k", [](auto& c) { c.world.coverage.k += 1; });
  add("world.coverage.radius", [](auto& c) { c.world.coverage.radius += 5.0; });
  add("world.coverage.bonus", [](auto& c) { c.world.coverage.bonus += 0.1; });

  // --- attack (mix_charger is covered field-by-field through this copy) ---
  add("attack.charger.depot.x",
      [](auto& c) { c.attack.charger.depot.x += 1.0; });
  add("attack.charger.depot.y",
      [](auto& c) { c.attack.charger.depot.y += 1.0; });
  add("attack.charger.speed", [](auto& c) { c.attack.charger.speed += 0.1; });
  add("attack.charger.battery_capacity",
      [](auto& c) { c.attack.charger.battery_capacity += 100.0; });
  add("attack.charger.travel_cost_per_meter",
      [](auto& c) { c.attack.charger.travel_cost_per_meter += 0.1; });
  add("attack.charger.pa_efficiency",
      [](auto& c) { c.attack.charger.pa_efficiency -= 0.01; });
  add("attack.charger.depot_recharge_power",
      [](auto& c) { c.attack.charger.depot_recharge_power += 1.0; });
  add("attack.key_rule", [](auto& c) {
    c.attack.key_selection.rule = net::KeyNodeRule::TopTraffic;
  });
  add("attack.key_count", [](auto& c) { c.attack.key_selection.max_count++; });
  add("attack.key_min_disconnect",
      [](auto& c) { c.attack.key_selection.min_disconnect += 1; });
  add("attack.spoofing.antenna_separation",
      [](auto& c) { c.attack.spoofing.antenna_separation += 0.01; });
  add("attack.spoofing.phase_jitter_sigma",
      [](auto& c) { c.attack.spoofing.phase_jitter_sigma += 0.01; });
  add("attack.spoofing.amplitude_imbalance",
      [](auto& c) { c.attack.spoofing.amplitude_imbalance += 0.01; });
  add("attack.spoof_mode", [](auto& c) {
    c.attack.spoof_mode = c.attack.spoof_mode == csa::SpoofMode::NoService
                              ? csa::SpoofMode::PhaseCancel
                              : csa::SpoofMode::NoService;
  });
  add("attack.partial_leak_ratio",
      [](auto& c) { c.attack.partial_leak_ratio += 0.01; });
  add("attack.window_margin", [](auto& c) { c.attack.window_margin += 60.0; });
  add("attack.lookahead", [](auto& c) { c.attack.lookahead += 60.0; });
  add("attack.campaign_deadline",
      [](auto& c) { c.attack.campaign_deadline += 60.0; });
  add("attack.campaign_slack",
      [](auto& c) { c.attack.campaign_slack += 60.0; });
  add("attack.pace_limit", [](auto& c) { c.attack.pace_limit += 1; });
  add("attack.pace_window", [](auto& c) { c.attack.pace_window += 60.0; });
  add("attack.comm_antenna_offset",
      [](auto& c) { c.attack.comm_antenna_offset += 0.01; });
  add("attack.battery_reserve_fraction",
      [](auto& c) { c.attack.battery_reserve_fraction += 0.01; });
  add("attack.territory", [](auto& c) { c.attack.territory.push_back(3); });

  // --- benign ---
  add("benign.charger.speed", [](auto& c) { c.benign.charger.speed += 0.1; });
  add("benign.policy", [](auto& c) {
    c.benign.policy = c.benign.policy == mc::SchedulePolicy::Fcfs
                          ? mc::SchedulePolicy::Edf
                          : mc::SchedulePolicy::Fcfs;
  });
  add("benign.preempt_travel",
      [](auto& c) { c.benign.preempt_travel = !c.benign.preempt_travel; });
  add("benign.battery_reserve_fraction",
      [](auto& c) { c.benign.battery_reserve_fraction += 0.01; });
  add("benign.territory", [](auto& c) { c.benign.territory.push_back(3); });
  add("benign.tour_batch", [](auto& c) { c.benign.tour_batch += 1; });
  add("benign.tour_max_wait",
      [](auto& c) { c.benign.tour_max_wait += 60.0; });

  // --- faults ---
  add("faults.mc_breakdown_mtbf",
      [](auto& c) { c.faults.mc_breakdown_mtbf = 9'999.0; });
  add("faults.mc_repair_mean",
      [](auto& c) { c.faults.mc_repair_mean += 60.0; });
  add("faults.mc_budget_loss",
      [](auto& c) { c.faults.mc_budget_loss += 0.05; });
  add("faults.mc_permanent_at",
      [](auto& c) { c.faults.mc_permanent_at = 7'200.0; });
  add("faults.node_burst_mtbf",
      [](auto& c) { c.faults.node_burst_mtbf = 9'999.0; });
  add("faults.node_burst_size", [](auto& c) { c.faults.node_burst_size += 1; });
  add("faults.phase_noise_mtbf",
      [](auto& c) { c.faults.phase_noise_mtbf = 9'999.0; });
  add("faults.phase_noise_duration",
      [](auto& c) { c.faults.phase_noise_duration += 60.0; });
  add("faults.phase_noise_scale",
      [](auto& c) { c.faults.phase_noise_scale += 1.0; });
  add("faults.escalation_drop_prob",
      [](auto& c) { c.faults.escalation_drop_prob = 0.25; });
  add("faults.escalation_delay_prob",
      [](auto& c) { c.faults.escalation_delay_prob = 0.25; });
  add("faults.escalation_delay_max",
      [](auto& c) { c.faults.escalation_delay_max += 60.0; });
  add("faults.battery_drift_mtbf",
      [](auto& c) { c.faults.battery_drift_mtbf = 9'999.0; });
  add("faults.battery_drift_power",
      [](auto& c) { c.faults.battery_drift_power += 1e-3; });
  add("faults.battery_drift_duration",
      [](auto& c) { c.faults.battery_drift_duration += 60.0; });

  // --- top level ---
  add("horizon", [](auto& c) { c.horizon += 60.0; });
  add("hardened_detectors", [](auto& c) { c.hardened_detectors = true; });
  add("fleet_size", [](auto& c) { c.fleet_size = 2; });
  add("fleet_compromised", [](auto& c) {
    c.fleet_size = 3;
    c.fleet_compromised = 1;
  });

  // --- policy ---
  add("policy.attacker.kind", [](auto& c) {
    c.policy.attacker.kind = policy::AttackPolicyKind::Ucb;
  });
  add("policy.attacker.epsilon",
      [](auto& c) { c.policy.attacker.epsilon += 0.05; });
  add("policy.attacker.ucb_c", [](auto& c) { c.policy.attacker.ucb_c += 0.5; });
  add("policy.attacker.epoch", [](auto& c) { c.policy.attacker.epoch += 60.0; });
  add("policy.attacker.risk_weight",
      [](auto& c) { c.policy.attacker.risk_weight += 1.0; });
  add("policy.attacker.risk_budget",
      [](auto& c) { c.policy.attacker.risk_budget += 1; });
  add("policy.defender.kind", [](auto& c) {
    c.policy.defender.kind = policy::DefenderPolicyKind::Adaptive;
  });
  add("policy.defender.window",
      [](auto& c) { c.policy.defender.window += 60.0; });
  add("policy.defender.quantile",
      [](auto& c) { c.policy.defender.quantile += 0.5; });
  add("policy.defender.min_samples",
      [](auto& c) { c.policy.defender.min_samples += 1; });

  for (const auto& [name, cfg] : mutants) {
    EXPECT_NE(scenario_digest(cfg, analysis::ChargerMode::Attack), base_digest)
        << "digest blind to " << name;
  }
}

TEST(ScenarioDigest, EveryKeyAndFuzzedConfigIsPinned) {
  // Values captured before the config parser and the digest shared one
  // field list: every key's digest, a fuzzed config set and the CI family
  // repro lines must keep these exact cache keys.
  struct Pin {
    const char* key;
    const char* value;
    std::uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {"topology.node_count", "42", 0x63b6a743eec6c116ull},
      {"topology.comm_range", "58.5", 0xe817dd11f2d896f5ull},
      {"topology.region_size", "320", 0xdd1250c2462dae84ull},
      {"topology.mean_data_rate_bps", "9000", 0x1d2b50e79a844952ull},
      {"topology.battery_capacity", "7200", 0x1797de2728935e79ull},
      {"topology.deployment", "uniform", 0xc13fa63368b315a4ull},
      {"topology.deployment", "grid", 0x1a826c00e9688291ull},
      {"topology.deployment", "clustered", 0x9f604e90832aa80aull},
      {"topology.deployment", "corridor", 0x50b914329c1b254full},
      {"topology.min_separation", "4", 0x408a1fa33bc3fed4ull},
      {"topology.corridor_count", "2", 0xf7ad4786e8967fd1ull},
      {"topology.class_count", "3", 0xd967895063060ef2ull},
      {"topology.class_capacity_ratio", "2.5", 0xd93e3c5701cf0829ull},
      {"topology.class_rate_ratio", "1.5", 0x43c5da6618706afcull},
      {"mobility.fraction", "0.25", 0xe47218bb7f78daddull},
      {"mobility.interval", "1200", 0x6c07b4e4774dfa8eull},
      {"mobility.speed_min", "0.8", 0xc6fc083db39d1174ull},
      {"mobility.speed_max", "2", 0x715f669e319e7405ull},
      {"mobility.pause_min", "30", 0x11840026c60613aeull},
      {"mobility.pause_max", "300", 0xbf0978ed7970a0d4ull},
      {"coverage.k", "2", 0xed23eb504fa01462ull},
      {"coverage.radius", "55", 0x244ec8bda60f24bfull},
      {"coverage.bonus", "1.5", 0x40993c4cf7860c8cull},
      {"world.request_threshold", "0.25", 0x3a280e68902190c1ull},
      {"world.patience", "5400", 0x14567f806473f6b4ull},
      {"world.min_request_gap", "600", 0x4d46015a2d775d54ull},
      {"world.hardware_mtbf", "8640000", 0x2cc6bb2332f5b672ull},
      {"world.emergency_enabled", "true", 0x022324ddafc27f41ull},
      {"world.sensing_power", "0.05", 0x52fdb5afccac1e3bull},
      {"world.initial_level_min", "0.6", 0x5280cbd4ff130931ull},
      {"world.initial_level_max", "0.9", 0x7931a7d195d5ca25ull},
      {"world.source_power", "8", 0xcfc2ad4934e253d8ull},
      {"benign.policy", "njnp", 0xc13fa63368b315a4ull},
      {"benign.policy", "edf", 0x64c31070b7cbb731ull},
      {"benign.policy", "fcfs", 0xcbddf3b74ad03e3aull},
      {"benign.policy", "tour", 0x88c2cc3634002eefull},
      {"benign.speed", "4.5", 0xab94d30721289946ull},
      {"attack.spoof_mode", "phase-cancel", 0xc13fa63368b315a4ull},
      {"attack.spoof_mode", "partial-cancel", 0x9de533cf6c935bf9ull},
      {"attack.spoof_mode", "silent-skip", 0xbff4565e0725f252ull},
      {"attack.spoof_mode", "no-service", 0x3bc0f23f6117ea5full},
      {"attack.key_rule", "articulation", 0x546b15603d260632ull},
      {"attack.key_rule", "top-traffic", 0xd814c42becb85f4full},
      {"attack.key_rule", "hybrid", 0xc13fa63368b315a4ull},
      {"attack.key_count", "6", 0xac8571ca2f250fd0ull},
      {"attack.pace_limit", "5", 0x1466aeb09a62bbd2ull},
      {"attack.pace_window", "50000", 0x8208dad831e58c54ull},
      {"attack.partial_leak_ratio", "0.3", 0xf33630b016495894ull},
      {"attack.lookahead", "7200", 0xcad3a3dba6672fb4ull},
      {"faults.mc_breakdown_mtbf", "36000", 0x0c781fea7760cd31ull},
      {"faults.mc_repair_mean", "1800", 0x97781dcd0cd48b14ull},
      {"faults.mc_budget_loss", "0.2", 0x6b0b8464e049f8f4ull},
      {"faults.mc_permanent_at", "43200", 0x1d873f65f64ef405ull},
      {"faults.node_burst_mtbf", "36000", 0x3b759be3a5c56885ull},
      {"faults.node_burst_size", "3", 0x96bafd3ee7d17591ull},
      {"faults.phase_noise_mtbf", "7200", 0xfff39027cd71f0e0ull},
      {"faults.phase_noise_duration", "1200", 0x8fd303fbe4564adaull},
      {"faults.phase_noise_scale", "10", 0x7fe2e9e58d6ae815ull},
      {"faults.escalation_drop_prob", "0.25", 0x4fcbcaf0e7aaa0b1ull},
      {"faults.escalation_delay_prob", "0.5", 0x0bc06a48c0613c01ull},
      {"faults.escalation_delay_max", "900", 0x68e9337c638dfaf4ull},
      {"faults.battery_drift_mtbf", "7200", 0x63e5a73788be2560ull},
      {"faults.battery_drift_power", "0.004", 0x70e2b88e47d75dc8ull},
      {"faults.battery_drift_duration", "3600", 0x68986834bc550430ull},
      {"fleet.size", "3", 0x8969ebf5445ce7feull},
      {"fleet.compromised", "1", 0x1fd7e168f94fb7d5ull},
      {"policy.attacker", "static", 0xc13fa63368b315a4ull},
      {"policy.attacker", "eps-greedy", 0x72d944ddea34094dull},
      {"policy.attacker", "ucb", 0xb90104a2fc9ad27eull},
      {"policy.epsilon", "0.2", 0xd147953abd1af4b4ull},
      {"policy.ucb_c", "1.5", 0x054a0da1844f8f55ull},
      {"policy.epoch", "7200", 0x7b880a898614f9ddull},
      {"policy.risk_weight", "3", 0x906db3756f8a551cull},
      {"policy.risk_budget", "4", 0x85114f87ec6f45e3ull},
      {"policy.defender", "static", 0xc13fa63368b315a4ull},
      {"policy.defender", "adaptive", 0xf117ac9f64dcd835ull},
      {"policy.defender_window", "7200", 0xe47539046a0de36dull},
      {"policy.defender_quantile", "2", 0x8668ae4f833427ecull},
      {"policy.defender_min_samples", "3", 0xe03a6d3c73a25fc5ull},
      {"horizon", "172800", 0x0a125357f7a6d4c0ull},
      {"hardened_detectors", "true", 0x61e6106e65f65d75ull},
  };
  const analysis::ScenarioConfig base = analysis::default_scenario();
  std::set<std::string> keys;
  for (const Pin& pin : kPins) {
    keys.insert(pin.key);
    const analysis::ScenarioConfig cfg =
        analysis::apply_config(base, {{pin.key, pin.value}});
    EXPECT_EQ(scenario_digest(cfg, analysis::ChargerMode::Attack), pin.digest)
        << pin.key << '=' << pin.value;
  }
  // The seed is not digested; the key sets the field itself.
  keys.insert("seed");
  EXPECT_EQ(analysis::apply_config(base, {{"seed", "77"}}).seed, 77u);
  EXPECT_EQ(keys.size(), 68u);

  Rng gen(2024);
  Fnv fold;
  for (int i = 0; i < 2'000; ++i) {
    const auto [cfg, mode] =
        analysis::resolve_overrides(analysis::generate_fuzz_overrides(gen));
    fold.mix(scenario_digest(cfg, mode));
    fold.mix(cfg.seed);
  }
  EXPECT_EQ(fold.hash(), 0xd66f42f03ee91ad4ull);

  // The three family replays of the CI fuzz-smoke job.
  const std::pair<const char*, std::uint64_t> kFamilies[] = {
      {"mode=attack;seed=4242;topology.node_count=36"
       ";topology.region_size=240;topology.class_count=3"
       ";topology.class_capacity_ratio=2;horizon=43200"
       ";topology.battery_capacity=2500;world.sensing_power=0.05"
       ";world.initial_level_min=0.4;world.initial_level_max=0.55"
       ";world.patience=5400;mobility.fraction=0.2"
       ";mobility.interval=1800;mobility.speed_max=2"
       ";world.emergency_enabled=true",
       0x7133fe3d15bcadfbull},
      {"mode=benign;seed=1717;topology.node_count=32"
       ";topology.region_size=226;topology.deployment=corridor"
       ";topology.corridor_count=2;horizon=43200"
       ";topology.battery_capacity=2500;world.sensing_power=0.05"
       ";world.initial_level_min=0.4;world.initial_level_max=0.55"
       ";world.patience=5400;coverage.k=2;coverage.bonus=1.5"
       ";coverage.radius=70",
       0xb07d7689542e7f45ull},
      {"mode=attack;seed=909;topology.node_count=36"
       ";topology.region_size=240;horizon=43200"
       ";topology.battery_capacity=2500;world.sensing_power=0.05"
       ";world.initial_level_min=0.4;world.initial_level_max=0.55"
       ";world.patience=5400;attack.key_count=6;policy.attacker=ucb"
       ";policy.epsilon=0.2;policy.ucb_c=1.5;policy.epoch=7200"
       ";policy.risk_weight=2;policy.risk_budget=3"
       ";policy.defender=adaptive;policy.defender_window=7200"
       ";policy.defender_quantile=2;policy.defender_min_samples=2",
       0x277e28e8154dfc77ull},
  };
  for (const auto& [line, digest] : kFamilies) {
    const auto [cfg, mode] =
        analysis::resolve_overrides(analysis::parse_repro(line));
    EXPECT_EQ(scenario_digest(cfg, mode), digest) << line;
  }
}

// ---------------------------------------------------------------------------
// LruCore
// ---------------------------------------------------------------------------

MissionResponse response_for(std::uint64_t tag) {
  MissionResponse r;
  r.status = MissionStatus::kOk;
  r.outcome.result_digest = tag;
  return r;
}

TEST(LruCore, InsertLookupRoundTrip) {
  LruCore cache;
  cache.init(4);
  EXPECT_EQ(cache.capacity(), 4u);
  const MissionKey key{42, 7};
  EXPECT_TRUE(cache.insert(key, response_for(1)) == false);  // no eviction
  MissionResponse out;
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out.outcome.result_digest, 1u);
  EXPECT_FALSE(cache.lookup(MissionKey{42, 8}, out));
  EXPECT_FALSE(cache.lookup(MissionKey{43, 7}, out));
}

TEST(LruCore, EvictsLeastRecentlyUsed) {
  LruCore cache;
  cache.init(3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(cache.insert(MissionKey{i, 0}, response_for(i)));
  }
  // Touch key 0 so key 1 becomes the LRU entry.
  MissionResponse out;
  ASSERT_TRUE(cache.lookup(MissionKey{0, 0}, out));
  EXPECT_TRUE(cache.insert(MissionKey{3, 0}, response_for(3)));  // evicts 1
  EXPECT_FALSE(cache.lookup(MissionKey{1, 0}, out));
  EXPECT_TRUE(cache.lookup(MissionKey{0, 0}, out));
  EXPECT_TRUE(cache.lookup(MissionKey{2, 0}, out));
  EXPECT_TRUE(cache.lookup(MissionKey{3, 0}, out));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCore, RefreshTouchesRecencyWithoutEviction) {
  LruCore cache;
  cache.init(2);
  cache.insert(MissionKey{1, 0}, response_for(1));
  cache.insert(MissionKey{2, 0}, response_for(2));
  // Re-inserting key 1 must not evict; it becomes MRU, so inserting key 3
  // evicts key 2.
  EXPECT_FALSE(cache.insert(MissionKey{1, 0}, response_for(1)));
  EXPECT_TRUE(cache.insert(MissionKey{3, 0}, response_for(3)));
  MissionResponse out;
  EXPECT_TRUE(cache.lookup(MissionKey{1, 0}, out));
  EXPECT_FALSE(cache.lookup(MissionKey{2, 0}, out));
}

TEST(LruCore, ZeroCapacityDisables) {
  LruCore cache;
  cache.init(0);
  EXPECT_FALSE(cache.insert(MissionKey{1, 0}, response_for(1)));
  MissionResponse out;
  EXPECT_FALSE(cache.lookup(MissionKey{1, 0}, out));
}

// ---------------------------------------------------------------------------
// MissionService
// ---------------------------------------------------------------------------

ServiceOptions quick_options(std::size_t threads = 2) {
  ServiceOptions opt;
  opt.threads = threads;
  opt.cache_capacity = 64;
  opt.shards = 4;
  opt.queue_limit = 64;
  return opt;
}

TEST(MissionService, CacheHitIsByteIdenticalToExecution) {
  MissionService service(quick_options());
  const MissionRequest request = quick_request(11);

  const MissionResponse first = service.submit(request);
  ASSERT_EQ(first.status, MissionStatus::kOk);
  EXPECT_EQ(first.route, MissionRoute::kExecuted);
  EXPECT_EQ(first.outcome.seed, 11u);
  EXPECT_GT(first.outcome.events_executed, 0u);

  const MissionResponse second = service.submit(request);
  ASSERT_EQ(second.status, MissionStatus::kOk);
  EXPECT_EQ(second.route, MissionRoute::kCacheHit);
  EXPECT_TRUE(same_outcome(first.outcome, second.outcome));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(MissionService, MatchesStandaloneRun) {
  MissionService service(quick_options());
  const MissionRequest request = quick_request(5);
  const MissionResponse served = service.submit(request);
  ASSERT_EQ(served.status, MissionStatus::kOk);

  const analysis::ScenarioResult direct =
      analysis::run_mission(request.config, request.mode);
  const MissionOutcome expected = make_outcome(
      scenario_digest(request.config, request.mode), 5, direct);
  EXPECT_TRUE(same_outcome(served.outcome, expected));
}

TEST(MissionService, DifferentSeedsExecuteSeparately) {
  MissionService service(quick_options());
  const MissionResponse a = service.submit(quick_request(1));
  const MissionResponse b = service.submit(quick_request(2));
  ASSERT_EQ(a.status, MissionStatus::kOk);
  ASSERT_EQ(b.status, MissionStatus::kOk);
  EXPECT_EQ(a.outcome.scenario_digest, b.outcome.scenario_digest);
  EXPECT_NE(a.outcome.result_digest, b.outcome.result_digest);
  EXPECT_EQ(service.stats().executions, 2u);
}

TEST(MissionService, CoalescesConcurrentDuplicatesOntoOneExecution) {
  MissionService service(quick_options(/*threads=*/1));

  // Park the execution until a duplicate has provably joined the flight.
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  service.set_execution_hook([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  });

  const MissionRequest request = quick_request(21);
  MissionResponse first, second;
  std::thread a([&] { first = service.submit(request); });
  std::thread b([&] { second = service.submit(request); });

  // One of the two created the flight; the other must coalesce onto it.
  while (service.stats().coalesced < 1) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  a.join();
  b.join();

  EXPECT_EQ(first.status, MissionStatus::kOk);
  EXPECT_EQ(second.status, MissionStatus::kOk);
  EXPECT_TRUE(same_outcome(first.outcome, second.outcome));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  // Exactly one of the two routes is the execution; the other joined it.
  EXPECT_TRUE((first.route == MissionRoute::kExecuted &&
               second.route == MissionRoute::kCoalesced) ||
              (first.route == MissionRoute::kCoalesced &&
               second.route == MissionRoute::kExecuted));
}

TEST(MissionService, ShedsDeterministicallyWhenQueueFull) {
  ServiceOptions opt = quick_options(/*threads=*/1);
  opt.queue_limit = 1;
  MissionService service(opt);

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  service.set_execution_hook([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  });

  MissionResponse first;
  std::thread a([&] { first = service.submit(quick_request(1)); });
  while (service.stats().queue_peak < 1) {
    std::this_thread::yield();
  }

  // The queue slot is held by the parked mission: a different scenario must
  // shed — deterministically, the ARRIVING request.
  const MissionResponse shed = service.submit(quick_request(2));
  EXPECT_EQ(shed.status, MissionStatus::kShed);
  EXPECT_EQ(shed.route, MissionRoute::kNone);
  EXPECT_EQ(shed.outcome.seed, 2u);

  // A duplicate of the parked mission coalesces instead of shedding: joins
  // hold no queue slot.
  MissionResponse joined;
  std::thread b([&] { joined = service.submit(quick_request(1)); });
  while (service.stats().coalesced < 1) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  a.join();
  b.join();

  EXPECT_EQ(first.status, MissionStatus::kOk);
  EXPECT_EQ(joined.status, MissionStatus::kOk);
  EXPECT_TRUE(same_outcome(first.outcome, joined.outcome));
  EXPECT_EQ(service.stats().shed, 1u);
  EXPECT_EQ(service.stats().executions, 1u);
}

TEST(MissionService, RejectsAfterShutdown) {
  MissionService service(quick_options());
  service.submit(quick_request(1));
  service.shutdown();
  const MissionResponse resp = service.submit(quick_request(2));
  EXPECT_EQ(resp.status, MissionStatus::kClosed);
  EXPECT_EQ(resp.outcome.seed, 2u);
}

TEST(MissionService, BatchKeepsOrderAndCoalescesDuplicates) {
  MissionService service(quick_options());

  std::vector<MissionRequest> requests;
  for (const std::uint64_t seed : {3u, 1u, 3u, 2u, 1u, 3u}) {
    requests.push_back(quick_request(seed));
  }
  const std::vector<MissionResponse> responses =
      service.submit_batch(requests);
  ASSERT_EQ(responses.size(), requests.size());

  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, MissionStatus::kOk) << "request " << i;
    EXPECT_EQ(responses[i].outcome.seed, requests[i].config.seed);
  }
  // Duplicates inside the batch are byte-identical however they were routed.
  EXPECT_TRUE(same_outcome(responses[0].outcome, responses[2].outcome));
  EXPECT_TRUE(same_outcome(responses[2].outcome, responses[5].outcome));
  EXPECT_TRUE(same_outcome(responses[1].outcome, responses[4].outcome));
  // 3 unique seeds -> exactly 3 executions; the rest hit or coalesced.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executions, 3u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 3u);
  EXPECT_EQ(stats.requests,
            stats.executions + stats.cache_hits + stats.coalesced + stats.shed);
}

TEST(MissionService, AutoSeedStreamsAreDeterministicPerTenant) {
  std::vector<std::uint64_t> tenant1_a, tenant1_b, tenant2;
  for (int round = 0; round < 2; ++round) {
    ServiceOptions opt = quick_options();
    opt.base_seed = 77;
    MissionService service(opt);
    auto run = [&](std::uint64_t tenant) {
      MissionRequest request = quick_request(0);
      request.tenant = tenant;
      request.auto_seed = true;
      return service.submit(request).outcome.seed;
    };
    std::vector<std::uint64_t>& t1 = round == 0 ? tenant1_a : tenant1_b;
    for (int i = 0; i < 3; ++i) t1.push_back(run(1));
    if (round == 0) {
      for (int i = 0; i < 3; ++i) tenant2.push_back(run(2));
    }
  }
  // Same service config, same tenant, same arrival order => same seeds.
  EXPECT_EQ(tenant1_a, tenant1_b);
  // Streams are distinct per tenant and non-repeating within a tenant.
  EXPECT_NE(tenant1_a, tenant2);
  EXPECT_NE(tenant1_a[0], tenant1_a[1]);
}

TEST(MissionService, CacheDisabledStillCoalescesButReExecutes) {
  ServiceOptions opt = quick_options();
  opt.cache_capacity = 0;
  MissionService service(opt);
  const MissionRequest request = quick_request(9);
  const MissionResponse a = service.submit(request);
  const MissionResponse b = service.submit(request);
  EXPECT_EQ(a.route, MissionRoute::kExecuted);
  EXPECT_EQ(b.route, MissionRoute::kExecuted);
  EXPECT_TRUE(same_outcome(a.outcome, b.outcome));
  EXPECT_EQ(service.stats().executions, 2u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(MissionService, EvictionsAreCountedAndBounded) {
  ServiceOptions opt = quick_options();
  opt.cache_capacity = 4;  // 4 shards => 1 entry each
  opt.shards = 4;
  MissionService service(opt);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    service.submit(quick_request(seed));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executions, 12u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(MissionService, InvalidConfigYieldsInvalidNotCrash) {
  MissionService service(quick_options());
  MissionRequest request = quick_request(1);
  // Reaches execution, then topology generation throws (ConfigError).
  request.config.topology.max_attempts = 0;
  const MissionResponse resp = service.submit(request);
  EXPECT_EQ(resp.status, MissionStatus::kInvalid);
  // The service remains healthy afterwards.
  EXPECT_EQ(service.submit(quick_request(2)).status, MissionStatus::kOk);
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(Protocol, JsonRequestRoundTrip) {
  WireRequest in;
  in.id = 7;
  in.tenant = 3;
  in.repro = "mode=attack;seed=42;topology.node_count=20";
  const std::string line = encode_request_json(in);
  WireRequest out;
  std::string error;
  ASSERT_TRUE(decode_request_json(line, out, error)) << error;
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.repro, in.repro);
}

WireResponse sample_response() {
  WireResponse wire;
  wire.id = 99;
  wire.response.status = MissionStatus::kOk;
  wire.response.route = MissionRoute::kCacheHit;
  MissionOutcome& o = wire.response.outcome;
  o.scenario_digest = 0xdeadbeefcafef00dull;  // exercises the full 64 bits
  o.seed = (1ull << 60) + 17;
  o.result_digest = 0xffffffffffffffffull;
  o.node_count = 20;
  o.alive_at_end = 18;
  o.keys_total = 5;
  o.keys_dead = 2;
  o.sessions_genuine = 31;
  o.sessions_spoofed = 7;
  o.escalations = 3;
  o.deaths_total = 2;
  o.plans_computed = 11;
  o.events_executed = 123'456;
  o.detected = 1;
  o.detection_time = 3'600.25;
  o.utility_delivered = 1.25e6;
  std::snprintf(o.detector, sizeof(o.detector), "coulomb");
  return wire;
}

TEST(Protocol, JsonResponseRoundTripPreservesFull64BitDigests) {
  const WireResponse in = sample_response();
  const std::string line = encode_response_json(in);
  WireResponse out;
  std::string error;
  ASSERT_TRUE(decode_response_json(line, out, error)) << error;
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.response.status, in.response.status);
  EXPECT_EQ(out.response.route, in.response.route);
  EXPECT_TRUE(same_outcome(out.response.outcome, in.response.outcome));
}

TEST(Protocol, BinaryFramesRoundTripByteExactly) {
  WireRequest rin;
  rin.id = 5;
  rin.tenant = 2;
  rin.repro = "mode=benign;seed=8";
  std::string payload;
  encode_request_frame(rin, payload);
  WireRequest rout;
  std::string error;
  ASSERT_TRUE(decode_request_frame(payload, rout, error)) << error;
  EXPECT_EQ(rout.id, rin.id);
  EXPECT_EQ(rout.tenant, rin.tenant);
  EXPECT_EQ(rout.repro, rin.repro);

  const WireResponse win = sample_response();
  encode_response_frame(win, payload);
  // Deterministic encoding: same response, same bytes.
  std::string payload2;
  encode_response_frame(win, payload2);
  EXPECT_EQ(payload, payload2);
  WireResponse wout;
  ASSERT_TRUE(decode_response_frame(payload, wout, error)) << error;
  EXPECT_EQ(wout.id, win.id);
  EXPECT_TRUE(same_outcome(wout.response.outcome, win.response.outcome));
}

TEST(Protocol, RejectsMalformedInput) {
  WireRequest req;
  WireResponse resp;
  std::string error;
  EXPECT_FALSE(decode_request_json("not json", req, error));
  EXPECT_FALSE(decode_request_json("{\"id\":}", req, error));
  EXPECT_FALSE(decode_request_json("{\"tenant\":1}", req, error));  // no id
  EXPECT_FALSE(decode_request_json("{\"id\":1,\"repro\":{}}", req, error));
  EXPECT_FALSE(decode_request_json("{\"id\":\"x\",\"repro\":\"a=1\"}", req,
                                   error));
  EXPECT_FALSE(decode_response_json("{\"id\":1,\"status\":\"bogus\"}", resp,
                                    error));
  EXPECT_FALSE(decode_request_frame("abc", req, error));  // truncated
  EXPECT_FALSE(decode_response_frame(std::string(10, '\0'), resp, error));
}

TEST(Protocol, ToMissionRequestResolvesReproLines) {
  WireRequest wire;
  wire.tenant = 4;
  wire.repro = "mode=benign;seed=31;topology.node_count=24;horizon=7200";
  const MissionRequest request = to_mission_request(wire);
  EXPECT_EQ(request.mode, analysis::ChargerMode::Benign);
  EXPECT_EQ(request.tenant, 4u);
  EXPECT_EQ(request.config.seed, 31u);
  EXPECT_EQ(request.config.topology.node_count, 24u);
  EXPECT_DOUBLE_EQ(request.config.horizon, 7'200.0);

  wire.repro = "mode=attack;bogus.key=1";
  EXPECT_THROW(to_mission_request(wire), ConfigError);
  // A bad mode is bad input like any other value, not a failed internal
  // requirement.
  wire.repro = "mode=sideways;seed=1";
  try {
    (void)to_mission_request(wire);
    ADD_FAILURE() << "mode=sideways resolved";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "config key 'mode': expected attack|benign, got 'sideways'");
  }
}

// ---------------------------------------------------------------------------
// Socket server
// ---------------------------------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/wrsn_svc_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

TEST(MissionServer, JsonAndBinaryClientsMatchDirectExecution) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("rt");
  MissionServer server(service, path);
  server.start();

  const std::string repro = quick_repro(33);
  const auto [cfg, mode] =
      analysis::resolve_overrides(analysis::parse_repro(repro));
  const analysis::ScenarioResult direct = analysis::run_mission(cfg, mode);
  const std::uint64_t expected = analysis::digest_result(direct);

  MissionClient json_client(path, /*binary=*/false);
  const MissionResponse via_json = json_client.call(1, repro);
  ASSERT_EQ(via_json.status, MissionStatus::kOk);
  EXPECT_EQ(via_json.route, MissionRoute::kExecuted);
  EXPECT_EQ(via_json.outcome.result_digest, expected);

  MissionClient binary_client(path, /*binary=*/true);
  const MissionResponse via_binary = binary_client.call(1, repro);
  ASSERT_EQ(via_binary.status, MissionStatus::kOk);
  EXPECT_EQ(via_binary.route, MissionRoute::kCacheHit);
  EXPECT_TRUE(same_outcome(via_json.outcome, via_binary.outcome));

  // Malformed repro: explicit kInvalid response, connection stays usable.
  const MissionResponse bad = json_client.call(1, "mode=attack;bogus=1");
  EXPECT_EQ(bad.status, MissionStatus::kInvalid);
  EXPECT_EQ(json_client.call(1, repro).status, MissionStatus::kOk);

  EXPECT_EQ(server.connections(), 2u);
  server.stop();
}

TEST(MissionServer, NonFiniteTopologyIsInvalidAndServerKeepsServing) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("nonfinite");
  MissionServer server(service, path);
  server.start();

  // An infinite or NaN region once crashed the whole process inside
  // topology generation, before the service could map the error to a
  // status.  Both framings must now answer kInvalid and stay usable.
  MissionClient json_client(path, /*binary=*/false);
  MissionClient binary_client(path, /*binary=*/true);
  for (const char* side : {"inf", "nan", "-inf"}) {
    analysis::FuzzOverrides o = analysis::parse_repro(quick_repro(41));
    o["topology.region_size"] = side;
    const std::string repro = analysis::format_repro(o);
    EXPECT_EQ(json_client.call(1, repro).status, MissionStatus::kInvalid)
        << side;
    EXPECT_EQ(binary_client.call(2, repro).status, MissionStatus::kInvalid)
        << side;
  }
  EXPECT_EQ(json_client.call(3, quick_repro(41)).status, MissionStatus::kOk);
  EXPECT_EQ(binary_client.call(4, quick_repro(42)).status, MissionStatus::kOk);

  // A request built in process skips the decoder's validation and reaches
  // execution; run_mission's own validation must still reject it.
  MissionRequest request = quick_request(43);
  request.config.topology.region.hi = {
      std::numeric_limits<double>::infinity(), 160.0};
  EXPECT_EQ(service.submit(request).status, MissionStatus::kInvalid);
  EXPECT_EQ(service.submit(quick_request(43)).status, MissionStatus::kOk);
  server.stop();
}

TEST(MissionServer, NonFiniteWorldFieldIsInvalidAndServerKeepsServing) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("nonfinite-world");
  MissionServer server(service, path);
  server.start();

  // A NaN threshold or an infinite patience once passed WorldParams
  // validation, which used ordered comparisons only.
  MissionClient json_client(path, /*binary=*/false);
  MissionClient binary_client(path, /*binary=*/true);
  for (const auto& [key, value] :
       {std::pair{"world.request_threshold", "nan"},
        std::pair{"world.patience", "inf"},
        std::pair{"world.min_request_gap", "-inf"}}) {
    analysis::FuzzOverrides o = analysis::parse_repro(quick_repro(44));
    o[key] = value;
    const std::string repro = analysis::format_repro(o);
    EXPECT_EQ(json_client.call(1, repro).status, MissionStatus::kInvalid)
        << key;
    EXPECT_EQ(binary_client.call(2, repro).status, MissionStatus::kInvalid)
        << key;
  }
  EXPECT_EQ(json_client.call(3, quick_repro(44)).status, MissionStatus::kOk);
  EXPECT_EQ(binary_client.call(4, quick_repro(45)).status, MissionStatus::kOk);

  MissionRequest request = quick_request(46);
  request.config.world.benign_gain_cv =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service.submit(request).status, MissionStatus::kInvalid);
  EXPECT_EQ(service.submit(quick_request(46)).status, MissionStatus::kOk);
  server.stop();
}

TEST(MissionServer, InfiniteSensingPowerIsInvalidPromptly) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("nonfinite-real");
  MissionServer server(service, path);
  server.start();

  // An infinite sensing power once passed every check and held a worker at
  // full CPU; a NaN mobility interval reached the kernel; an infinite key
  // count went through an out-of-range cast.  Each is rejected at decode.
  MissionClient json_client(path, /*binary=*/false);
  MissionClient binary_client(path, /*binary=*/true);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [key, value] :
       {std::pair{"world.sensing_power", "inf"},
        std::pair{"mobility.interval", "nan"},
        std::pair{"attack.key_count", "inf"}}) {
    analysis::FuzzOverrides o = analysis::parse_repro(quick_repro(47));
    o[key] = value;
    const std::string repro = analysis::format_repro(o);
    EXPECT_EQ(json_client.call(1, repro).status, MissionStatus::kInvalid)
        << key;
    EXPECT_EQ(binary_client.call(2, repro).status, MissionStatus::kInvalid)
        << key;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(json_client.call(3, quick_repro(47)).status, MissionStatus::kOk);
  EXPECT_EQ(binary_client.call(4, quick_repro(48)).status, MissionStatus::kOk);
  server.stop();
}

TEST(MissionServer, TinyPolicyWindowIsInvalidPromptly) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("tiny-window");
  MissionServer server(service, path);
  server.start();

  // A tiny defender window or bandit epoch once stepped the adaptive
  // detectors or the bandit through billions of windows on one worker.
  MissionClient json_client(path, /*binary=*/false);
  MissionClient binary_client(path, /*binary=*/true);
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [key, value] :
       {std::pair{"policy.defender_window", "1e-5"},
        std::pair{"policy.epoch", "1e-9"}}) {
    analysis::FuzzOverrides o = analysis::parse_repro(quick_repro(49));
    o["policy.defender"] = "adaptive";
    o["policy.attacker"] = "ucb";
    o[key] = value;
    const std::string repro = analysis::format_repro(o);
    EXPECT_EQ(json_client.call(1, repro).status, MissionStatus::kInvalid)
        << key;
    EXPECT_EQ(binary_client.call(2, repro).status, MissionStatus::kInvalid)
        << key;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(json_client.call(3, quick_repro(49)).status, MissionStatus::kOk);
  EXPECT_EQ(binary_client.call(4, quick_repro(50)).status, MissionStatus::kOk);
  server.stop();
}

TEST(MissionServer, BadModeIsInvalidAndServerKeepsServing) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("bad-mode");
  MissionServer server(service, path);
  server.start();

  MissionClient json_client(path, /*binary=*/false);
  MissionClient binary_client(path, /*binary=*/true);
  analysis::FuzzOverrides o = analysis::parse_repro(quick_repro(48));
  o["mode"] = "foo";
  const std::string repro = analysis::format_repro(o);
  EXPECT_EQ(json_client.call(1, repro).status, MissionStatus::kInvalid);
  EXPECT_EQ(binary_client.call(2, repro).status, MissionStatus::kInvalid);
  EXPECT_EQ(json_client.call(3, quick_repro(48)).status, MissionStatus::kOk);
  server.stop();
}

TEST(MissionServer, StopIsIdempotentAndUnlinksSocket) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("stop");
  {
    MissionServer server(service, path);
    server.start();
    MissionClient client(path);
    EXPECT_EQ(client.call(1, quick_repro(1)).status, MissionStatus::kOk);
    server.stop();
    server.stop();
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
  }
  // Re-binding the same path works (stale-socket unlink).
  MissionServer again(service, path);
  again.start();
  MissionClient client(path);
  EXPECT_EQ(client.call(1, quick_repro(1)).status, MissionStatus::kOk);
}

}  // namespace
}  // namespace wrsn::svc
