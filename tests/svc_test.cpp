// Mission service: canonical scenario digest, LRU cache core, coalescing,
// admission control, batch submission, auto-seed streams, wire protocol,
// and the socket server round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
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

using namespace std::string_view_literals;

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
  opt.cache_capacity = 4;
  MissionService service(opt);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    service.submit(quick_request(seed));
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executions, 12u);
  // One LRU of 4 entries: every insert past the fourth evicts, and the four
  // most recent seeds are exactly what stays.
  EXPECT_EQ(stats.evictions, 8u);
  for (std::uint64_t seed = 9; seed <= 12; ++seed) {
    EXPECT_EQ(service.submit(quick_request(seed)).route,
              MissionRoute::kCacheHit)
        << "seed " << seed;
  }
  stats = service.stats();
  EXPECT_EQ(stats.executions, 12u);
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.evictions, 8u);
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
  EXPECT_EQ(request.config.seed, 31u);
  EXPECT_EQ(request.config.topology.node_count, 24u);
  EXPECT_DOUBLE_EQ(request.config.horizon, 7'200.0);

  wire.repro = "mode=attack;bogus.key=1";
  EXPECT_THROW(to_mission_request(wire), ConfigError);
  // Reals in a repro line take the config loader's grammar.
  for (const char* patience : {" 5000", "+5000", "0x1p12"}) {
    wire.repro = std::string("seed=1;world.patience=") + patience;
    EXPECT_THROW(to_mission_request(wire), ConfigError) << patience;
  }
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
// Wire codec spec: exact encoder text and the decoder's decision on a fixed
// corpus, error strings included.  Any rewrite of the codec must keep every
// row.
// ---------------------------------------------------------------------------

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[std::uint8_t(c) >> 4];
    out += kDigits[std::uint8_t(c) & 0xf];
  }
  return out;
}

TEST(ProtocolSpec, RequestJsonTextIsPinned) {
  WireRequest plain;
  plain.id = 7;
  plain.tenant = 3;
  plain.repro = "mode=attack;seed=42;topology.node_count=20";
  EXPECT_EQ(encode_request_json(plain),
            "{\"id\":7,\"tenant\":3,"
            "\"repro\":\"mode=attack;seed=42;topology.node_count=20\"}");

  WireRequest escaped;
  escaped.id = std::numeric_limits<std::uint64_t>::max();
  escaped.repro = std::string("q\"b\\s\n\r\t\x01\x1f\x7f/caf\xc3\xa9", 17);
  EXPECT_EQ(encode_request_json(escaped),
            "{\"id\":18446744073709551615,\"tenant\":0,"
            "\"repro\":\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f"
            "\177/caf\303\251\"}");
}

TEST(ProtocolSpec, ResponseJsonTextIsPinned) {
  EXPECT_EQ(encode_response_json(sample_response()),
            "{\"id\":99,\"status\":\"ok\",\"route\":\"cache_hit\","
            "\"scenario_digest\":\"16045690984503111693\","
            "\"seed\":\"1152921504606846993\","
            "\"result_digest\":\"18446744073709551615\",\"node_count\":20,"
            "\"alive_at_end\":18,\"sink_connected_at_end\":0,"
            "\"keys_total\":5,\"keys_dead\":2,"
            "\"keys_dead_before_detection\":0,\"sessions_genuine\":31,"
            "\"sessions_spoofed\":7,\"escalations\":3,\"deaths_total\":2,"
            "\"plans_computed\":11,\"events_executed\":123456,"
            "\"detected\":true,\"detection_time\":3600.25,"
            "\"utility_delivered\":1250000,\"detector\":\"coulomb\"}");

  // Not detected, empty detector, every count zero.
  WireResponse empty;
  empty.response.status = MissionStatus::kShed;
  EXPECT_EQ(encode_response_json(empty),
            "{\"id\":0,\"status\":\"shed\",\"route\":\"none\","
            "\"scenario_digest\":\"0\",\"seed\":\"0\",\"result_digest\":\"0\","
            "\"node_count\":0,\"alive_at_end\":0,\"sink_connected_at_end\":0,"
            "\"keys_total\":0,\"keys_dead\":0,"
            "\"keys_dead_before_detection\":0,\"sessions_genuine\":0,"
            "\"sessions_spoofed\":0,\"escalations\":0,\"deaths_total\":0,"
            "\"plans_computed\":0,\"events_executed\":0,\"detected\":false,"
            "\"detection_time\":0,\"utility_delivered\":0,\"detector\":\"\"}");

  WireResponse escaped = sample_response();
  std::snprintf(escaped.response.outcome.detector,
                sizeof(escaped.response.outcome.detector),
                "a\"b\\c\n\x01/z");
  const std::string text = encode_response_json(escaped);
  EXPECT_EQ(text.substr(text.find(",\"detector\"")),
            ",\"detector\":\"a\\\"b\\\\c\\n\\u0001/z\"}");
}

TEST(ProtocolSpec, ResponseJsonRealsArePrintedAsPercent17g) {
  const std::pair<double, std::string_view> cases[] = {
      {0.0, "0"},
      {1e-300, "1e-300"},
      {-0.0, "-0"},
      {1.25e6, "1250000"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3.0, "0.33333333333333331"},
      {123456789012345678.0, "1.2345678901234568e+17"},
      {1e17, "1e+17"},
      {1e16, "10000000000000000"},
      {5e-324, "4.9406564584124654e-324"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
  };
  for (const auto& [value, text] : cases) {
    WireResponse wire = sample_response();
    wire.response.outcome.detection_time = value;
    wire.response.outcome.utility_delivered = value;
    const std::string line = encode_response_json(wire);
    const std::string expected = "\"detection_time\":" + std::string(text) +
                                 ",\"utility_delivered\":" +
                                 std::string(text) + ",";
    EXPECT_NE(line.find(expected), std::string::npos) << line;
  }
}

TEST(ProtocolSpec, FrameBytesArePinned) {
  WireRequest request;
  request.id = 7;
  request.tenant = 3;
  request.repro = "mode=attack;seed=42;topology.node_count=20";
  std::string payload;
  encode_request_frame(request, payload);
  EXPECT_EQ(hex(payload),
            "070000000000000003000000000000002a0000006d6f64653d61747461636b3b"
            "736565643d34323b746f706f6c6f67792e6e6f64655f636f756e743d3230");
  encode_response_frame(sample_response(), payload);
  EXPECT_EQ(hex(payload),
            "630000000000000000010df0fecaefbeadde1100000000000010ffffffffffff"
            "ffff1400000012000000000000000500000002000000000000001f0000000700"
            "000003000000020000000b0000000000000040e2010000000000010000000080"
            "20ac4000000000d0123341636f756c6f6d620000000000000000000000000000"
            "000000");
}

/// A decoded request as "ok <its re-encoding>" or "error <message>".
std::string request_json_outcome(std::string_view line) {
  WireRequest out;
  std::string error;
  if (!decode_request_json(line, out, error)) return "error " + error;
  return "ok " + encode_request_json(out);
}

/// A decoded response's encoding without the fields still at zero, so the
/// corpus rows stay short.
std::string brief(const WireResponse& response) {
  std::string text = encode_response_json(response);
  for (const std::string_view zero :
       {",\"node_count\":0,"sv, ",\"alive_at_end\":0,"sv,
        ",\"sink_connected_at_end\":0,"sv, ",\"keys_total\":0,"sv,
        ",\"keys_dead\":0,"sv, ",\"keys_dead_before_detection\":0,"sv,
        ",\"sessions_genuine\":0,"sv, ",\"sessions_spoofed\":0,"sv,
        ",\"escalations\":0,"sv, ",\"deaths_total\":0,"sv,
        ",\"plans_computed\":0,"sv, ",\"events_executed\":0,"sv,
        ",\"detected\":false,"sv, ",\"detection_time\":0,"sv,
        ",\"utility_delivered\":0,"sv, ",\"detector\":\"\"}"sv}) {
    if (const std::size_t at = text.find(zero); at != std::string::npos) {
      text.erase(at, zero.size() - 1);
    }
  }
  return text;
}

std::string response_json_outcome(std::string_view line) {
  WireResponse out;
  std::string error;
  if (!decode_response_json(line, out, error)) return "error " + error;
  return "ok " + brief(out);
}

struct DecodeCase {
  std::string_view line;
  std::string_view outcome;
};

// Whitespace, escapes, duplicate (last wins) and unknown (ignored) keys,
// ids as strings and as whatever strtoull makes of them, nested containers
// and truncated lines.
const DecodeCase kRequestJsonCorpus[] = {
    {"{\"id\":1,\"tenant\":2,\"repro\":\"seed=1\"}"sv,
     "ok {\"id\":1,\"tenant\":2,\"repro\":\"seed=1\"}"},
    {" \t{ \"id\" : 1 ,\r\n\"tenant\"\t:\t2 , \"repro\" :\n\"seed=1\" "
     "} "sv,
     "ok {\"id\":1,\"tenant\":2,\"repro\":\"seed=1\"}"},
    {"{\"id\":1,\"repro\":\"seed=1\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"seed=1\"}"},
    {"{\"id\":1,\"repro\":\"seed=1\"} trailing"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"seed=1\"}"},
    {"{\"id\":1,\"repro\":\"a\\\"b\\\\c\\u0041\\/\\n\\r\\t\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"a\\\"b\\\\cA/\\n\\r\\t\"}"},
    {"{\"id\":1,\"repro\":\"\\u00e9\"}"sv,
     "error non-ASCII \\u escape unsupported at offset 23"},
    {"{\"id\":1,\"repro\":\"\\u004a\\u004B\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"JK\"}"},
    {"{\"id\":1,\"repro\":\"\\u00\"}"sv,
     "error bad \\u escape at offset 22"},
    {"{\"id\":1,\"repro\":\"\\u00zz\"}"sv,
     "error bad \\u escape at offset 22"},
    {"{\"id\":1,\"repro\":\"\\b\"}"sv,
     "error unknown escape at offset 19"},
    {"{\"id\":1,\"repro\":\"abc\\"sv,
     "error dangling escape at offset 21"},
    {"{\"id\":1,\"repro\":\"\\u0000x\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"\\u0000x\"}"},
    {"{\"id\":1,\"repro\":\"caf\303\251\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"caf\303\251\"}"},
    {"{\"id\":1,\"id\":2,\"repro\":\"a\",\"repro\":\"b\"}"sv,
     "ok {\"id\":2,\"tenant\":0,\"repro\":\"b\"}"},
    {"{\"id\":1,\"unknown\":\"x\",\"zzz\":5,\"repro\":\"a\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"\\u0069d\":3,\"repro\":\"a\"}"sv,
     "ok {\"id\":3,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":\"7\",\"tenant\":\"8\",\"repro\":\"a\"}"sv,
     "ok {\"id\":7,\"tenant\":8,\"repro\":\"a\"}"},
    {"{\"id\":\"-1\",\"repro\":\"a\"}"sv,
     "ok {\"id\":18446744073709551615,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":\"+5\",\"repro\":\"a\"}"sv,
     "ok {\"id\":5,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":\" 5\",\"repro\":\"a\"}"sv,
     "ok {\"id\":5,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":\"5 \",\"repro\":\"a\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{\"id\":\"\",\"repro\":\"a\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{\"id\":\"0x10\",\"repro\":\"a\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{\"id\":\"5\\u0000x\",\"repro\":\"a\"}"sv,
     "ok {\"id\":5,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":99999999999999999999,\"repro\":\"a\"}"sv,
     "ok {\"id\":18446744073709551615,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":18446744073709551615,\"repro\":\"a\"}"sv,
     "ok {\"id\":18446744073709551615,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":-3,\"repro\":\"a\"}"sv,
     "ok {\"id\":18446744073709551613,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":1.5,\"repro\":\"a\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{\"id\":1e5,\"repro\":\"a\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{\"id\":true,\"repro\":\"a\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{\"id\":-,\"repro\":\"a\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{\"id\":1,\"tenant\":\"x\",\"repro\":\"a\"}"sv,
     "error field 'tenant' is not an unsigned integer"},
    {"{\"id\":1,\"tenant\":2}"sv,
     "error missing field 'repro'"},
    {"{\"tenant\":1,\"repro\":\"a\"}"sv,
     "error missing field 'id'"},
    {"{\"id\":\"x\",\"repro\":\"a=1\"}"sv,
     "error field 'id' is not an unsigned integer"},
    {"{}"sv,
     "error missing field 'id'"},
    {"{ }"sv,
     "error missing field 'id'"},
    {""sv,
     "error expected '{' at offset 0"},
    {"   "sv,
     "error expected '{' at offset 3"},
    {"not json"sv,
     "error expected '{' at offset 0"},
    {"[1]"sv,
     "error expected '{' at offset 0"},
    {"{\"id\":1,\"repro\":{}}"sv,
     "error nested containers unsupported at offset 16"},
    {"{\"id\":1,\"repro\":[\"a\"]}"sv,
     "error nested containers unsupported at offset 16"},
    {"{\"id\":{\"x\":1},\"repro\":\"a\"}"sv,
     "error nested containers unsupported at offset 6"},
    {"{\"id\":}"sv,
     "error expected value at offset 6"},
    {"{\"id\":1,}"sv,
     "error expected string at offset 8"},
    {"{\"id\":1"sv,
     "error expected '}' at offset 7"},
    {"{\"id\":1,\"repro\":\"abc"sv,
     "error unterminated string at offset 20"},
    {"{\"id\""sv,
     "error expected ':' at offset 5"},
    {"{\"id\" 1}"sv,
     "error expected ':' at offset 6"},
    {"{\"id\":1 \"repro\":\"a\"}"sv,
     "error expected '}' at offset 8"},
    {"{id:1}"sv,
     "error expected string at offset 1"},
    {"{\"id\":1,\"repro\":\"a\",\"x\":@}"sv,
     "error expected value at offset 24"},
    {"{\"id\":1,\"repro\":null}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"null\"}"},
    {"{\"id\":1,\"repro\":\"\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"\"}"},
    {"{\"id\":1,\"\":2,\"repro\":\"a\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":1,\"repro\":\"a\"}}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"a\"}"},
    {"{\"id\":1,\"repro\":\"a\\u0009b\\u001fc\"}"sv,
     "ok {\"id\":1,\"tenant\":0,\"repro\":\"a\\tb\\u001fc\"}"},
    {"{\"id\":1,"
     "\"repro\":\"mode=attack;seed=42;topology.node_count=20\"}"sv,
     "ok {\"id\":1,\"tenant\":0,"
     "\"repro\":\"mode=attack;seed=42;topology.node_count=20\"}"},
};

const DecodeCase kResponseJsonCorpus[] = {
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\"}"},
    {"{ \"id\" : 5 , \"status\" : \"shed\" , \"route\" : \"coalesced\" "
     ", \"scenario_digest\" : \"11\" , \"seed\" : \"12\" , "
     "\"result_digest\" : \"13\" }"sv,
     "ok {\"id\":5,\"status\":\"shed\",\"route\":\"coalesced\","
     "\"scenario_digest\":\"11\",\"seed\":\"12\","
     "\"result_digest\":\"13\"}"},
    {"{\"id\":1,\"status\":\"bogus\"}"sv,
     "error unknown status 'bogus'"},
    {"{\"id\":1,\"status\":\"ok\",\"route\":\"bogus\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\"}"sv,
     "error unknown route 'bogus'"},
    {"{\"id\":1,\"status\":\"invalid\",\"route\":\"none\"}"sv,
     "error missing field 'scenario_digest'"},
    {"{\"id\":1,\"seed\":\"2\",\"result_digest\":\"3\"}"sv,
     "error missing field 'scenario_digest'"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"result_digest\":\"3\"}"sv,
     "error missing field 'seed'"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\"}"sv,
     "error missing field 'result_digest'"},
    {"{\"id\":1,\"scenario_digest\":\"x\",\"seed\":\"2\","
     "\"result_digest\":\"3\"}"sv,
     "error field 'scenario_digest' is not an unsigned integer"},
    {"{\"id\":1,\"scenario_digest\":1,\"seed\":2,\"result_digest\":3,"
     "\"status\":ok,\"route\":executed}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"executed\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\"}"},
    {"{\"id\":1,\"status\":\"closed\",\"route\":\"cache_hit\","
     "\"scenario_digest\":\"18446744073709551615\",\"seed\":\"-1\","
     "\"result_digest\":\"+7\"}"sv,
     "ok {\"id\":1,\"status\":\"closed\",\"route\":\"cache_hit\","
     "\"scenario_digest\":\"18446744073709551615\","
     "\"seed\":\"18446744073709551615\",\"result_digest\":\"7\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"node_count\":\"abc\","
     "\"alive_at_end\":4294967297,\"keys_total\":-1,"
     "\"keys_dead\":\"12x\",\"plans_computed\":\" 9\","
     "\"events_executed\":99999999999999999999}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"alive_at_end\":1,\"keys_total\":4294967295,\"keys_dead\":12,"
     "\"plans_computed\":9,\"events_executed\":18446744073709551615}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detected\":true,"
     "\"detection_time\":3600.25,\"utility_delivered\":1.25e6,"
     "\"detector\":\"coulomb\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detected\":true,\"detection_time\":3600.25,"
     "\"utility_delivered\":1250000,\"detector\":\"coulomb\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detected\":1}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detected\":\"true\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detected\":true}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detected\":TRUE}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detection_time\":\"abc\","
     "\"utility_delivered\":\"12abc\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"utility_delivered\":12}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detection_time\":1e-400,"
     "\"utility_delivered\":1e999}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"utility_delivered\":inf}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detection_time\":inf,"
     "\"utility_delivered\":-nan}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detection_time\":inf,\"utility_delivered\":-nan}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detection_time\":\"0x1p4\","
     "\"utility_delivered\":\" 2.5\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detection_time\":16,\"utility_delivered\":2.5}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detection_time\":-0.0,"
     "\"utility_delivered\":4.9406564584124654e-324}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detection_time\":-0,"
     "\"utility_delivered\":4.9406564584124654e-324}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\","
     "\"detector\":\"a-very-long-detector-name-that-overflows\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detector\":\"a-very-long-detector-na\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detector\":\"q\\\"uo\\\\te\\u0001\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detector\":\"q\\\"uo\\\\te\\u0001\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detector\":\"ab\\u0000cd\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detector\":\"ab\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detector\":12}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\","
     "\"detector\":\"12\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"seed\":\"9\",\"status\":\"shed\","
     "\"status\":\"ok\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"9\",\"result_digest\":\"3\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"extra\":\"x\"}"sv,
     "ok {\"id\":1,\"status\":\"ok\",\"route\":\"none\","
     "\"scenario_digest\":\"1\",\"seed\":\"2\",\"result_digest\":\"3\"}"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\",\"detected\":[true]}"sv,
     "error nested containers unsupported at offset 72"},
    {"{\"id\":1,\"scenario_digest\":\"1\",\"seed\":\"2\","
     "\"result_digest\":\"3\""sv,
     "error expected '}' at offset 60"},
    {"{\"status\":\"ok\"}"sv,
     "error missing field 'id'"},
    {"{\"id\":\"\\u00ff\"}"sv,
     "error non-ASCII \\u escape unsupported at offset 13"},
};

TEST(ProtocolSpec, RequestJsonDecodeCorpusIsPinned) {
  for (const DecodeCase& c : kRequestJsonCorpus) {
    EXPECT_EQ(request_json_outcome(c.line), c.outcome) << c.line;
  }
}

TEST(ProtocolSpec, ResponseJsonDecodeCorpusIsPinned) {
  for (const DecodeCase& c : kResponseJsonCorpus) {
    EXPECT_EQ(response_json_outcome(c.line), c.outcome) << c.line;
  }
}

// ---------------------------------------------------------------------------
// Decoder mutation campaign: byte-level mutants of the spec corpus through
// every wire decoder.  No decoder may crash or throw (parse_repro's
// ConfigError is its way of rejecting), and the digest of every decision —
// the re-encoded value on accept, the error text on reject — is pinned, so
// a decoder rewrite must decide exactly as the one it replaces.
// ---------------------------------------------------------------------------

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// One to four byte flips, inserts, deletes, truncations or duplicated
/// slices.  Inserts favour the bytes the decoders branch on.
std::string mutate(std::string s, SplitMix& rng) {
  static constexpr std::string_view kSyntax = "{}[]\":,\\u0123456789-+. eEx";
  const std::size_t rounds = 1 + rng.below(4);
  for (std::size_t r = 0; r < rounds; ++r) {
    switch (rng.below(5)) {
      case 0:
        if (!s.empty()) s[rng.below(s.size())] ^= char(1u << rng.below(8));
        break;
      case 1: {
        const char c = rng.below(2) == 0 ? kSyntax[rng.below(kSyntax.size())]
                                         : char(rng.next() & 0xff);
        s.insert(rng.below(s.size() + 1), 1, c);
        break;
      }
      case 2:
        if (!s.empty()) s.erase(rng.below(s.size()), 1 + rng.below(4));
        break;
      case 3:
        s.resize(rng.below(s.size() + 1));
        break;
      default: {
        const std::size_t from = rng.below(s.size() + 1);
        const std::string slice = s.substr(from, 1 + rng.below(16));
        s.insert(rng.below(s.size() + 1), slice);
        break;
      }
    }
  }
  return s;
}

std::string request_frame_outcome(std::string_view payload) {
  WireRequest out;
  std::string error;
  if (!decode_request_frame(payload, out, error)) return "error " + error;
  std::string bytes;
  encode_request_frame(out, bytes);
  return "ok " + bytes;
}

std::string response_frame_outcome(std::string_view payload) {
  WireResponse out;
  std::string error;
  if (!decode_response_frame(payload, out, error)) return "error " + error;
  std::string bytes;
  encode_response_frame(out, bytes);
  return "ok " + bytes;
}

std::string repro_outcome(std::string_view line) {
  try {
    const analysis::FuzzOverrides parsed =
        analysis::parse_repro(std::string(line));
    return "ok " + analysis::format_repro(parsed);
  } catch (const ConfigError& e) {
    return std::string("error ") + e.what();
  }
}

TEST(ProtocolSpec, DecoderMutationCampaignDigestIsPinned) {
  std::vector<std::string> request_json, response_json, request_frames,
      response_frames, repro_lines;
  for (const DecodeCase& c : kRequestJsonCorpus) {
    request_json.emplace_back(c.line);
  }
  for (const DecodeCase& c : kResponseJsonCorpus) {
    response_json.emplace_back(c.line);
  }
  response_json.push_back(encode_response_json(sample_response()));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    WireRequest request;
    request.id = seed;
    request.tenant = seed * 3;
    request.repro = quick_repro(seed);
    request_json.push_back(encode_request_json(request));
    repro_lines.push_back(request.repro);
    encode_request_frame(request, request_frames.emplace_back());
  }
  repro_lines.push_back("mode=benign;seed=8");
  repro_lines.push_back("a=1;;b=2;");
  WireResponse response = sample_response();
  encode_response_frame(response, response_frames.emplace_back());
  response.response.status = MissionStatus::kInvalid;
  response.response.route = MissionRoute::kNone;
  response.response.outcome = MissionOutcome{};
  encode_response_frame(response, response_frames.emplace_back());

  using Decoder = std::string (*)(std::string_view);
  const std::pair<const std::vector<std::string>*, Decoder> targets[] = {
      {&request_json, request_json_outcome},
      {&response_json, response_json_outcome},
      {&request_frames, request_frame_outcome},
      {&response_frames, response_frame_outcome},
      {&repro_lines, repro_outcome},
  };
  constexpr std::size_t kMutantsPerTarget = 3000;
  constexpr std::size_t kAccepted[] = {173, 114, 249, 239, 1540};
  Fnv digest;
  SplitMix rng{2028};
  for (std::size_t t = 0; t < std::size(targets); ++t) {
    const auto& [seeds, decode] = targets[t];
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kMutantsPerTarget; ++i) {
      const std::string input =
          mutate((*seeds)[rng.below(seeds->size())], rng);
      std::string outcome;
      try {
        outcome = decode(input);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "target " << t << " threw " << e.what() << " on "
                      << hex(input);
        continue;
      }
      accepted += outcome.starts_with("ok ");
      digest.mix(std::uint64_t{t});
      digest.mix(outcome);
    }
    // Pinned per target, so a changed digest names the decoder that moved;
    // no target is vacuous on either side.
    EXPECT_EQ(accepted, kAccepted[t]) << "target " << t;
  }
  EXPECT_EQ(digest.hash(), 12695518112568359670ull);
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

/// Entries of /proc/self/task: the threads this process runs now.
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// VmSize of this process in kB.  An exited thread leaves /proc/self/task
/// at once, but until it is joined or detached its stack stays mapped.
std::size_t process_vm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmSize:")) return std::stoul(line.substr(7));
  }
  return 0;
}

/// Polls until at most `limit` threads run; false after 5 s.
bool threads_settle_to(std::size_t limit) {
  for (int tries = 0; tries < 5000; ++tries) {
    if (process_threads() <= limit) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(MissionServer, ClosedConnectionsReleaseTheirThreads) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("churn");
  MissionServer server(service, path);
  server.start();
  const std::size_t threads_before = process_threads();
  // Warm up: the mission runs once, and the first connection thread's stack
  // and malloc arena exist before the address space is measured.
  const std::string repro = quick_repro(1);
  EXPECT_EQ(MissionClient(path).call(1, repro).status, MissionStatus::kOk);
  ASSERT_TRUE(threads_settle_to(threads_before));
  const std::size_t vm_before_kb = process_vm_kb();
  for (std::uint64_t i = 0; i < 200; ++i) {
    {
      MissionClient client(path, /*binary=*/i % 2 == 1);
      ASSERT_EQ(client.call(i, repro).status, MissionStatus::kOk);
    }
    // The connection's thread ends just after its client hangs up.  Waiting
    // for it keeps one connection thread alive at a time, so the address
    // space below measures retained stacks, not extra malloc arenas.
    ASSERT_TRUE(threads_settle_to(threads_before)) << "connection " << i;
  }
  // 200 retained 8 MB stacks would add 1.6 GB; allow a few.
  EXPECT_LE(process_vm_kb(), vm_before_kb + 64 * 1024)
      << "before " << vm_before_kb << " kB";
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

// ---------------------------------------------------------------------------
// Transport spec over a raw socket: the bytes go out exactly as each test
// writes them, however the server's reads happen to split them.
// ---------------------------------------------------------------------------

/// A connected client socket with a 5 s receive timeout, so a server that
/// fails to answer fails the test instead of hanging it.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

void send_bytes(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    bytes.remove_prefix(std::size_t(n));
  }
}

/// Reads exactly `n` bytes; false on EOF, error or timeout first.
bool recv_bytes(int fd, std::size_t n, std::string& out) {
  out.resize(n);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out.data() + got, n - got, 0);
    if (r <= 0) return false;
    got += std::size_t(r);
  }
  return true;
}

/// True once the server has closed the connection without sending a byte.
bool closed_by_server(int fd) {
  char byte = 0;
  return ::recv(fd, &byte, 1, 0) == 0;
}

std::string size_prefix(std::uint32_t size) {
  std::string prefix(4, '\0');
  for (int i = 0; i < 4; ++i) prefix[i] = char((size >> (8 * i)) & 0xff);
  return prefix;
}

std::string request_frame(std::uint64_t id, const std::string& repro) {
  WireRequest request;
  request.id = id;
  request.repro = repro;
  std::string payload;
  encode_request_frame(request, payload);
  return size_prefix(std::uint32_t(payload.size())) + payload;
}

WireResponse read_response_frame(int fd) {
  WireResponse reply;
  std::string prefix, payload, error;
  if (!recv_bytes(fd, 4, prefix)) {
    ADD_FAILURE() << "no response prefix";
    return reply;
  }
  const std::uint32_t size = std::uint32_t(std::uint8_t(prefix[0])) |
                             std::uint32_t(std::uint8_t(prefix[1])) << 8 |
                             std::uint32_t(std::uint8_t(prefix[2])) << 16 |
                             std::uint32_t(std::uint8_t(prefix[3])) << 24;
  EXPECT_TRUE(recv_bytes(fd, size, payload));
  EXPECT_TRUE(decode_response_frame(payload, reply, error)) << error;
  return reply;
}

WireResponse read_response_line(int fd) {
  WireResponse reply;
  std::string line, byte, error;
  while (recv_bytes(fd, 1, byte) && byte[0] != '\n') line += byte;
  EXPECT_TRUE(decode_response_json(line, reply, error)) << error << line;
  return reply;
}

std::string request_line(std::uint64_t id, const std::string& repro) {
  WireRequest request;
  request.id = id;
  request.repro = repro;
  return encode_request_json(request) + '\n';
}

TEST(ServerTransport, BinaryRequestSentOneBytePerSend) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("byte-by-byte");
  MissionServer server(service, path);
  server.start();

  const int fd = raw_connect(path);
  const std::string bytes = "WRB1" + request_frame(5, quick_repro(51));
  for (const char c : bytes) send_bytes(fd, std::string_view(&c, 1));
  const WireResponse reply = read_response_frame(fd);
  EXPECT_EQ(reply.id, 5u);
  EXPECT_EQ(reply.response.status, MissionStatus::kOk);
  EXPECT_EQ(reply.response.route, MissionRoute::kExecuted);
  ::close(fd);
  server.stop();
}

TEST(ServerTransport, TwoRequestsInOneSendAreBothAnswered) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("two-in-one");
  MissionServer server(service, path);
  server.start();

  const int binary = raw_connect(path);
  send_bytes(binary, "WRB1" + request_frame(1, quick_repro(52)) +
                         request_frame(2, "mode=attack;bogus=1"));
  const WireResponse first = read_response_frame(binary);
  const WireResponse second = read_response_frame(binary);
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.response.status, MissionStatus::kOk);
  EXPECT_EQ(second.id, 2u);
  EXPECT_EQ(second.response.status, MissionStatus::kInvalid);

  const int json = raw_connect(path);
  send_bytes(json, request_line(3, quick_repro(52)) + request_line(4, "x"));
  const WireResponse third = read_response_line(json);
  const WireResponse fourth = read_response_line(json);
  EXPECT_EQ(third.id, 3u);
  EXPECT_EQ(third.response.route, MissionRoute::kCacheHit);
  EXPECT_TRUE(same_outcome(third.response.outcome, first.response.outcome));
  EXPECT_EQ(fourth.id, 4u);
  EXPECT_EQ(fourth.response.status, MissionStatus::kInvalid);
  ::close(binary);
  ::close(json);
  server.stop();
}

TEST(ServerTransport, JsonLineSplitAcrossWrites) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("split-line");
  MissionServer server(service, path);
  server.start();

  const int fd = raw_connect(path);
  const std::string line = request_line(6, quick_repro(53));
  const std::size_t cuts[] = {1, 9, line.size() / 2, line.size() - 1};
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    send_bytes(fd, std::string_view(line).substr(from, cut - from));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    from = cut;
  }
  send_bytes(fd, std::string_view(line).substr(from));
  const WireResponse reply = read_response_line(fd);
  EXPECT_EQ(reply.id, 6u);
  EXPECT_EQ(reply.response.status, MissionStatus::kOk);
  ::close(fd);
  server.stop();
}

TEST(ServerTransport, OversizedPrefixDropsOnlyThatConnection) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("oversized");
  MissionServer server(service, path);
  server.start();

  const int fd = raw_connect(path);
  send_bytes(fd, "WRB1" + size_prefix(std::uint32_t(kMaxFrameBytes) + 1));
  EXPECT_TRUE(closed_by_server(fd));
  ::close(fd);

  // A frame of exactly kMaxFrameBytes is read whole and answered: its
  // repro line is one megabyte of junk, so the answer is kInvalid.
  const int edge = raw_connect(path);
  const std::string junk(kMaxFrameBytes - 20, 'j');
  send_bytes(edge, "WRB1" + request_frame(9, junk));
  const WireResponse reply = read_response_frame(edge);
  EXPECT_EQ(reply.id, 9u);
  EXPECT_EQ(reply.response.status, MissionStatus::kInvalid);
  ::close(edge);

  MissionClient client(path, /*binary=*/true);
  EXPECT_EQ(client.call(1, quick_repro(54)).status, MissionStatus::kOk);
  server.stop();
}

TEST(ServerTransport, EofInsideAFrameClosesTheConnection) {
  MissionService service(quick_options());
  const std::string path = test_socket_path("eof-mid-frame");
  MissionServer server(service, path);
  server.start();

  const std::string frame = request_frame(7, quick_repro(55));
  for (const std::size_t keep : {std::size_t{2}, std::size_t{6},
                                 frame.size() - 1}) {
    const int fd = raw_connect(path);
    send_bytes(fd, "WRB1" + frame.substr(0, keep));
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(closed_by_server(fd)) << keep;
    ::close(fd);
  }
  MissionClient client(path, /*binary=*/true);
  EXPECT_EQ(client.call(1, quick_repro(55)).status, MissionStatus::kOk);
  EXPECT_EQ(server.connections(), 4u);
  server.stop();
}

}  // namespace
}  // namespace wrsn::svc
