// The ScenarioConfig field list: which fields exist, the order the scenario
// digest folds them in, and which INI / repro key sets each one.
//
// `for_each_field(config, visit)` calls `visit` once per row, in digest
// order: a `KeyedField<T>` for a field a key sets, a `CodeField<T>` for one
// only code sets.  The two are distinct types, so a visitor can act on keyed
// rows alone (`if constexpr (is_keyed_field<Row>)`) and is instantiated only
// for the value kinds those rows hold.  config_io's `apply_config` parses
// the keyed rows; svc's `scenario_digest` folds every row.
//
// Adding a field means adding one row here, with a key if users may set it;
// moving a row moves every cache key.  `apply_config` special-cases three
// keys: `topology.region_size` sets the four region corners (code rows),
// `seed` is not digested and so has no row, and `horizon` also sets
// `attack.campaign_deadline`.  Keys must be unique and must not be
// `topology.region_size` or `seed`: `apply_config`'s key index relies on
// both.
#pragma once

#include <span>
#include <string_view>
#include <type_traits>

#include "analysis/scenario.hpp"

namespace wrsn::analysis {

/// A field an INI / repro key sets.
template <class T>
struct KeyedField {
  std::string_view key;
  T& value;
};

/// A field only code sets.
template <class T>
struct CodeField {
  T& value;
};

template <class Row>
inline constexpr bool is_keyed_field = false;
template <class T>
inline constexpr bool is_keyed_field<KeyedField<T>> = true;

/// One accepted name of a keyed enum.
template <class E>
struct EnumName {
  std::string_view name;
  E value;
};

template <class E>
using EnumNames = std::span<const EnumName<E>>;

/// The accepted names of each keyed enum, found by argument type.
inline EnumNames<net::Deployment> enum_names(net::Deployment) {
  using enum net::Deployment;
  static constexpr EnumName<net::Deployment> kNames[] = {
      {"uniform", Uniform}, {"grid", Grid}, {"clustered", Clustered},
      {"corridor", Corridor}};
  return kNames;
}
inline EnumNames<net::KeyNodeRule> enum_names(net::KeyNodeRule) {
  using enum net::KeyNodeRule;
  static constexpr EnumName<net::KeyNodeRule> kNames[] = {
      {"articulation", Articulation}, {"top-traffic", TopTraffic},
      {"hybrid", Hybrid}};
  return kNames;
}
inline EnumNames<csa::SpoofMode> enum_names(csa::SpoofMode) {
  using enum csa::SpoofMode;
  static constexpr EnumName<csa::SpoofMode> kNames[] = {
      {"phase-cancel", PhaseCancel}, {"partial-cancel", PartialCancel},
      {"silent-skip", SilentSkip}, {"no-service", NoService}};
  return kNames;
}
inline EnumNames<mc::SchedulePolicy> enum_names(mc::SchedulePolicy) {
  using enum mc::SchedulePolicy;
  static constexpr EnumName<mc::SchedulePolicy> kNames[] = {
      {"njnp", Njnp}, {"edf", Edf}, {"fcfs", Fcfs}, {"tour", Tour}};
  return kNames;
}
inline EnumNames<policy::AttackPolicyKind> enum_names(
    policy::AttackPolicyKind) {
  using enum policy::AttackPolicyKind;
  static constexpr EnumName<policy::AttackPolicyKind> kNames[] = {
      {policy::attack_policy_label(Static), Static},
      {policy::attack_policy_label(EpsilonGreedy), EpsilonGreedy},
      {policy::attack_policy_label(Ucb), Ucb}};
  return kNames;
}
inline EnumNames<policy::DefenderPolicyKind> enum_names(
    policy::DefenderPolicyKind) {
  using enum policy::DefenderPolicyKind;
  static constexpr EnumName<policy::DefenderPolicyKind> kNames[] = {
      {policy::defender_policy_label(Static), Static},
      {policy::defender_policy_label(Adaptive), Adaptive}};
  return kNames;
}

/// Visits every digested ScenarioConfig field in digest order.  `Config` is
/// ScenarioConfig or const ScenarioConfig; rows bind to its members.
template <class Config, class Visit>
  requires std::is_same_v<std::remove_const_t<Config>, ScenarioConfig>
void for_each_field(Config& c, Visit&& visit) {
  const auto key = [&](std::string_view name, auto& field) {
    visit(KeyedField{name, field});
  };
  const auto code = [&](auto& field) { visit(CodeField{field}); };

  auto& t = c.topology;
  code(t.region.lo.x);
  code(t.region.lo.y);
  code(t.region.hi.x);
  code(t.region.hi.y);
  key("topology.node_count", t.node_count);
  key("topology.comm_range", t.comm_range);
  key("topology.deployment", t.deployment);
  code(t.sink_at_center);
  code(t.sink_position.x);
  code(t.sink_position.y);
  key("topology.mean_data_rate_bps", t.mean_data_rate_bps);
  key("topology.battery_capacity", t.battery_capacity);
  key("topology.min_separation", t.min_separation);
  code(t.cluster_count);
  code(t.cluster_sigma_fraction);
  code(t.cluster_background_fraction);
  key("topology.corridor_count", t.corridor_count);
  key("topology.class_count", t.class_count);
  key("topology.class_capacity_ratio", t.class_capacity_ratio);
  key("topology.class_rate_ratio", t.class_rate_ratio);
  code(t.max_attempts);

  auto& w = c.world;
  key("world.request_threshold", w.request_threshold);
  key("world.min_request_gap", w.min_request_gap);
  key("world.patience", w.patience);
  code(w.charge_target_fraction);
  code(w.benign_gain_mean);
  code(w.benign_gain_cv);
  key("world.initial_level_min", w.initial_level_min);
  key("world.initial_level_max", w.initial_level_max);
  key("world.emergency_enabled", w.emergency_enabled);
  code(w.emergency_fraction);
  code(w.emergency_patience);
  key("world.hardware_mtbf", w.hardware_mtbf);
  code(w.update_mode);
  key("world.source_power", w.charging.source_power);
  code(w.charging.gain_product);
  code(w.charging.beta);
  code(w.charging.max_range);
  code(w.charging.dock_distance);
  code(w.charging.wavelength);
  code(w.charging.rectifier.sensitivity);
  code(w.charging.rectifier.max_efficiency);
  code(w.charging.rectifier.knee);
  code(w.charging.rectifier.dc_cap);
  code(w.routing.hop_cost);
  key("world.sensing_power", w.drain.sensing_power);
  code(w.drain.radio.e_elec);
  code(w.drain.radio.e_amp);
  key("mobility.fraction", w.mobility.fraction);
  key("mobility.interval", w.mobility.interval);
  key("mobility.speed_min", w.mobility.speed_min);
  key("mobility.speed_max", w.mobility.speed_max);
  key("mobility.pause_min", w.mobility.pause_min);
  key("mobility.pause_max", w.mobility.pause_max);
  key("coverage.k", w.coverage.k);
  key("coverage.radius", w.coverage.radius);
  key("coverage.bonus", w.coverage.bonus);

  // Both chargers share a layout; only the honest one's speed has a key.
  const auto charger = [&](auto& m, auto&& speed) {
    code(m.depot.x);
    code(m.depot.y);
    speed(m.speed);
    code(m.battery_capacity);
    code(m.travel_cost_per_meter);
    code(m.pa_efficiency);
    code(m.depot_recharge_power);
  };

  auto& a = c.attack;
  charger(a.charger, code);
  key("attack.key_rule", a.key_selection.rule);
  key("attack.key_count", a.key_selection.max_count);
  code(a.key_selection.min_disconnect);
  code(a.spoofing.antenna_separation);
  code(a.spoofing.phase_jitter_sigma);
  code(a.spoofing.amplitude_imbalance);
  key("attack.spoof_mode", a.spoof_mode);
  key("attack.partial_leak_ratio", a.partial_leak_ratio);
  code(a.window_margin);
  key("attack.lookahead", a.lookahead);
  code(a.campaign_deadline);
  code(a.campaign_slack);
  key("attack.pace_limit", a.pace_limit);
  key("attack.pace_window", a.pace_window);
  code(a.comm_antenna_offset);
  code(a.battery_reserve_fraction);
  code(a.territory);

  auto& b = c.benign;
  charger(b.charger, [&](auto& speed) { key("benign.speed", speed); });
  key("benign.policy", b.policy);
  code(b.preempt_travel);
  code(b.battery_reserve_fraction);
  code(b.territory);
  code(b.tour_batch);
  code(b.tour_max_wait);

  key("horizon", c.horizon);
  key("hardened_detectors", c.hardened_detectors);

  auto& f = c.faults;
  key("faults.mc_breakdown_mtbf", f.mc_breakdown_mtbf);
  key("faults.mc_repair_mean", f.mc_repair_mean);
  key("faults.mc_budget_loss", f.mc_budget_loss);
  key("faults.mc_permanent_at", f.mc_permanent_at);
  key("faults.node_burst_mtbf", f.node_burst_mtbf);
  key("faults.node_burst_size", f.node_burst_size);
  key("faults.phase_noise_mtbf", f.phase_noise_mtbf);
  key("faults.phase_noise_duration", f.phase_noise_duration);
  key("faults.phase_noise_scale", f.phase_noise_scale);
  key("faults.escalation_drop_prob", f.escalation_drop_prob);
  key("faults.escalation_delay_prob", f.escalation_delay_prob);
  key("faults.escalation_delay_max", f.escalation_delay_max);
  key("faults.battery_drift_mtbf", f.battery_drift_mtbf);
  key("faults.battery_drift_power", f.battery_drift_power);
  key("faults.battery_drift_duration", f.battery_drift_duration);

  key("fleet.size", c.fleet_size);
  key("fleet.compromised", c.fleet_compromised);

  auto& p = c.policy;
  key("policy.attacker", p.attacker.kind);
  key("policy.epsilon", p.attacker.epsilon);
  key("policy.ucb_c", p.attacker.ucb_c);
  key("policy.epoch", p.attacker.epoch);
  key("policy.risk_weight", p.attacker.risk_weight);
  key("policy.risk_budget", p.attacker.risk_budget);
  key("policy.defender", p.defender.kind);
  key("policy.defender_window", p.defender.window);
  key("policy.defender_quantile", p.defender.quantile);
  key("policy.defender_min_samples", p.defender.min_samples);
}

}  // namespace wrsn::analysis
