#include "analysis/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/check.hpp"

namespace wrsn::analysis {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

double to_double(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "': cannot parse number '" +
                      value + "'");
  }
  if (consumed != value.size()) {
    throw ConfigError("config key '" + key + "': trailing junk in '" + value +
                      "'");
  }
  return parsed;
}

std::size_t to_size(const std::string& key, const std::string& value) {
  const double parsed = to_double(key, value);
  if (parsed < 0.0 || parsed != std::floor(parsed)) {
    throw ConfigError("config key '" + key + "': expected a non-negative "
                      "integer, got '" + value + "'");
  }
  return static_cast<std::size_t>(parsed);
}

bool to_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw ConfigError("config key '" + key + "': expected a boolean, got '" +
                    value + "'");
}

net::KeyNodeRule to_key_rule(const std::string& key,
                             const std::string& value) {
  if (value == "articulation") return net::KeyNodeRule::Articulation;
  if (value == "top-traffic") return net::KeyNodeRule::TopTraffic;
  if (value == "hybrid") return net::KeyNodeRule::Hybrid;
  throw ConfigError("config key '" + key +
                    "': expected articulation|top-traffic|hybrid");
}

csa::SpoofMode to_spoof_mode(const std::string& key,
                             const std::string& value) {
  if (value == "phase-cancel") return csa::SpoofMode::PhaseCancel;
  if (value == "partial-cancel") return csa::SpoofMode::PartialCancel;
  if (value == "silent-skip") return csa::SpoofMode::SilentSkip;
  if (value == "no-service") return csa::SpoofMode::NoService;
  throw ConfigError(
      "config key '" + key +
      "': expected phase-cancel|partial-cancel|silent-skip|no-service");
}

mc::SchedulePolicy to_policy(const std::string& key,
                             const std::string& value) {
  if (value == "njnp") return mc::SchedulePolicy::Njnp;
  if (value == "edf") return mc::SchedulePolicy::Edf;
  if (value == "fcfs") return mc::SchedulePolicy::Fcfs;
  if (value == "tour") return mc::SchedulePolicy::Tour;
  throw ConfigError("config key '" + key + "': expected njnp|edf|fcfs|tour");
}

}  // namespace

std::map<std::string, std::string> parse_ini(std::istream& in) {
  std::map<std::string, std::string> entries;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    if (stripped.front() == '[' && stripped.back() == ']') continue;

    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(line_number) +
                        ": expected 'key = value', got '" + stripped + "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw ConfigError("config line " + std::to_string(line_number) +
                        ": empty key or value");
    }
    if (!entries.emplace(key, value).second) {
      throw ConfigError("config line " + std::to_string(line_number) +
                        ": duplicate key '" + key + "'");
    }
  }
  return entries;
}

ScenarioConfig apply_config(
    const ScenarioConfig& base,
    const std::map<std::string, std::string>& entries) {
  ScenarioConfig cfg = base;

  using Setter = std::function<void(const std::string&, const std::string&)>;
  const std::map<std::string, Setter> setters = {
      // topology
      {"topology.node_count",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.node_count = to_size(k, v);
       }},
      {"topology.comm_range",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.comm_range = to_double(k, v);
       }},
      {"topology.region_size",
       [&](const std::string& k, const std::string& v) {
         const double side = to_double(k, v);
         cfg.topology.region = {{0.0, 0.0}, {side, side}};
       }},
      {"topology.mean_data_rate_bps",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.mean_data_rate_bps = to_double(k, v);
       }},
      {"topology.battery_capacity",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.battery_capacity = to_double(k, v);
       }},
      {"topology.deployment",
       [&](const std::string& k, const std::string& v) {
         if (v == "uniform") {
           cfg.topology.deployment = net::Deployment::Uniform;
         } else if (v == "grid") {
           cfg.topology.deployment = net::Deployment::Grid;
         } else if (v == "clustered") {
           cfg.topology.deployment = net::Deployment::Clustered;
         } else if (v == "corridor") {
           cfg.topology.deployment = net::Deployment::Corridor;
         } else {
           throw ConfigError("config key '" + k +
                             "': expected uniform|grid|clustered|corridor");
         }
       }},
      {"topology.min_separation",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.min_separation = to_double(k, v);
       }},
      {"topology.corridor_count",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.corridor_count = to_size(k, v);
       }},
      {"topology.class_count",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.class_count = to_size(k, v);
       }},
      {"topology.class_capacity_ratio",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.class_capacity_ratio = to_double(k, v);
       }},
      {"topology.class_rate_ratio",
       [&](const std::string& k, const std::string& v) {
         cfg.topology.class_rate_ratio = to_double(k, v);
       }},
      // mobility
      {"mobility.fraction",
       [&](const std::string& k, const std::string& v) {
         cfg.world.mobility.fraction = to_double(k, v);
       }},
      {"mobility.interval",
       [&](const std::string& k, const std::string& v) {
         cfg.world.mobility.interval = to_double(k, v);
       }},
      {"mobility.speed_min",
       [&](const std::string& k, const std::string& v) {
         cfg.world.mobility.speed_min = to_double(k, v);
       }},
      {"mobility.speed_max",
       [&](const std::string& k, const std::string& v) {
         cfg.world.mobility.speed_max = to_double(k, v);
       }},
      {"mobility.pause_min",
       [&](const std::string& k, const std::string& v) {
         cfg.world.mobility.pause_min = to_double(k, v);
       }},
      {"mobility.pause_max",
       [&](const std::string& k, const std::string& v) {
         cfg.world.mobility.pause_max = to_double(k, v);
       }},
      // k-coverage utility
      {"coverage.k",
       [&](const std::string& k, const std::string& v) {
         cfg.world.coverage.k = to_size(k, v);
       }},
      {"coverage.radius",
       [&](const std::string& k, const std::string& v) {
         cfg.world.coverage.radius = to_double(k, v);
       }},
      {"coverage.bonus",
       [&](const std::string& k, const std::string& v) {
         cfg.world.coverage.bonus = to_double(k, v);
       }},
      // world
      {"world.request_threshold",
       [&](const std::string& k, const std::string& v) {
         cfg.world.request_threshold = to_double(k, v);
       }},
      {"world.patience",
       [&](const std::string& k, const std::string& v) {
         cfg.world.patience = to_double(k, v);
       }},
      {"world.min_request_gap",
       [&](const std::string& k, const std::string& v) {
         cfg.world.min_request_gap = to_double(k, v);
       }},
      {"world.hardware_mtbf",
       [&](const std::string& k, const std::string& v) {
         cfg.world.hardware_mtbf = to_double(k, v);
       }},
      {"world.emergency_enabled",
       [&](const std::string& k, const std::string& v) {
         cfg.world.emergency_enabled = to_bool(k, v);
       }},
      {"world.sensing_power",
       [&](const std::string& k, const std::string& v) {
         cfg.world.drain.sensing_power = to_double(k, v);
       }},
      {"world.initial_level_min",
       [&](const std::string& k, const std::string& v) {
         cfg.world.initial_level_min = to_double(k, v);
       }},
      {"world.initial_level_max",
       [&](const std::string& k, const std::string& v) {
         cfg.world.initial_level_max = to_double(k, v);
       }},
      {"world.source_power",
       [&](const std::string& k, const std::string& v) {
         cfg.world.charging.source_power = to_double(k, v);
       }},
      // benign charger
      {"benign.policy",
       [&](const std::string& k, const std::string& v) {
         cfg.benign.policy = to_policy(k, v);
       }},
      {"benign.speed",
       [&](const std::string& k, const std::string& v) {
         cfg.benign.charger.speed = to_double(k, v);
       }},
      // attack
      {"attack.spoof_mode",
       [&](const std::string& k, const std::string& v) {
         cfg.attack.spoof_mode = to_spoof_mode(k, v);
       }},
      {"attack.key_rule",
       [&](const std::string& k, const std::string& v) {
         cfg.attack.key_selection.rule = to_key_rule(k, v);
       }},
      {"attack.key_count",
       [&](const std::string& k, const std::string& v) {
         cfg.attack.key_selection.max_count = to_size(k, v);
       }},
      {"attack.pace_limit",
       [&](const std::string& k, const std::string& v) {
         cfg.attack.pace_limit = to_size(k, v);
       }},
      {"attack.pace_window",
       [&](const std::string& k, const std::string& v) {
         cfg.attack.pace_window = to_double(k, v);
       }},
      {"attack.partial_leak_ratio",
       [&](const std::string& k, const std::string& v) {
         cfg.attack.partial_leak_ratio = to_double(k, v);
       }},
      {"attack.lookahead",
       [&](const std::string& k, const std::string& v) {
         cfg.attack.lookahead = to_double(k, v);
       }},
      // faults
      {"faults.mc_breakdown_mtbf",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.mc_breakdown_mtbf = to_double(k, v);
       }},
      {"faults.mc_repair_mean",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.mc_repair_mean = to_double(k, v);
       }},
      {"faults.mc_budget_loss",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.mc_budget_loss = to_double(k, v);
       }},
      {"faults.mc_permanent_at",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.mc_permanent_at = to_double(k, v);
       }},
      {"faults.node_burst_mtbf",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.node_burst_mtbf = to_double(k, v);
       }},
      {"faults.node_burst_size",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.node_burst_size = to_size(k, v);
       }},
      {"faults.phase_noise_mtbf",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.phase_noise_mtbf = to_double(k, v);
       }},
      {"faults.phase_noise_duration",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.phase_noise_duration = to_double(k, v);
       }},
      {"faults.phase_noise_scale",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.phase_noise_scale = to_double(k, v);
       }},
      {"faults.escalation_drop_prob",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.escalation_drop_prob = to_double(k, v);
       }},
      {"faults.escalation_delay_prob",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.escalation_delay_prob = to_double(k, v);
       }},
      {"faults.escalation_delay_max",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.escalation_delay_max = to_double(k, v);
       }},
      {"faults.battery_drift_mtbf",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.battery_drift_mtbf = to_double(k, v);
       }},
      {"faults.battery_drift_power",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.battery_drift_power = to_double(k, v);
       }},
      {"faults.battery_drift_duration",
       [&](const std::string& k, const std::string& v) {
         cfg.faults.battery_drift_duration = to_double(k, v);
       }},
      // fleet
      {"fleet.size",
       [&](const std::string& k, const std::string& v) {
         cfg.fleet_size = to_size(k, v);
         if (cfg.fleet_size == 0) {
           throw ConfigError("'" + k + "' must be >= 1");
         }
       }},
      {"fleet.compromised",
       [&](const std::string& k, const std::string& v) {
         cfg.fleet_compromised = to_size(k, v);
       }},
      // policy (DESIGN.md §15)
      {"policy.attacker",
       [&](const std::string&, const std::string& v) {
         cfg.policy.attacker.kind = policy::parse_attack_policy(v);
       }},
      {"policy.epsilon",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.attacker.epsilon = to_double(k, v);
       }},
      {"policy.ucb_c",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.attacker.ucb_c = to_double(k, v);
       }},
      {"policy.epoch",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.attacker.epoch = to_double(k, v);
       }},
      {"policy.risk_weight",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.attacker.risk_weight = to_double(k, v);
       }},
      {"policy.risk_budget",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.attacker.risk_budget = to_size(k, v);
       }},
      {"policy.defender",
       [&](const std::string&, const std::string& v) {
         cfg.policy.defender.kind = policy::parse_defender_policy(v);
       }},
      {"policy.defender_window",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.defender.window = to_double(k, v);
       }},
      {"policy.defender_quantile",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.defender.quantile = to_double(k, v);
       }},
      {"policy.defender_min_samples",
       [&](const std::string& k, const std::string& v) {
         cfg.policy.defender.min_samples = to_size(k, v);
       }},
      // run
      {"horizon",
       [&](const std::string& k, const std::string& v) {
         cfg.horizon = to_double(k, v);
         cfg.attack.campaign_deadline = cfg.horizon;
       }},
      {"seed",
       [&](const std::string& k, const std::string& v) {
         cfg.seed = static_cast<std::uint64_t>(to_size(k, v));
       }},
      {"hardened_detectors",
       [&](const std::string& k, const std::string& v) {
         cfg.hardened_detectors = to_bool(k, v);
       }},
  };

  for (const auto& [key, value] : entries) {
    const auto it = setters.find(key);
    if (it == setters.end()) {
      throw ConfigError("unknown config key '" + key + "'");
    }
    it->second(key, value);
  }
  // The simulator runs to the horizon, so an infinite one need never
  // return; a NaN or non-positive one describes no mission.
  if (!std::isfinite(cfg.horizon) || cfg.horizon <= 0.0) {
    throw ConfigError("horizon must be finite and > 0");
  }
  // Fault parameters carry cross-field constraints (e.g. drop + delay
  // probabilities summing past 1), so the whole section validates at load
  // time rather than at the first run_mission call.  The topology class /
  // corridor knobs and the mobility/coverage sections carry the same kind
  // of constraints (speed and pause ordering, positive ratios), so they
  // validate here too.
  cfg.faults.validate();
  cfg.topology.validate();
  cfg.world.mobility.validate();
  cfg.world.coverage.validate();
  cfg.policy.validate();
  return cfg;
}

ScenarioConfig load_config(std::istream& in) {
  return apply_config(default_scenario(), parse_ini(in));
}

ScenarioConfig load_config_file(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    throw ConfigError("cannot open config file '" + path + "'");
  }
  return load_config(file);
}

}  // namespace wrsn::analysis
