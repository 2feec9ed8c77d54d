#include "analysis/config_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <type_traits>

#include "analysis/config_fields.hpp"
#include "common/check.hpp"

namespace wrsn::analysis {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void bad_value(std::string_view key, const std::string& value,
                            std::string_view expected) {
  throw ConfigError("config key '" + std::string(key) + "': expected " +
                    std::string(expected) + ", got '" + value + "'");
}

/// Every real a key sets must be finite: an infinite or NaN value passes
/// ordered range checks and can stall or crash a mission.
double parse_real(std::string_view key, const std::string& value) {
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    bad_value(key, value, "a number");
  }
  if (consumed != value.size() || !std::isfinite(parsed)) {
    bad_value(key, value, "a finite number");
  }
  return parsed;
}

/// Plain decimal digits only: no sign, fraction, exponent or overflow.
template <class T>
T parse_integer(std::string_view key, const std::string& value) {
  static_assert(std::is_unsigned_v<T>);
  T parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc{} || ptr != end) {
    bad_value(key, value, "a non-negative integer");
  }
  return parsed;
}

bool parse_bool(std::string_view key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  bad_value(key, value, "a boolean");
}

template <class E>
E parse_enum(std::string_view key, const std::string& value,
             EnumNames<E> names) {
  for (const EnumName<E>& name : names) {
    if (value == name.name) return name.value;
  }
  std::string expected;
  for (const EnumName<E>& name : names) {
    if (!expected.empty()) expected += '|';
    expected += name.name;
  }
  bad_value(key, value, expected);
}

template <class T>
void parse_into(std::string_view key, const std::string& value, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = parse_bool(key, value);
  } else if constexpr (std::is_enum_v<T>) {
    out = parse_enum(key, value, enum_names(T{}));
  } else if constexpr (std::is_integral_v<T>) {
    out = parse_integer<T>(key, value);
  } else {
    static_assert(std::is_same_v<T, double>);
    out = parse_real(key, value);
  }
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
  // One reused buffer: the map's lookup takes a std::string.
  std::string probe;
  const auto find = [&](std::string_view key) -> const std::string* {
    probe.assign(key);
    const auto it = entries.find(probe);
    return it == entries.end() ? nullptr : &it->second;
  };

  std::size_t applied = 0;
  for_each_field(cfg, [&]<class Row>(const Row& row) {
    if constexpr (is_keyed_field<Row>) {
      if (const std::string* value = find(row.key)) {
        parse_into(row.key, *value, row.value);
        ++applied;
      }
    }
  });
  // The three special-cased keys (see config_fields.hpp).
  if (const std::string* value = find("topology.region_size")) {
    const double side = parse_real("topology.region_size", *value);
    cfg.topology.region = {{0.0, 0.0}, {side, side}};
    ++applied;
  }
  if (const std::string* value = find("seed")) {
    cfg.seed = parse_integer<std::uint64_t>("seed", *value);
    ++applied;
  }
  if (find("horizon")) cfg.attack.campaign_deadline = cfg.horizon;

  if (applied != entries.size()) {
    for (const auto& [key, value] : entries) {
      bool known = key == "topology.region_size" || key == "seed";
      for_each_field(cfg, [&]<class Row>(const Row& row) {
        if constexpr (is_keyed_field<Row>) known = known || row.key == key;
      });
      if (!known) throw ConfigError("unknown config key '" + key + "'");
    }
  }
  if (find("fleet.size") && cfg.fleet_size == 0) {
    throw ConfigError("'fleet.size' must be >= 1");
  }
  // The simulator runs to the horizon, so an infinite one need never
  // return; a NaN or non-positive one describes no mission.
  if (!std::isfinite(cfg.horizon) || cfg.horizon <= 0.0) {
    throw ConfigError("horizon must be finite and > 0");
  }
  // Sections with cross-field constraints (fault probabilities summing past
  // 1, speed and pause ordering, positive ratios, thresholds inside (0, 1))
  // validate at load time rather than at the first run_mission call.
  cfg.faults.validate();
  cfg.topology.validate();
  cfg.world.validate();
  cfg.policy.validate(cfg.horizon);
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
