#include "analysis/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

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
/// ordered range checks and can stall or crash a mission.  The grammar is
/// from_chars' general format over the whole token: an optional '-', digits
/// with an optional fraction and exponent.  No leading whitespace, '+' or
/// hex float.  A value that overflows, or underflows to a subnormal, is
/// "not a number", the message it has always had.
double parse_real(std::string_view key, const std::string& value) {
  double parsed = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, error] = std::from_chars(value.data(), end, parsed);
  if (error == std::errc::invalid_argument ||
      error == std::errc::result_out_of_range ||
      std::fpclassify(parsed) == FP_SUBNORMAL) {
    bad_value(key, value, "a number");
  }
  if (ptr != end || !std::isfinite(parsed)) {
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

/// The field list's keyed rows sorted by key, each with its ordinal (its
/// place among the keyed rows in field order).  Built once from
/// for_each_field itself, so it cannot drift from the list, and shared by
/// every thread.  Lookups rely on the keys being unique and on no key being
/// `topology.region_size` or `seed` (config_test pins both).
using KeyIndex = std::vector<std::pair<std::string_view, std::uint16_t>>;

const KeyIndex& key_index() {
  static const KeyIndex index = [] {
    KeyIndex rows;
    ScenarioConfig scratch;  // rows bind to a config; only keys are read
    for_each_field(scratch, [&]<class Row>(const Row& row) {
      if constexpr (is_keyed_field<Row>) {
        rows.emplace_back(row.key, static_cast<std::uint16_t>(rows.size()));
      }
    });
    std::sort(rows.begin(), rows.end());
    return rows;
  }();
  return index;
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
  return apply_config(base, entries, entries.end());
}

ScenarioConfig apply_config(
    const ScenarioConfig& base,
    const std::map<std::string, std::string>& entries,
    std::map<std::string, std::string>::const_iterator skip) {
  // One lookup per entry.  A keyed row's entry is kept as (ordinal,
  // value); the special keys and the first unknown key in map order are set
  // aside, so the errors below still win in the documented order.
  const KeyIndex& index = key_index();
  std::vector<std::pair<std::uint16_t, const std::string*>> matched;
  matched.reserve(std::min(entries.size(), index.size()));
  const std::string* region_size = nullptr;
  const std::string* seed = nullptr;
  const std::string* unknown = nullptr;
  bool horizon_given = false;
  bool fleet_size_given = false;
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it == skip) continue;
    const auto& [key, value] = *it;
    const auto row = std::lower_bound(
        index.begin(), index.end(), key,
        [](const auto& r, std::string_view k) { return r.first < k; });
    if (row != index.end() && row->first == key) {
      matched.emplace_back(row->second, &value);
      horizon_given = horizon_given || key == "horizon";
      fleet_size_given = fleet_size_given || key == "fleet.size";
    } else if (key == "topology.region_size") {
      region_size = &value;
    } else if (key == "seed") {
      seed = &value;
    } else if (unknown == nullptr) {
      unknown = &key;
    }
  }

  // Parse the given rows in one field-order pass: the first bad value in
  // field order wins.
  std::sort(matched.begin(), matched.end());
  ScenarioConfig cfg = base;
  auto next = matched.begin();
  std::uint16_t ordinal = 0;
  for_each_field(cfg, [&]<class Row>(const Row& row) {
    if constexpr (is_keyed_field<Row>) {
      if (next != matched.end() && next->first == ordinal) {
        parse_into(row.key, *next->second, row.value);
        ++next;
      }
      ++ordinal;
    }
  });
  // The three special-cased keys (see config_fields.hpp).
  if (region_size != nullptr) {
    const double side = parse_real("topology.region_size", *region_size);
    cfg.topology.region = {{0.0, 0.0}, {side, side}};
  }
  if (seed != nullptr) {
    cfg.seed = parse_integer<std::uint64_t>("seed", *seed);
  }
  if (horizon_given) cfg.attack.campaign_deadline = cfg.horizon;

  if (unknown != nullptr) {
    throw ConfigError("unknown config key '" + *unknown + "'");
  }
  if (fleet_size_given && cfg.fleet_size == 0) {
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
