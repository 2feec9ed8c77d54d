// Scenario configuration files: a minimal INI-style loader so experiments
// can be described declaratively and run from the CLI without recompiling.
//
// Format: `key = value` lines, `#` comments, optional `[section]` headers
// (sections are cosmetic; keys are globally unique, dotted):
//
//   # my_experiment.ini
//   topology.node_count = 200
//   topology.comm_range = 46
//   world.patience      = 7200
//   attack.pace_limit   = 2
//   horizon             = 432000
//   seed                = 7
//
// The accepted keys are the keyed rows of analysis/config_fields.hpp plus
// `topology.region_size` (a square region's side) and `seed`.  Unknown keys
// throw (catching typos beats silently ignoring them).  Reals are an
// optional '-', digits, an optional fraction and exponent, finite and not
// subnormal (no leading space, '+' or hex float); integers are plain decimal
// digits (no sign, fraction, exponent or overflow); enums take the names
// listed beside the field list.  Either must be the whole value.
#pragma once

#include <istream>
#include <map>
#include <string>

#include "analysis/scenario.hpp"

namespace wrsn::analysis {

/// Parses INI text into a flat key->value map.  Throws ConfigError on
/// malformed lines.
std::map<std::string, std::string> parse_ini(std::istream& in);

/// Applies `entries` on top of `base` (unset keys keep base values).
/// Throws ConfigError on unknown keys or unparsable values.  Each entry is
/// looked up once in an index over the field list, so the cost grows with
/// the keys given, not with the keys accepted.
ScenarioConfig apply_config(const ScenarioConfig& base,
                            const std::map<std::string, std::string>& entries);

/// As above, leaving out the entry at `skip` (`entries.end()` leaves out
/// none): a caller whose map also holds a key of its own, like the fuzzer's
/// `mode`, applies the rest without copying the map.
ScenarioConfig apply_config(
    const ScenarioConfig& base,
    const std::map<std::string, std::string>& entries,
    std::map<std::string, std::string>::const_iterator skip);

/// Convenience: parse + apply over default_scenario().
ScenarioConfig load_config(std::istream& in);

/// Loads a config file from disk; throws ConfigError if unreadable.
ScenarioConfig load_config_file(const std::string& path);

}  // namespace wrsn::analysis
