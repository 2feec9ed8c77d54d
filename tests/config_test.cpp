// Tests for the INI scenario-configuration loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/config_fields.hpp"
#include "analysis/config_io.hpp"
#include "analysis/fuzz.hpp"
#include "common/check.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "svc/digest.hpp"

namespace wrsn::analysis {
namespace {

std::map<std::string, std::string> parse(const std::string& text) {
  std::istringstream in(text);
  return parse_ini(in);
}

/// The keys of the field list's keyed rows whose value type is `T`.
template <class T>
std::vector<std::string> keys_holding() {
  std::vector<std::string> keys;
  ScenarioConfig cfg = default_scenario();
  for_each_field(cfg, [&]<class Row>(const Row& row) {
    if constexpr (is_keyed_field<Row> &&
                  std::is_same_v<std::remove_cvref_t<decltype(row.value)>,
                                 T>) {
      keys.emplace_back(row.key);
    }
  });
  return keys;
}

TEST(Ini, ParsesKeysCommentsAndSections) {
  const auto entries = parse(
      "# comment line\n"
      "[topology]\n"
      "topology.node_count = 50   # trailing comment\n"
      "\n"
      "seed=9\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.at("topology.node_count"), "50");
  EXPECT_EQ(entries.at("seed"), "9");
}

TEST(Ini, RejectsMalformedLines) {
  EXPECT_THROW(parse("this is not a key value pair\n"), ConfigError);
  EXPECT_THROW(parse("= value\n"), ConfigError);
  EXPECT_THROW(parse("key =\n"), ConfigError);
}

TEST(Ini, RejectsDuplicateKeys) {
  EXPECT_THROW(parse("seed = 1\nseed = 2\n"), ConfigError);
}

TEST(Config, AppliesOverridesOnDefaults) {
  std::istringstream in(
      "topology.node_count = 42\n"
      "topology.region_size = 250\n"
      "world.patience = 5000\n"
      "attack.spoof_mode = partial-cancel\n"
      "attack.key_rule = top-traffic\n"
      "benign.policy = tour\n"
      "horizon = 100000\n"
      "hardened_detectors = true\n"
      "seed = 77\n");
  const ScenarioConfig cfg = load_config(in);
  EXPECT_EQ(cfg.topology.node_count, 42u);
  EXPECT_DOUBLE_EQ(cfg.topology.region.hi.x, 250.0);
  EXPECT_DOUBLE_EQ(cfg.world.patience, 5000.0);
  EXPECT_EQ(cfg.attack.spoof_mode, csa::SpoofMode::PartialCancel);
  EXPECT_EQ(cfg.attack.key_selection.rule, net::KeyNodeRule::TopTraffic);
  EXPECT_EQ(cfg.benign.policy, mc::SchedulePolicy::Tour);
  EXPECT_DOUBLE_EQ(cfg.horizon, 100'000.0);
  // Horizon propagates into the attack campaign deadline.
  EXPECT_DOUBLE_EQ(cfg.attack.campaign_deadline, 100'000.0);
  EXPECT_TRUE(cfg.hardened_detectors);
  EXPECT_EQ(cfg.seed, 77u);
}

TEST(Config, ScenarioFrontierKeysApply) {
  std::istringstream in(
      "topology.deployment = corridor\n"
      "topology.corridor_count = 2\n"
      "topology.min_separation = 4\n"
      "topology.class_count = 3\n"
      "topology.class_capacity_ratio = 2.5\n"
      "topology.class_rate_ratio = 1.5\n"
      "mobility.fraction = 0.25\n"
      "mobility.interval = 1200\n"
      "mobility.speed_min = 0.4\n"
      "mobility.speed_max = 2.0\n"
      "mobility.pause_min = 30\n"
      "mobility.pause_max = 300\n"
      "coverage.k = 2\n"
      "coverage.radius = 55\n"
      "coverage.bonus = 1.5\n");
  const ScenarioConfig cfg = load_config(in);
  EXPECT_EQ(cfg.topology.deployment, net::Deployment::Corridor);
  EXPECT_EQ(cfg.topology.corridor_count, 2u);
  EXPECT_DOUBLE_EQ(cfg.topology.min_separation, 4.0);
  EXPECT_EQ(cfg.topology.class_count, 3u);
  EXPECT_DOUBLE_EQ(cfg.topology.class_capacity_ratio, 2.5);
  EXPECT_DOUBLE_EQ(cfg.topology.class_rate_ratio, 1.5);
  EXPECT_DOUBLE_EQ(cfg.world.mobility.fraction, 0.25);
  EXPECT_DOUBLE_EQ(cfg.world.mobility.interval, 1'200.0);
  EXPECT_DOUBLE_EQ(cfg.world.mobility.speed_min, 0.4);
  EXPECT_DOUBLE_EQ(cfg.world.mobility.speed_max, 2.0);
  EXPECT_DOUBLE_EQ(cfg.world.mobility.pause_min, 30.0);
  EXPECT_DOUBLE_EQ(cfg.world.mobility.pause_max, 300.0);
  EXPECT_EQ(cfg.world.coverage.k, 2u);
  EXPECT_DOUBLE_EQ(cfg.world.coverage.radius, 55.0);
  EXPECT_DOUBLE_EQ(cfg.world.coverage.bonus, 1.5);
}

TEST(Config, ScenarioFrontierBadValuesThrow) {
  {
    std::istringstream in("topology.deployment = ring\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("mobility.fraction = 2.0\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in(
        "mobility.fraction = 0.5\nmobility.speed_max = 0.1\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("topology.class_count = 0\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("coverage.k = 1\ncoverage.bonus = -1\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
}

TEST(Config, NonFiniteTopologyValuesThrow) {
  // Each of these used to pass validation: `inf` survives every "> 0"
  // check, and a NaN fails none of them.
  for (const char* line :
       {"topology.region_size = inf\n", "topology.region_size = nan\n",
        "topology.region_size = -inf\n", "topology.comm_range = inf\n",
        "topology.comm_range = nan\n", "topology.min_separation = nan\n",
        "topology.mean_data_rate_bps = inf\n",
        "topology.battery_capacity = inf\n",
        "topology.class_capacity_ratio = inf\n",
        "topology.class_rate_ratio = nan\n"}) {
    std::istringstream in(line);
    EXPECT_THROW(load_config(in), ConfigError) << line;
  }
}

TEST(Config, NonFiniteOrNonPositiveHorizonThrows) {
  for (const char* line :
       {"horizon = inf\n", "horizon = -inf\n", "horizon = nan\n",
        "horizon = 0\n", "horizon = -3600\n"}) {
    std::istringstream in(line);
    EXPECT_THROW(load_config(in), ConfigError) << line;
  }
  std::istringstream ok("horizon = 3600\n");
  EXPECT_DOUBLE_EQ(load_config(ok).horizon, 3600.0);
}

TEST(Config, PolicyWindowsPastTheCapThrow) {
  // Both policies step once per elapsed window: a 1e-5 s defender window
  // or a 1e-4 s bandit epoch over a 3600 s mission once held a worker for
  // minutes.  Exactly kMaxPolicyWindows windows still load.
  const double cap = policy::kMaxPolicyWindows;
  for (const char* key : {"policy.defender_window", "policy.epoch"}) {
    for (const char* tiny : {"1e-9", "1e-5", "1e-3"}) {
      EXPECT_THROW(apply_config(default_scenario(),
                                {{"horizon", "3600"}, {key, tiny}}),
                   ConfigError)
          << key << '=' << tiny;
    }
    EXPECT_THROW(apply_config(default_scenario(),
                              {{"horizon", std::to_string(cap * 2.0)},
                               {key, "1.5"}}),
                 ConfigError)
        << key;
    EXPECT_NO_THROW(apply_config(
        default_scenario(),
        {{"horizon", std::to_string(cap * 2.0)}, {key, "2"}}))
        << key;
  }
}

TEST(Config, EveryRealKeyRejectsNonFiniteValues) {
  // An infinite sensing power once held a service worker at full CPU, and
  // a NaN mobility interval reached the event kernel.
  std::vector<std::string> keys = keys_holding<double>();
  keys.emplace_back("topology.region_size");
  ASSERT_EQ(keys.size(), 48u);
  ASSERT_EQ(std::count(keys.begin(), keys.end(), "horizon"), 1);
  for (const std::string& key : keys) {
    for (const char* value : {"inf", "-inf", "nan"}) {
      EXPECT_THROW(apply_config(default_scenario(), {{key, value}}),
                   ConfigError)
          << key << '=' << value;
    }
  }
}

TEST(Config, SeedRoundTripsExactly) {
  // Both once went through a double: the first lost its last bit, the
  // second overflowed the cast back to an integer.
  for (const std::uint64_t seed :
       {std::uint64_t{9'007'199'254'740'993u},
        std::uint64_t{18'446'744'073'709'551'615u}, std::uint64_t{0}}) {
    EXPECT_EQ(
        apply_config(default_scenario(), {{"seed", std::to_string(seed)}})
            .seed,
        seed);
  }
}

TEST(Config, EveryIntegerKeyRejectsAnythingButPlainDigits) {
  std::vector<std::string> keys = keys_holding<std::size_t>();
  keys.emplace_back("seed");
  ASSERT_EQ(keys.size(), 12u);
  for (const std::string& key : keys) {
    for (const char* value : {"inf", "1e30", "1e3", "-1", "+5", "12.5",
                              "18446744073709551616", "0x10", " 5"}) {
      EXPECT_THROW(apply_config(default_scenario(), {{key, value}}),
                   ConfigError)
          << key << '=' << value;
    }
  }
}

TEST(Config, FieldListKeysAreDistinct) {
  std::set<std::string> keys;
  std::size_t rows = 0;
  ScenarioConfig cfg = default_scenario();
  for_each_field(cfg, [&]<class Row>(const Row& row) {
    if constexpr (is_keyed_field<Row>) {
      keys.emplace(row.key);
      ++rows;
    }
  });
  // With topology.region_size and seed, the 68 accepted keys.  apply_config
  // resolves keys through an index over these rows, which relies on the
  // keys being unique and on neither special key having a row.
  EXPECT_EQ(rows, 66u);
  EXPECT_EQ(keys.size(), rows);
  EXPECT_FALSE(keys.contains("seed"));
  EXPECT_FALSE(keys.contains("topology.region_size"));
}

TEST(Config, WorldSectionValidatesAtLoadTime) {
  // Each once loaded and failed only when a mission started.
  for (const char* line :
       {"world.request_threshold = 2\n", "world.request_threshold = 0.01\n",
        "world.initial_level_min = 0\n", "world.patience = 0\n"}) {
    std::istringstream in(line);
    EXPECT_THROW(load_config(in), ConfigError) << line;
  }
}

TEST(Config, UnsetKeysKeepDefaults) {
  std::istringstream in("seed = 3\n");
  const ScenarioConfig cfg = load_config(in);
  const ScenarioConfig defaults = default_scenario();
  EXPECT_EQ(cfg.topology.node_count, defaults.topology.node_count);
  EXPECT_DOUBLE_EQ(cfg.world.patience, defaults.world.patience);
  EXPECT_EQ(cfg.seed, 3u);
}

TEST(Config, UnknownKeyThrows) {
  std::istringstream in("topology.node_cnt = 10\n");  // typo
  EXPECT_THROW(load_config(in), ConfigError);
}

TEST(Config, BadValuesThrow) {
  {
    std::istringstream in("topology.node_count = fifty\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("topology.node_count = 12.5\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("hardened_detectors = maybe\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("attack.spoof_mode = invisible\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("world.patience = 5000km\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
}

TEST(Config, FaultSectionRoundTrips) {
  std::istringstream in(
      "[faults]\n"
      "faults.mc_breakdown_mtbf = 1800\n"
      "faults.mc_repair_mean = 600\n"
      "faults.mc_budget_loss = 0.1\n"
      "faults.mc_permanent_at = 43200\n"
      "faults.node_burst_mtbf = 3600\n"
      "faults.node_burst_size = 3\n"
      "faults.phase_noise_mtbf = 7200\n"
      "faults.phase_noise_duration = 1200\n"
      "faults.phase_noise_scale = 25\n"
      "faults.escalation_drop_prob = 0.25\n"
      "faults.escalation_delay_prob = 0.5\n"
      "faults.escalation_delay_max = 900\n"
      "faults.battery_drift_mtbf = 7200\n"
      "faults.battery_drift_power = 0.004\n"
      "faults.battery_drift_duration = 3600\n"
      "seed = 4\n");
  const ScenarioConfig cfg = load_config(in);
  EXPECT_DOUBLE_EQ(cfg.faults.mc_breakdown_mtbf, 1'800.0);
  EXPECT_DOUBLE_EQ(cfg.faults.mc_repair_mean, 600.0);
  EXPECT_DOUBLE_EQ(cfg.faults.mc_budget_loss, 0.1);
  EXPECT_DOUBLE_EQ(cfg.faults.mc_permanent_at, 43'200.0);
  EXPECT_DOUBLE_EQ(cfg.faults.node_burst_mtbf, 3'600.0);
  EXPECT_EQ(cfg.faults.node_burst_size, 3u);
  EXPECT_DOUBLE_EQ(cfg.faults.phase_noise_mtbf, 7'200.0);
  EXPECT_DOUBLE_EQ(cfg.faults.phase_noise_duration, 1'200.0);
  EXPECT_DOUBLE_EQ(cfg.faults.phase_noise_scale, 25.0);
  EXPECT_DOUBLE_EQ(cfg.faults.escalation_drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(cfg.faults.escalation_delay_prob, 0.5);
  EXPECT_DOUBLE_EQ(cfg.faults.escalation_delay_max, 900.0);
  EXPECT_DOUBLE_EQ(cfg.faults.battery_drift_mtbf, 7'200.0);
  EXPECT_DOUBLE_EQ(cfg.faults.battery_drift_power, 0.004);
  EXPECT_DOUBLE_EQ(cfg.faults.battery_drift_duration, 3'600.0);
  EXPECT_TRUE(cfg.faults.any());
}

TEST(Config, FaultsDefaultDisabled) {
  std::istringstream in("seed = 1\n");
  const ScenarioConfig cfg = load_config(in);
  EXPECT_FALSE(cfg.faults.any());
}

TEST(Config, InvalidFaultValuesRejectedAtLoadTime) {
  // apply_config runs FaultParams::validate, so cross-field constraints
  // surface when the file is loaded, not when the mission starts.
  {
    std::istringstream in("faults.mc_breakdown_mtbf = -5\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in(
        "faults.mc_breakdown_mtbf = 3600\n"
        "faults.mc_repair_mean = 0\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in(
        "faults.node_burst_mtbf = 3600\n"
        "faults.node_burst_size = 0\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in(
        "faults.phase_noise_mtbf = 3600\n"
        "faults.phase_noise_duration = 600\n"
        "faults.phase_noise_scale = 0.5\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in(
        "faults.escalation_drop_prob = 0.7\n"
        "faults.escalation_delay_prob = 0.7\n"
        "faults.escalation_delay_max = 60\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
  {
    std::istringstream in("faults.escalation_drop_prob = 1.5\n");
    EXPECT_THROW(load_config(in), ConfigError);
  }
}

TEST(Config, InitialLevelOverridesApply) {
  std::istringstream in(
      "world.initial_level_min = 0.35\n"
      "world.initial_level_max = 0.55\n");
  const ScenarioConfig cfg = load_config(in);
  EXPECT_DOUBLE_EQ(cfg.world.initial_level_min, 0.35);
  EXPECT_DOUBLE_EQ(cfg.world.initial_level_max, 0.55);
}

TEST(Config, FaultedConfigRunsDeterministically) {
  const char* text =
      "topology.node_count = 30\n"
      "topology.region_size = 220\n"
      "horizon = 86400\n"
      "seed = 8\n"
      "[faults]\n"
      "faults.mc_breakdown_mtbf = 14400\n"
      "faults.mc_repair_mean = 1800\n"
      "faults.escalation_delay_prob = 0.3\n"
      "faults.escalation_delay_max = 600\n";
  std::istringstream in_a(text), in_b(text);
  const ScenarioResult a = run_mission(load_config(in_a), ChargerMode::Benign);
  const ScenarioResult b = run_mission(load_config(in_b), ChargerMode::Benign);
  EXPECT_EQ(a.trace.sessions.size(), b.trace.sessions.size());
  EXPECT_EQ(a.fault_stats.mc_breakdowns, b.fault_stats.mc_breakdowns);
  EXPECT_EQ(a.fault_stats.escalations_delayed, b.fault_stats.escalations_delayed);
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW(load_config_file("/nonexistent/config.ini"), ConfigError);
}

TEST(Config, LoadedConfigValidatesAndRuns) {
  std::istringstream in(
      "topology.node_count = 40\n"
      "topology.region_size = 220\n"
      "horizon = 86400\n"
      "seed = 5\n");
  const ScenarioConfig cfg = load_config(in);
  EXPECT_NO_THROW(cfg.topology.validate());
  EXPECT_NO_THROW(cfg.world.validate());
  const ScenarioResult result = run_mission(cfg, ChargerMode::Benign);
  EXPECT_EQ(result.node_count, 40u);
}

// ---------------------------------------------------------------------------
// Resolution spec.  Values captured before apply_config looked keys up
// through an index over the field list: the configs it builds, the
// exception each failing set throws and which error wins must not move.
// ---------------------------------------------------------------------------

/// The message of the ConfigError resolving `entries` throws; any other
/// outcome reads as "<what>: <message>" or "ok".
std::string resolve_error(const std::map<std::string, std::string>& entries) {
  try {
    (void)resolve_overrides(entries);
  } catch (const ConfigError& e) {
    return e.what();
  } catch (const PreconditionError& e) {
    return std::string("PreconditionError: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("other: ") + e.what();
  }
  return "ok";
}

TEST(ConfigSpec, FuzzedOverrideSetsResolveToPinnedDigests) {
  Rng gen = Rng(2027).fork("config-spec");
  Fnv fold;
  std::size_t keys = 0;
  for (int i = 0; i < 2000; ++i) {
    const FuzzOverrides overrides = generate_fuzz_overrides(gen);
    keys += overrides.size();
    const auto [cfg, mode] = resolve_overrides(overrides);
    fold.mix(svc::scenario_digest(cfg, mode));
    fold.mix(cfg.seed);
  }
  EXPECT_EQ(keys, 54682u);
  EXPECT_EQ(fold.hash(), 5879960866106698515u);
}

TEST(ConfigSpec, FailingSetsThrowPinnedErrors) {
  struct Case {
    std::map<std::string, std::string> entries;
    const char* error;
  };
  const Case cases[] = {
      {{{"topology.node_cnt", "10"}},
       "unknown config key 'topology.node_cnt'"},
      {{{"world.patience", "fast"}},
       "config key 'world.patience': expected a number, got 'fast'"},
      {{{"world.patience", "5000km"}},
       "config key 'world.patience': expected a finite number, got '5000km'"},
      // Reals take from_chars' grammar over the whole token, as integers
      // do: no leading whitespace, '+' or hex float.  Out-of-range values,
      // subnormals included, stay "not a number".
      {{{"world.patience", " 5000"}},
       "config key 'world.patience': expected a number, got ' 5000'"},
      {{{"world.patience", "+5000"}},
       "config key 'world.patience': expected a number, got '+5000'"},
      {{{"world.patience", "0x1p12"}},
       "config key 'world.patience': expected a finite number, got '0x1p12'"},
      {{{"world.patience", "1e999"}},
       "config key 'world.patience': expected a number, got '1e999'"},
      {{{"world.patience", "4e-320"}},
       "config key 'world.patience': expected a number, got '4e-320'"},
      {{{"topology.node_count", " 20"}},
       "config key 'topology.node_count': expected a non-negative "
       "integer, got ' 20'"},
      {{{"topology.node_count", "fifty"}},
       "config key 'topology.node_count': expected a non-negative "
       "integer, got 'fifty'"},
      {{{"hardened_detectors", "maybe"}},
       "config key 'hardened_detectors': expected a boolean, got 'maybe'"},
      {{{"attack.spoof_mode", "invisible"}},
       "config key 'attack.spoof_mode': expected "
       "phase-cancel|partial-cancel|silent-skip|no-service, got 'invisible'"},
      {{{"topology.region_size", "wide"}},
       "config key 'topology.region_size': expected a number, got 'wide'"},
      {{{"seed", "-1"}},
       "config key 'seed': expected a non-negative integer, got '-1'"},
      {{{"fleet.size", "0"}}, "'fleet.size' must be >= 1"},
      {{{"horizon", "0"}}, "horizon must be finite and > 0"},
      {{{"world.request_threshold", "2"}},
       "request_threshold must be in (0, 1)"},
      // A bad value wins over an unknown key, whichever sorts first.
      {{{"aaa.unknown", "1"}, {"world.patience", "x"}},
       "config key 'world.patience': expected a number, got 'x'"},
      {{{"zzz.unknown", "1"}, {"world.patience", "x"}},
       "config key 'world.patience': expected a number, got 'x'"},
      // Bad keyed values win in field order, not in key order.
      {{{"policy.epsilon", "x"}, {"topology.node_count", "y"}},
       "config key 'topology.node_count': expected a non-negative "
       "integer, got 'y'"},
      // Then topology.region_size, then seed, then the first unknown key.
      {{{"topology.region_size", "x"}, {"world.patience", "y"}},
       "config key 'world.patience': expected a number, got 'y'"},
      {{{"seed", "x"}, {"topology.region_size", "y"}},
       "config key 'topology.region_size': expected a number, got 'y'"},
      {{{"aaa.unknown", "1"}, {"seed", "x"}},
       "config key 'seed': expected a non-negative integer, got 'x'"},
      {{{"zzz.unknown", "1"}, {"aaa.unknown", "1"}},
       "unknown config key 'aaa.unknown'"},
      // Then fleet.size, then the horizon, then the section validators.
      {{{"fleet.size", "0"}, {"zzz.unknown", "1"}},
       "unknown config key 'zzz.unknown'"},
      {{{"fleet.size", "0"}, {"horizon", "-5"}},
       "'fleet.size' must be >= 1"},
      {{{"horizon", "-5"}, {"world.request_threshold", "2"}},
       "horizon must be finite and > 0"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(resolve_error(c.entries), c.error) << format_repro(c.entries);
  }
}

TEST(Config, BadModeThrowsConfigErrorFirst) {
  // The mode is checked before any config key, as a ConfigError in the
  // form every other bad value uses.
  EXPECT_EQ(resolve_error({{"mode", "foo"}, {"seed", "1"}}),
            "config key 'mode': expected attack|benign, got 'foo'");
  EXPECT_EQ(resolve_error({{"mode", "Attack"}, {"aaa.unknown", "1"},
                           {"world.patience", "x"}}),
            "config key 'mode': expected attack|benign, got 'Attack'");
  EXPECT_EQ(resolve_overrides({{"mode", "benign"}}).second,
            ChargerMode::Benign);
  EXPECT_EQ(resolve_overrides({{"mode", "attack"}}).second,
            ChargerMode::Attack);
  EXPECT_EQ(resolve_overrides({{"seed", "4"}}).second, ChargerMode::Attack);
}

TEST(Config, ResolveOverridesAppliesOverABase) {
  // wrsn_cli --repro applies the line over a --config base through this
  // overload, so its mode grammar and errors are the service's.
  ScenarioConfig base = default_scenario();
  base.topology.node_count = 77;
  const auto [cfg, mode] =
      resolve_overrides(base, {{"mode", "benign"}, {"seed", "3"}});
  EXPECT_EQ(cfg.topology.node_count, 77u);
  EXPECT_EQ(cfg.seed, 3u);
  EXPECT_EQ(mode, ChargerMode::Benign);
  try {
    (void)resolve_overrides(base, {{"mode", "foo"}, {"seed", "1"}});
    ADD_FAILURE() << "mode=foo resolved";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "config key 'mode': expected attack|benign, got 'foo'");
  }
}

TEST(ConfigSpec, SpecialKeysApply) {
  const ScenarioConfig defaults = default_scenario();
  const ScenarioConfig cfg = apply_config(
      defaults, {{"topology.region_size", "1234.5"},
                 {"seed", "18446744073709551615"},
                 {"horizon", "5000"}});
  EXPECT_EQ(cfg.topology.region.lo.x, 0.0);
  EXPECT_EQ(cfg.topology.region.lo.y, 0.0);
  EXPECT_EQ(cfg.topology.region.hi.x, 1234.5);
  EXPECT_EQ(cfg.topology.region.hi.y, 1234.5);
  EXPECT_EQ(cfg.seed, 18446744073709551615u);
  EXPECT_EQ(cfg.horizon, 5000.0);
  EXPECT_EQ(cfg.attack.campaign_deadline, 5000.0);

  // Without a horizon key the base's deadline stands, even apart from its
  // horizon.
  ScenarioConfig base = defaults;
  base.attack.campaign_deadline = 777.0;
  const ScenarioConfig kept = apply_config(base, {{"seed", "3"}});
  EXPECT_EQ(kept.attack.campaign_deadline, 777.0);
  EXPECT_EQ(kept.horizon, defaults.horizon);
  EXPECT_EQ(kept.topology.region.hi.x, defaults.topology.region.hi.x);
  EXPECT_EQ(apply_config(base, {{"horizon", "6000"}}).attack.campaign_deadline,
            6000.0);
}

}  // namespace
}  // namespace wrsn::analysis
