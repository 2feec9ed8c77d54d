// Tests for the analysis helpers (stats, tables) and the scenario runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "analysis/trace_io.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace wrsn::analysis {
namespace {

TEST(Stats, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SingleValue) {
  const std::vector<double> v{4.2};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.2);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 4.2);
  EXPECT_DOUBLE_EQ(s.max, 4.2);
}

TEST(Stats, KnownMoments) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);  // unbiased (n-1) estimator
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  // n = 8 -> Student-t critical value for 7 dof, not the normal 1.96.
  EXPECT_NEAR(s.ci95, 2.365 * s.stddev / std::sqrt(8.0), 1e-12);
}

TEST(Stats, CiUsesStudentTForSmallSamples) {
  // Known case: n = 10, stddev = 1 -> half-width = t_{0.975,9} / sqrt(10).
  // The normal approximation (1.96) would understate this by ~13 %.
  std::vector<double> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(double(i) * std::sqrt(6.0 / 55.0));  // sample variance 1
  }
  const Summary s = summarize(v);
  EXPECT_NEAR(s.stddev, 1.0, 1e-12);
  EXPECT_NEAR(s.ci95, 2.262 / std::sqrt(10.0), 1e-12);
  EXPECT_GT(s.ci95, 1.96 * s.stddev / std::sqrt(10.0));
}

TEST(Stats, TCriticalTableValues) {
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);  // n = 2
  EXPECT_DOUBLE_EQ(t_critical_95(5), 2.571);   // fig10's 6 seeds
  EXPECT_DOUBLE_EQ(t_critical_95(7), 2.365);   // fig7's 8 seeds
  EXPECT_DOUBLE_EQ(t_critical_95(9), 2.262);   // the benches' 10 seeds
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(t_critical_95(31), 1.96);   // normal fallback
  EXPECT_DOUBLE_EQ(t_critical_95(10'000), 1.96);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(Stats, QuantileValidation) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(quantile({}, 0.5), PreconditionError);
  EXPECT_THROW(quantile(v, 1.5), PreconditionError);
}

TEST(Stats, SortedQuantilesMatchesRepeatedQuantileCalls) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 0.5};
  const std::vector<double> qs =
      sorted_quantiles(v, {0.0, 0.10, 0.25, 0.5, 0.75, 0.9, 1.0});
  const std::vector<double> want{0.0, 0.10, 0.25, 0.5, 0.75, 0.9, 1.0};
  ASSERT_EQ(qs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(qs[i], quantile(v, want[i])) << "q=" << want[i];
  }
}

TEST(Stats, SortedQuantilesBoundariesHitMinAndMax) {
  const std::vector<double> v{7.0, -2.0, 3.5};
  const std::vector<double> qs = sorted_quantiles(v, {0.0, 1.0});
  ASSERT_EQ(qs.size(), 2u);
  EXPECT_DOUBLE_EQ(qs[0], -2.0);  // q=0 is exactly the sample minimum
  EXPECT_DOUBLE_EQ(qs[1], 7.0);   // q=1 is exactly the sample maximum
}

TEST(Stats, SortedQuantilesSingleElementAndValidation) {
  const std::vector<double> one{42.0};
  const std::vector<double> qs = sorted_quantiles(one, {0.0, 0.5, 1.0});
  for (const double q : qs) EXPECT_DOUBLE_EQ(q, 42.0);
  EXPECT_THROW(sorted_quantiles({}, {0.5}), PreconditionError);
  EXPECT_THROW(sorted_quantiles(one, {-0.1}), PreconditionError);
  EXPECT_THROW(sorted_quantiles(one, {1.1}), PreconditionError);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t("demo");
  t.headers({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Header columns aligned: "value" column starts at the same offset in
  // each row; spot-check that rows are newline-separated and non-ragged.
  EXPECT_NE(out.find("name"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("demo");
  t.headers({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), PreconditionError);
}

TEST(Table, CsvOutput) {
  Table t("demo");
  t.headers({"a", "b"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Fmt, FormatsDigits) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_ci(1.5, 0.25, 2), "1.50 +- 0.25");
}

TEST(TraceIo, SessionsCsvRoundTripShape) {
  sim::Trace trace;
  sim::SessionRecord s;
  s.node = 3;
  s.start = 10.0;
  s.end = 25.5;
  s.kind = sim::SessionKind::Spoofed;
  s.expected_gain = 100.0;
  s.delivered = 0.5;
  s.rf_observed = 2.25;
  s.rf_neighbor_probe = 0.1;
  s.nearest_probe_distance = 4.0;
  s.radiated = 155.0;
  trace.sessions.push_back(s);

  std::ostringstream os;
  write_sessions_csv(os, trace);
  const std::string out = os.str();
  // Header plus one data row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("spoofed"), std::string::npos);
  EXPECT_NE(out.find("3,10,25.5"), std::string::npos);
}

TEST(TraceIo, AllWritersEmitHeadersOnEmptyTrace) {
  const sim::Trace trace;
  for (const auto writer :
       {write_sessions_csv, write_requests_csv, write_deaths_csv,
        write_escalations_csv}) {
    std::ostringstream os;
    writer(os, trace);
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
  }
}

TEST(TraceIo, ExportWritesFourFiles) {
  sim::Trace trace;
  trace.deaths.push_back({5.0, 1, true});
  trace.requests.push_back({1.0, 2, 300.0, false});
  trace.escalations.push_back({4.0, 2});
  const std::string prefix = "/tmp/wrsn_trace_io_test";
  export_trace(prefix, trace);
  for (const char* suffix :
       {"_sessions.csv", "_requests.csv", "_deaths.csv",
        "_escalations.csv"}) {
    std::ifstream file(prefix + std::string(suffix));
    EXPECT_TRUE(file.is_open()) << suffix;
    std::string header;
    std::getline(file, header);
    EXPECT_FALSE(header.empty());
  }
  EXPECT_THROW(export_trace("/nonexistent-dir/x", trace), SimulationError);
}

TEST(Scenario, DefaultConfigValidates) {
  const ScenarioConfig cfg = default_scenario();
  EXPECT_NO_THROW(cfg.topology.validate());
  EXPECT_NO_THROW(cfg.world.validate());
  EXPECT_NO_THROW(cfg.attack.validate());
  EXPECT_NO_THROW(cfg.benign.validate());
  EXPECT_GT(cfg.horizon, 0.0);
}

TEST(Scenario, RunsAreDeterministicPerSeed) {
  ScenarioConfig cfg = default_scenario();
  cfg.topology.node_count = 40;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.horizon = 1.5 * 86'400.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  cfg.seed = 77;
  const ScenarioResult a = run_mission(cfg, ChargerMode::Attack);
  const ScenarioResult b = run_mission(cfg, ChargerMode::Attack);
  EXPECT_EQ(a.report.keys_dead, b.report.keys_dead);
  EXPECT_EQ(a.trace.sessions.size(), b.trace.sessions.size());
  EXPECT_EQ(a.trace.deaths.size(), b.trace.deaths.size());
  EXPECT_EQ(a.report.detected, b.report.detected);
}

TEST(Scenario, RunMissionClampsTheCompromisedMember) {
  // run_mission is the one resolution point every front end (fuzzer, CLI,
  // mission service) funnels through.  The compromised index is clamped
  // into the crew, so a stale override can never demote an attack mission
  // or move a single charger onto the fleet depots.
  ScenarioConfig cfg = default_scenario();
  cfg.topology.node_count = 40;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.horizon = 1.5 * 86'400.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  cfg.seed = 77;
  const std::uint64_t solo =
      digest_result(run_mission(cfg, ChargerMode::Attack));
  cfg.fleet_compromised = 0;
  EXPECT_EQ(digest_result(run_mission(cfg, ChargerMode::Attack)), solo);

  cfg.fleet_size = 2;
  cfg.fleet_compromised = 1;
  const std::uint64_t last =
      digest_result(run_mission(cfg, ChargerMode::Attack));
  EXPECT_NE(last, solo);
  cfg.fleet_compromised = 7;  // stale override, clamped to < fleet_size
  EXPECT_EQ(digest_result(run_mission(cfg, ChargerMode::Attack)), last);

  // Benign fleets are wholly honest whatever the override says.
  const std::uint64_t honest =
      digest_result(run_mission(cfg, ChargerMode::Benign));
  cfg.fleet_compromised = SIZE_MAX;
  EXPECT_EQ(digest_result(run_mission(cfg, ChargerMode::Benign)), honest);
}

TEST(Scenario, BenignModeRunsCleanly) {
  ScenarioConfig cfg = default_scenario();
  cfg.topology.node_count = 40;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.horizon = 1.5 * 86'400.0;
  cfg.seed = 5;
  const ScenarioResult result = run_mission(cfg, ChargerMode::Benign);
  EXPECT_FALSE(result.keys.empty());
  EXPECT_EQ(result.report.sessions_spoofed, 0u);
  EXPECT_FALSE(result.report.detected);
  EXPECT_EQ(result.report.keys_dead, 0u);
}

TEST(Scenario, AttackAndBenignShareKeyDefinition) {
  ScenarioConfig cfg = default_scenario();
  cfg.topology.node_count = 40;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.horizon = 86'400.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  cfg.seed = 6;
  const ScenarioResult benign = run_mission(cfg, ChargerMode::Benign);
  const ScenarioResult attack = run_mission(cfg, ChargerMode::Attack);
  // Both select from the same ranked candidates; the attacker applies the
  // killability filter so its set is a subset-ish selection, but never
  // empty when the benign set is non-empty on these small worlds.
  EXPECT_FALSE(benign.keys.empty());
  EXPECT_FALSE(attack.keys.empty());
}

TEST(Scenario, DetectorSetupMatchesCalibrationFormula) {
  // make_detector_setup is the single source of truth for the deployed
  // calibration, pinned here against the documented formula.
  ScenarioConfig cfg = default_scenario();
  cfg.topology.node_count = 40;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.world.hardware_mtbf = 12.0 * 86'400.0;
  cfg.seed = 99;

  Rng rng(cfg.seed);
  Rng topo_rng = rng.fork("topology");
  net::Network network = net::generate_topology(cfg.topology, topo_rng);
  sim::Simulator simulator;
  sim::World world(simulator, std::move(network), cfg.world,
                   rng.fork("world"));

  const DetectorSetup setup = make_detector_setup(cfg, world);

  const std::size_t n = world.network().size();
  const double expected = double(n) * 86'400.0 / cfg.world.hardware_mtbf;
  const detect::SuiteCalibration want =
      detect::SuiteCalibration::for_deployment(n, expected);
  EXPECT_EQ(setup.calibration.death_threshold, want.death_threshold);
  EXPECT_EQ(setup.calibration.escalation_limit, want.escalation_limit);
  EXPECT_EQ(setup.calibration.died_waiting_limit, want.died_waiting_limit);

  EXPECT_EQ(setup.context.network, &world.network());
  EXPECT_EQ(setup.context.charging_model, &world.charging_model());
  EXPECT_DOUBLE_EQ(setup.context.nominal_dc, world.nominal_dc_power());
  EXPECT_DOUBLE_EQ(setup.context.benign_gain_mean,
                   cfg.world.benign_gain_mean);
  EXPECT_DOUBLE_EQ(setup.context.benign_gain_cv, cfg.world.benign_gain_cv);
  EXPECT_EQ(setup.context.noise_seed, cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  EXPECT_DOUBLE_EQ(setup.context.horizon, cfg.horizon);

  // Identical config -> identical setup, whichever path (single-charger or
  // fleet) asks for it.
  const DetectorSetup again = make_detector_setup(cfg, world);
  EXPECT_EQ(again.calibration.death_threshold,
            setup.calibration.death_threshold);
  EXPECT_EQ(again.calibration.escalation_limit,
            setup.calibration.escalation_limit);
  EXPECT_EQ(again.calibration.died_waiting_limit,
            setup.calibration.died_waiting_limit);
  EXPECT_EQ(again.context.noise_seed, setup.context.noise_seed);
  EXPECT_EQ(again.suite.size(), setup.suite.size());

  // The hardened flag must select the larger coulomb-counter suite.
  ScenarioConfig hardened_cfg = cfg;
  hardened_cfg.hardened_detectors = true;
  const DetectorSetup hardened = make_detector_setup(hardened_cfg, world);
  EXPECT_GT(hardened.suite.size(), setup.suite.size());
}

}  // namespace
}  // namespace wrsn::analysis
