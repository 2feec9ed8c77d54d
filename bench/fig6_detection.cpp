// Fig. 6 — Detection study: which defense catches which attacker, how fast,
// and at what false-positive cost.  Rows: charger behaviours (benign, CSA
// phase-cancel, the two naive variants).  Columns: per-detector firing
// rates over seeds, for the deployed suite and the coulomb-counter-hardened
// suite.
//
// Expected shape: benign is clean (FPR ~0); silent-skip dies to the RSSI
// check in hours; no-service dies to the service audit; CSA survives the
// whole deployed suite (occasional late death-rate hits) and only the
// hardened suite catches it reliably.
#include <iostream>
#include <map>
#include <set>

#include "analysis/metrics_io.hpp"
#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "obs/metrics.hpp"
#include "runner/runner.hpp"

namespace {
constexpr int kSeeds = 10;
}

int main() {
  using namespace wrsn;

  const struct {
    const char* name;
    bool benign;
    csa::SpoofMode mode;
  } chargers[] = {
      {"benign", true, csa::SpoofMode::PhaseCancel},
      {"CSA", false, csa::SpoofMode::PhaseCancel},
      {"CSA-partial", false, csa::SpoofMode::PartialCancel},
      {"silent-skip", false, csa::SpoofMode::SilentSkip},
      {"no-service", false, csa::SpoofMode::NoService},
  };
  constexpr std::size_t kChargers = sizeof(chargers) / sizeof(chargers[0]);

  // Flatten (suite, charger, seed) row-major; aggregation walks the same
  // order below.
  struct Trial {
    bool hardened;
    std::size_t charger;
    int seed;
  };
  std::vector<Trial> trials;
  for (const bool hardened : {false, true}) {
    for (std::size_t c = 0; c < kChargers; ++c) {
      for (int seed = 1; seed <= kSeeds; ++seed) {
        trials.push_back({hardened, c, seed});
      }
    }
  }

  analysis::PhasedStats perf;
  obs::MetricRegistry metrics;
  const std::vector<analysis::ScenarioResult> results = runner::run_trials(
      std::span<const Trial>(trials),
      [&chargers](const Trial& trial, Rng&) {
        analysis::ScenarioConfig cfg = analysis::default_scenario();
        cfg.seed = static_cast<std::uint64_t>(trial.seed);
        cfg.hardened_detectors = trial.hardened;
        cfg.attack.spoof_mode = chargers[trial.charger].mode;
        return analysis::run_mission(cfg,
                                      chargers[trial.charger].benign
                                          ? analysis::ChargerMode::Benign
                                          : analysis::ChargerMode::Attack);
      },
      {.label = "fig6", .metrics = &metrics}, perf.phase("suites"));

  std::size_t next = 0;
  for (const bool hardened : {false, true}) {
    analysis::Table table(
        std::string("Fig. 6: detections over ") + std::to_string(kSeeds) +
        " seeds, " + (hardened ? "HARDENED" : "DEPLOYED") + " suite");
    table.headers({"charger", "detected", "mean hour", "by detector",
                   "undetected exhausted %"});

    for (const auto& charger : chargers) {
      int detected = 0;
      std::vector<double> hours, undetected;
      std::map<std::string, int> by_detector;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        const analysis::ScenarioResult& result = results[next++];
        if (result.report.detected) {
          ++detected;
          hours.push_back(result.report.detection_time / 3600.0);
          ++by_detector[result.report.detector_name];
        }
        undetected.push_back(100.0 *
                             result.report.undetected_exhaustion_ratio);
      }
      std::string detectors;
      for (const auto& [name, count] : by_detector) {
        if (!detectors.empty()) detectors += ", ";
        detectors += name + " x" + std::to_string(count);
      }
      const auto hr = analysis::summarize(hours);
      const auto un = analysis::summarize(undetected);
      table.row({charger.name,
                 std::to_string(detected) + "/" + std::to_string(kSeeds),
                 hours.empty() ? "-" : analysis::fmt(hr.mean, 1),
                 detectors.empty() ? "-" : detectors,
                 charger.benign ? "-" : analysis::fmt_ci(un.mean, un.ci95, 1)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // Death-rate threshold sensitivity: how aggressive must the monitor be to
  // see CSA, and what does that cost in benign false positives?  The trace
  // pairs (benign, attack) per seed are simulated once and re-analyzed at
  // every threshold.
  struct PairTrial {
    int seed;
  };
  std::vector<PairTrial> pair_trials;
  for (int seed = 1; seed <= kSeeds; ++seed) pair_trials.push_back({seed});

  struct TracePair {
    analysis::ScenarioResult benign;
    analysis::ScenarioResult attack;
  };
  const std::vector<TracePair> pairs = runner::run_trials(
      std::span<const PairTrial>(pair_trials),
      [](const PairTrial& trial, Rng&) {
        analysis::ScenarioConfig cfg = analysis::default_scenario();
        cfg.seed = static_cast<std::uint64_t>(trial.seed);
        return TracePair{
            analysis::run_mission(cfg, analysis::ChargerMode::Benign),
            analysis::run_mission(cfg, analysis::ChargerMode::Attack)};
      },
      {.label = "fig6b", .metrics = &metrics}, perf.phase("threshold-sweep"));

  analysis::Table sweep(
      "Fig. 6b: death-rate monitor threshold sweep (deaths per 24 h window)");
  sweep.headers({"threshold", "benign false positives", "CSA detected",
                 "CSA undetected exhausted %"});
  for (const std::size_t threshold : {3u, 4u, 5u, 6u, 8u}) {
    int fp = 0, caught = 0;
    std::vector<double> undetected;
    for (const TracePair& pair : pairs) {
      detect::DeathRateDetector detector(threshold, 86'400.0);
      detect::DetectorContext ctx;
      ctx.horizon = analysis::default_scenario().horizon;
      const auto benign_detection = detector.analyze(pair.benign.trace, ctx);
      if (benign_detection.has_value()) ++fp;
      const auto detection = detector.analyze(pair.attack.trace, ctx);
      if (detection.has_value()) ++caught;
      // Undetected-by-this-monitor exhaustion.
      std::size_t before = 0;
      std::set<net::NodeId> keys(pair.attack.keys.begin(),
                                 pair.attack.keys.end());
      for (const sim::DeathRecord& d : pair.attack.trace.deaths) {
        if (keys.count(d.node) > 0 &&
            (!detection.has_value() || d.time <= detection->time)) {
          ++before;
        }
      }
      undetected.push_back(100.0 * double(before) /
                           double(pair.attack.keys.size()));
    }
    const auto un = analysis::summarize(undetected);
    sweep.row({std::to_string(threshold),
               std::to_string(fp) + "/" + std::to_string(kSeeds),
               std::to_string(caught) + "/" + std::to_string(kSeeds),
               analysis::fmt_ci(un.mean, un.ci95, 1)});
  }
  sweep.print(std::cout);

  analysis::print_metrics_tables(metrics, std::cout);
  analysis::maybe_export_metrics(metrics, std::cout);
  analysis::print_perf(std::cout, perf);
  return 0;
}
