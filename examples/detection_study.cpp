// Detection study: which defenses catch which attacker?
//
//   $ ./detection_study [seed]
//
// Runs the CSA phase-cancellation attack and the two naive variants under
// the deployed detector suite and under the hardened suite (coulomb-counter
// defenses on every node), plus a benign run to show false positives.  The
// eight missions are independent, so they shard across WRSN_THREADS workers.
#include <cstdlib>
#include <iostream>

#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "analysis/table.hpp"
#include "runner/runner.hpp"

int main(int argc, char** argv) {
  using namespace wrsn;

  std::uint64_t seed = 7;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  analysis::Table table("Detector suite vs attacker variants (seed " +
                        std::to_string(seed) + ")");
  table.headers({"charger", "suite", "detected by", "at hour", "keys dead",
                 "undetected dead"});

  const struct {
    const char* name;
    bool benign;
    csa::SpoofMode mode;
  } chargers[] = {
      {"benign", true, csa::SpoofMode::PhaseCancel},
      {"CSA (phase-cancel)", false, csa::SpoofMode::PhaseCancel},
      {"silent-skip", false, csa::SpoofMode::SilentSkip},
      {"no-service", false, csa::SpoofMode::NoService},
  };
  constexpr std::size_t kChargers = sizeof(chargers) / sizeof(chargers[0]);

  struct Trial {
    bool hardened;
    std::size_t charger;
  };
  std::vector<Trial> trials;
  for (const bool hardened : {false, true}) {
    for (std::size_t c = 0; c < kChargers; ++c) trials.push_back({hardened, c});
  }

  runner::RunStats stats;
  const std::vector<analysis::ScenarioResult> results = runner::run_trials(
      std::span<const Trial>(trials),
      [&](const Trial& trial, Rng&) {
        analysis::ScenarioConfig config = analysis::default_scenario();
        config.seed = seed;
        config.hardened_detectors = trial.hardened;
        config.attack.spoof_mode = chargers[trial.charger].mode;
        return analysis::run_mission(config,
                                      chargers[trial.charger].benign
                                          ? analysis::ChargerMode::Benign
                                          : analysis::ChargerMode::Attack);
      },
      {.label = "detection-study"}, &stats);

  std::size_t next = 0;
  for (const bool hardened : {false, true}) {
    for (const auto& entry : chargers) {
      const csa::AttackReport& r = results[next++].report;
      table.row({entry.name, hardened ? "hardened" : "deployed",
                 r.detected ? r.detector_name : "-",
                 r.detected ? analysis::fmt(r.detection_time / 3600.0, 1) : "-",
                 std::to_string(r.keys_dead) + "/" +
                     std::to_string(r.keys_total),
                 std::to_string(r.keys_dead_before_detection)});
    }
  }
  table.print(std::cout);
  analysis::print_perf(std::cout, stats);

  std::cout << "\nCSA evades the deployed suite; only per-node coulomb"
               " counters (hardened suite) see the harvest shortfall.\n";
  return 0;
}
