// Fig. 7 — Charging utility under the attack: how much genuine cover
// service the attacker sustains as (a) the key-target count grows and
// (b) the time windows tighten (shorter base-station patience).
//
// Expected shape: utility degrades gracefully with more keys (spoof
// sessions still take vehicle time); CSA dominates the window-oblivious
// Utility-first ablation on kill completion when windows tighten, at equal
// or better utility.
#include <iostream>
#include <memory>

#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/planners.hpp"
#include "runner/runner.hpp"

namespace {

constexpr int kSeeds = 8;

constexpr const char* kPlannerNames[] = {"CSA", "Utility-first"};

/// Planner instances carry mutable arenas and are single-thread affine
/// (core/planners.hpp), so each trial builds its own.
std::unique_ptr<wrsn::csa::Planner> make_planner(std::size_t kind) {
  using namespace wrsn;
  if (kind == 0) return std::make_unique<csa::CsaPlanner>();
  return std::make_unique<csa::UtilityFirstPlanner>();
}

}  // namespace

int main() {
  using namespace wrsn;

  // --- (a) key-target count sweep ---------------------------------------
  const std::size_t key_counts[] = {2, 4, 6, 8, 10, 12, 14};
  struct KeyTrial {
    std::size_t keys;
    int seed;
  };
  std::vector<KeyTrial> key_trials;
  for (const std::size_t keys : key_counts) {
    for (int seed = 1; seed <= kSeeds; ++seed) key_trials.push_back({keys, seed});
  }

  analysis::PhasedStats perf;
  const std::vector<analysis::ScenarioResult> key_results = runner::run_trials(
      std::span<const KeyTrial>(key_trials),
      [](const KeyTrial& trial, Rng&) {
        analysis::ScenarioConfig cfg = analysis::default_scenario();
        cfg.seed = static_cast<std::uint64_t>(trial.seed);
        cfg.attack.key_selection.max_count = trial.keys;
        return analysis::run_mission(cfg, analysis::ChargerMode::Attack);
      },
      {.label = "fig7a"}, perf.phase("key-sweep"));

  analysis::Table key_table(
      "Fig. 7a: cover utility and exhaustion vs number of key targets (CSA)");
  key_table.headers({"keys", "utility [kJ]", "exhausted %", "spoof sessions",
                     "genuine sessions"});
  std::size_t next = 0;
  for (const std::size_t keys : key_counts) {
    std::vector<double> utility, exhausted, spoofs, genuine;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      const analysis::ScenarioResult& result = key_results[next++];
      utility.push_back(result.report.utility_delivered / 1000.0);
      exhausted.push_back(100.0 * result.report.exhaustion_ratio);
      spoofs.push_back(double(result.report.sessions_spoofed));
      genuine.push_back(double(result.report.sessions_genuine));
    }
    const auto ut = analysis::summarize(utility);
    const auto ex = analysis::summarize(exhausted);
    key_table.row({std::to_string(keys), analysis::fmt_ci(ut.mean, ut.ci95, 0),
                   analysis::fmt_ci(ex.mean, ex.ci95, 1),
                   analysis::fmt(analysis::summarize(spoofs).mean, 1),
                   analysis::fmt(analysis::summarize(genuine).mean, 1)});
  }
  key_table.print(std::cout);

  // --- (b) window tightness sweep ---------------------------------------
  const double scales[] = {0.4, 0.7, 1.0, 1.3, 1.6};
  struct WindowTrial {
    double scale;
    std::size_t planner;
    int seed;
  };
  std::vector<WindowTrial> window_trials;
  for (const double scale : scales) {
    for (std::size_t planner = 0; planner < std::size(kPlannerNames);
         ++planner) {
      for (int seed = 1; seed <= kSeeds; ++seed) {
        window_trials.push_back({scale, planner, seed});
      }
    }
  }

  const std::vector<analysis::ScenarioResult> window_results =
      runner::run_trials(
          std::span<const WindowTrial>(window_trials),
          [](const WindowTrial& trial, Rng&) {
            const std::unique_ptr<csa::Planner> planner =
                make_planner(trial.planner);
            analysis::ScenarioConfig cfg = analysis::default_scenario();
            cfg.seed = static_cast<std::uint64_t>(trial.seed);
            cfg.world.patience *= trial.scale;
            return analysis::run_mission(cfg, analysis::ChargerMode::Attack,
                                          planner.get());
          },
          {.label = "fig7b"}, perf.phase("window-sweep"));

  analysis::Table window_table(
      "Fig. 7b: window tightness sweep (patience scale), CSA vs "
      "Utility-first ablation");
  window_table.headers({"patience scale", "planner", "exhausted %",
                        "utility [kJ]", "escalations", "detected runs"});
  next = 0;
  for (const double scale : scales) {
    for (const char* planner_name : kPlannerNames) {
      std::vector<double> exhausted, utility, escalations;
      int detected = 0;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        const analysis::ScenarioResult& result = window_results[next++];
        exhausted.push_back(100.0 * result.report.exhaustion_ratio);
        utility.push_back(result.report.utility_delivered / 1000.0);
        escalations.push_back(double(result.report.escalations));
        if (result.report.detected) ++detected;
      }
      const auto ex = analysis::summarize(exhausted);
      const auto ut = analysis::summarize(utility);
      window_table.row(
          {analysis::fmt(scale, 1), planner_name,
           analysis::fmt_ci(ex.mean, ex.ci95, 1),
           analysis::fmt_ci(ut.mean, ut.ci95, 0),
           analysis::fmt(analysis::summarize(escalations).mean, 1),
           std::to_string(detected) + "/" + std::to_string(kSeeds)});
    }
  }
  window_table.print(std::cout);

  analysis::print_perf(std::cout, perf);
  return 0;
}
