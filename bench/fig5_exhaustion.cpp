// Fig. 5 — THE HEADLINE: key-node exhaustion ratio of CSA vs the baseline
// attack strategies, swept over network size, under the deployed detector
// suite.  The paper's claim: CSA exhausts at least 80 % of key nodes
// without being detected.
//
// Per-node duty cycles scale inversely with density (a standard coverage-
// redundancy assumption), so total network demand — and hence the single
// charger's load — stays constant across sizes; what grows is the routing
// structure and the scheduling problem.
//
// The full sweep grid (4 sizes x 4 planners x kSeeds, plus the ablation) is
// flattened into one trial list and sharded over WRSN_THREADS workers; the
// numbers are bit-identical at any thread count.
#include <iostream>
#include <memory>

#include "analysis/metrics_io.hpp"
#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/planners.hpp"
#include "obs/metrics.hpp"
#include "runner/runner.hpp"

namespace {

constexpr int kSeeds = 10;

wrsn::analysis::ScenarioConfig sized_config(std::size_t n,
                                            std::uint64_t seed) {
  using namespace wrsn;
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  const double scale = 100.0 / double(n);
  cfg.topology.node_count = n;
  cfg.topology.mean_data_rate_bps = 12'000.0 * scale;
  cfg.topology.comm_range = 65.0 * std::sqrt(scale);
  cfg.world.drain.sensing_power = 10e-3 * scale;
  cfg.seed = seed;
  return cfg;
}

constexpr const char* kPlannerNames[] = {"CSA", "Greedy-nearest", "Random",
                                         "Utility-first"};

/// Planner instances carry mutable arenas and are single-thread affine
/// (core/planners.hpp), so each trial builds its own; the names above are
/// what the table rows group by.
std::unique_ptr<wrsn::csa::Planner> make_planner(std::size_t kind) {
  using namespace wrsn;
  switch (kind) {
    case 0: return std::make_unique<csa::CsaPlanner>();
    case 1: return std::make_unique<csa::GreedyNearestPlanner>();
    case 2: return std::make_unique<csa::RandomPlanner>();
    default: return std::make_unique<csa::UtilityFirstPlanner>();
  }
}

}  // namespace

int main() {
  using namespace wrsn;

  constexpr std::size_t kPlanners = std::size(kPlannerNames);
  const std::size_t sizes[] = {50, 100, 150, 200};

  // Flatten the (size, planner, seed) grid in row-major order; results come
  // back in the same order, so group g's trials live at [g*kSeeds, (g+1)*kSeeds).
  struct Trial {
    std::size_t n;
    std::size_t planner;
    int seed;
  };
  std::vector<Trial> trials;
  for (const std::size_t n : sizes) {
    for (std::size_t planner = 0; planner < kPlanners; ++planner) {
      for (int seed = 1; seed <= kSeeds; ++seed) {
        trials.push_back({n, planner, seed});
      }
    }
  }

  analysis::PhasedStats perf;
  obs::MetricRegistry metrics;
  const std::vector<analysis::ScenarioResult> results = runner::run_trials(
      std::span<const Trial>(trials),
      [](const Trial& trial, Rng&) {
        const std::unique_ptr<csa::Planner> planner = make_planner(trial.planner);
        return analysis::run_mission(
            sized_config(trial.n, static_cast<std::uint64_t>(trial.seed)),
            analysis::ChargerMode::Attack, planner.get());
      },
      {.label = "fig5", .metrics = &metrics}, perf.phase("sweep"));

  analysis::Table table(
      "Fig. 5: key-node exhaustion (mean +- 95% CI over " +
      std::to_string(kSeeds) + " seeds)");
  table.headers({"nodes", "planner", "exhausted %", "undetected exhausted %",
                 "detected runs", "escalations"});

  std::size_t next = 0;
  for (const std::size_t n : sizes) {
    for (const char* planner_name : kPlannerNames) {
      std::vector<double> exhausted, undetected, escalations;
      int detected_runs = 0;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        const analysis::ScenarioResult& result = results[next++];
        exhausted.push_back(100.0 * result.report.exhaustion_ratio);
        undetected.push_back(100.0 *
                             result.report.undetected_exhaustion_ratio);
        escalations.push_back(double(result.report.escalations));
        if (result.report.detected) ++detected_runs;
      }
      const auto ex = analysis::summarize(exhausted);
      const auto un = analysis::summarize(undetected);
      const auto es = analysis::summarize(escalations);
      table.row({std::to_string(n), planner_name,
                 analysis::fmt_ci(ex.mean, ex.ci95, 1),
                 analysis::fmt_ci(un.mean, un.ci95, 1),
                 std::to_string(detected_runs) + "/" + std::to_string(kSeeds),
                 analysis::fmt(es.mean, 1)});
    }
  }
  table.print(std::cout);

  // Key-node definition ablation at N = 100 (DESIGN.md decision 4).
  const struct {
    net::KeyNodeRule rule;
    const char* name;
  } rules[] = {{net::KeyNodeRule::Articulation, "articulation"},
               {net::KeyNodeRule::TopTraffic, "top-traffic"},
               {net::KeyNodeRule::Hybrid, "hybrid"}};

  struct AblationTrial {
    net::KeyNodeRule rule;
    int seed;
  };
  std::vector<AblationTrial> ablation_trials;
  for (const auto& entry : rules) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      ablation_trials.push_back({entry.rule, seed});
    }
  }

  const std::vector<analysis::ScenarioResult> ablation_results =
      runner::run_trials(
          std::span<const AblationTrial>(ablation_trials),
          [](const AblationTrial& trial, Rng&) {
            analysis::ScenarioConfig cfg =
                sized_config(100, static_cast<std::uint64_t>(trial.seed));
            cfg.attack.key_selection.rule = trial.rule;
            return analysis::run_mission(cfg, analysis::ChargerMode::Attack);
          },
          {.label = "fig5b", .metrics = &metrics}, perf.phase("ablation"));

  analysis::Table ablation(
      "Fig. 5b: key-node selection rule ablation (CSA, N=100)");
  ablation.headers({"rule", "exhausted %", "undetected %",
                    "partitioned runs", "mean partition hour"});
  next = 0;
  for (const auto& entry : rules) {
    std::vector<double> exhausted, undetected, part_hours;
    int partitioned = 0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      const analysis::ScenarioResult& result = ablation_results[next++];
      exhausted.push_back(100.0 * result.report.exhaustion_ratio);
      undetected.push_back(100.0 * result.report.undetected_exhaustion_ratio);
      if (result.report.partition_time.has_value()) {
        ++partitioned;
        part_hours.push_back(*result.report.partition_time / 3600.0);
      }
    }
    const auto ex = analysis::summarize(exhausted);
    const auto un = analysis::summarize(undetected);
    const auto ph = analysis::summarize(part_hours);
    ablation.row({entry.name, analysis::fmt_ci(ex.mean, ex.ci95, 1),
                  analysis::fmt_ci(un.mean, un.ci95, 1),
                  std::to_string(partitioned) + "/" + std::to_string(kSeeds),
                  part_hours.empty() ? "-" : analysis::fmt(ph.mean, 1)});
  }
  ablation.print(std::cout);

  analysis::print_metrics_tables(metrics, std::cout);
  analysis::maybe_export_metrics(metrics, std::cout);
  analysis::print_perf(std::cout, perf);
  return 0;
}
