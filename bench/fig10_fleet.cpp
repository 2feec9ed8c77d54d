// Fig. 10 (extension) — Fleet scaling: larger networks served by charger
// fleets, with zero or one compromised member.
//
// Expected shape: honest fleets keep arbitrarily large deployments healthy
// (capacity scales with fleet size); a single compromised member still
// exhausts the key nodes of its cell without detection — the attack
// surface grows with every vehicle an operator cannot audit.
//
// A second table sweeps the cooperative fleet planner itself (Voronoi
// seeding, EDF key skeleton, orphan/spill auctions) against the naive
// sequential reference over fleet sizes on one shared stop pool: utility,
// key coverage, and how many stops the auctions moved off their spatial
// seed.  Both planners are deterministic, so the per-row numbers are exact
// (the equivalence suite pins them bit-identical; the table shows the
// fleet-size trends).
#include <iostream>

#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "common/rng.hpp"
#include "core/fleet_planner.hpp"
#include "core/fleet_reference.hpp"
#include "runner/runner.hpp"

namespace {

constexpr int kSeeds = 6;

/// Shared stop pool + M depots, same distributions as BM_FleetPlanner
/// (bench/table2_runtime.cpp) so the tables line up with the timing rows.
wrsn::csa::FleetInstance random_fleet(std::size_t chargers, std::size_t keys,
                                      std::size_t stops, std::uint64_t seed) {
  using namespace wrsn;
  Rng gen(seed);
  csa::FleetInstance inst;
  for (std::size_t m = 0; m < chargers; ++m) {
    csa::FleetCharger c;
    c.start_position = {gen.uniform(-200.0, 200.0),
                        gen.uniform(-200.0, 200.0)};
    c.speed = 3.0;
    inst.chargers.push_back(c);
  }
  for (std::size_t i = 0; i < keys + stops; ++i) {
    const bool key = i < keys;
    csa::Stop stop;
    stop.node = static_cast<net::NodeId>(i);
    stop.position = {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)};
    stop.window_open = gen.uniform(0.0, 20'000.0);
    stop.window_close = stop.window_open + gen.uniform(3'600.0, 14'400.0);
    stop.service_time = gen.uniform(600.0, 1'800.0);
    stop.is_key = key;
    stop.utility = key ? 0.0 : gen.uniform(100.0, 8'000.0);
    inst.stops.push_back(stop);
  }
  return inst;
}

void print_planner_sweep() {
  using namespace wrsn;

  analysis::Table table(
      "Fleet planner sweep: cooperative (Fleet-CSA) vs naive reference on "
      "one shared pool (mean over " + std::to_string(kSeeds) + " instances)");
  table.headers({"fleet", "stops", "planner", "utility", "keys scheduled",
                 "unscheduled", "auction moves"});

  for (const std::size_t fleet : {1, 2, 4, 8}) {
    for (const std::size_t stops : {400, 1600}) {
      for (const bool cooperative : {true, false}) {
        std::vector<double> utility, scheduled, unscheduled, moves;
        // One planner serves every instance: plan() keeps arenas only, no
        // state a later instance could observe.
        const csa::CooperativeFleetPlanner coop;
        const csa::reference::NaiveFleetPlanner naive;
        const csa::FleetPlanner& planner =
            cooperative ? static_cast<const csa::FleetPlanner&>(coop)
                        : static_cast<const csa::FleetPlanner&>(naive);
        const std::string name(planner.name());
        for (int seed = 1; seed <= kSeeds; ++seed) {
          const csa::FleetInstance inst = random_fleet(
              fleet, 24, stops, static_cast<std::uint64_t>(seed));
          const csa::FleetPlan plan = planner.plan(inst);
          utility.push_back(plan.utility);
          scheduled.push_back(double(plan.keys_scheduled));
          unscheduled.push_back(double(plan.unscheduled_keys.size()));
          moves.push_back(double(plan.auction_moves));
        }
        const auto ut = analysis::summarize(utility);
        const auto sc = analysis::summarize(scheduled);
        const auto un = analysis::summarize(unscheduled);
        const auto mv = analysis::summarize(moves);
        table.row({std::to_string(fleet), std::to_string(stops), name,
                   analysis::fmt(ut.mean, 0),
                   analysis::fmt(sc.mean, 1) + "/24",
                   analysis::fmt(un.mean, 1), analysis::fmt(mv.mean, 1)});
      }
    }
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  using namespace wrsn;

  const struct {
    std::size_t nodes;
    std::size_t fleet;
  } settings[] = {{100, 1}, {100, 2}, {200, 2}, {200, 4}, {400, 4}};

  struct Trial {
    std::size_t nodes;
    std::size_t fleet;
    bool attack;
    int seed;
  };
  std::vector<Trial> trials;
  for (const auto& setting : settings) {
    for (const bool attack : {false, true}) {
      for (int seed = 1; seed <= kSeeds; ++seed) {
        trials.push_back({setting.nodes, setting.fleet, attack, seed});
      }
    }
  }

  runner::RunStats stats;
  const std::vector<analysis::ScenarioResult> results = runner::run_trials(
      std::span<const Trial>(trials),
      [](const Trial& trial, Rng&) {
        analysis::ScenarioConfig cfg = analysis::default_scenario();
        cfg.seed = static_cast<std::uint64_t>(trial.seed);
        cfg.topology.node_count = trial.nodes;
        // Demand scales with N; the fleet provides the capacity (unlike
        // fig5, per-node rates are NOT scaled down here).
        const double scale = 100.0 / double(trial.nodes);
        cfg.topology.comm_range = 65.0 * std::sqrt(scale);
        cfg.fleet_size = trial.fleet;
        cfg.fleet_compromised = 0;
        return analysis::run_mission(cfg, trial.attack
                                              ? analysis::ChargerMode::Attack
                                              : analysis::ChargerMode::Benign);
      },
      {.label = "fig10"}, &stats);

  analysis::Table table("Fig. 10: charger fleets, honest vs one compromised "
                        "member (mean over " + std::to_string(kSeeds) +
                        " seeds)");
  table.headers({"nodes", "fleet", "compromised", "alive@end", "exhausted %",
                 "undetected %", "detected runs"});

  std::size_t next = 0;
  for (const auto& setting : settings) {
    for (const bool attack : {false, true}) {
      std::vector<double> alive, exhausted, undetected;
      int detected = 0;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        const analysis::ScenarioResult& result = results[next++];
        alive.push_back(double(result.alive_at_end));
        exhausted.push_back(100.0 * result.report.exhaustion_ratio);
        undetected.push_back(100.0 *
                             result.report.undetected_exhaustion_ratio);
        if (result.report.detected) ++detected;
      }
      const auto al = analysis::summarize(alive);
      const auto ex = analysis::summarize(exhausted);
      const auto un = analysis::summarize(undetected);
      table.row({std::to_string(setting.nodes),
                 std::to_string(setting.fleet), attack ? "member #0" : "no",
                 analysis::fmt(al.mean, 1) + "/" +
                     std::to_string(setting.nodes),
                 attack ? analysis::fmt_ci(ex.mean, ex.ci95, 1) : "-",
                 attack ? analysis::fmt_ci(un.mean, un.ci95, 1) : "-",
                 std::to_string(detected) + "/" + std::to_string(kSeeds)});
    }
  }
  table.print(std::cout);
  print_planner_sweep();
  analysis::print_perf(std::cout, stats);
  return 0;
}
