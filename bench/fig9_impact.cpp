// Fig. 9 — Network impact over time: alive nodes and sink-connected nodes,
// benign charger vs CSA attacker, plus partition statistics over seeds.
//
// Expected shape: the benign curve stays flat (minus background hardware
// failures); under CSA the connected count collapses in steps as key nodes
// die, partitioning the network at a fraction of the benign lifetime.
//
// One sharded batch simulates every (mode, seed) pair; the 9a time series
// picks the first partitioning attack seed out of the batch (the same seed
// the old serial probe loop found) and the 9b aggregate reuses the rest.
#include <iostream>
#include <set>

#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "net/topology.hpp"
#include "runner/runner.hpp"

namespace {

using namespace wrsn;

/// Replays a death trace into hour-bucketed (alive, sink-connected) series.
struct Series {
  std::vector<std::size_t> alive;
  std::vector<std::size_t> connected;
};

Series replay(const net::Network& network, const sim::Trace& trace,
              Seconds horizon, Seconds bucket) {
  Series series;
  Bitmap mask(network.size(), true);
  std::size_t next_death = 0;
  for (Seconds t = bucket; t <= horizon + 1.0; t += bucket) {
    while (next_death < trace.deaths.size() &&
           trace.deaths[next_death].time <= t) {
      mask.reset(trace.deaths[next_death].node);
      ++next_death;
    }
    series.alive.push_back(mask.count());
    series.connected.push_back(net::count_sink_connected(network, mask));
  }
  return series;
}

}  // namespace

int main() {
  constexpr Seconds kBucket = 6 * 3'600.0;
  constexpr int kSeeds = 10;

  // Every (mode, seed) pair, benign first: results[0..kSeeds) benign,
  // results[kSeeds..2*kSeeds) attack, seed order within each block.
  struct Trial {
    bool attack;
    std::uint64_t seed;
  };
  std::vector<Trial> trials;
  for (const bool attack : {false, true}) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      trials.push_back({attack, seed});
    }
  }

  runner::RunStats stats;
  const std::vector<analysis::ScenarioResult> results = runner::run_trials(
      std::span<const Trial>(trials),
      [](const Trial& trial, Rng&) {
        analysis::ScenarioConfig cfg = analysis::default_scenario();
        cfg.seed = trial.seed;
        return analysis::run_mission(cfg, trial.attack
                                               ? analysis::ChargerMode::Attack
                                               : analysis::ChargerMode::Benign);
      },
      {.label = "fig9"}, &stats);
  const auto benign_of = [&](std::uint64_t seed) -> const auto& {
    return results[seed - 1];
  };
  const auto attack_of = [&](std::uint64_t seed) -> const auto& {
    return results[kSeeds + seed - 1];
  };

  // Show the time series for the first seed whose attack run partitions the
  // network (the representative case; fig 9b aggregates all seeds).
  std::uint64_t kSeed = 1;
  for (std::uint64_t candidate = 1; candidate <= kSeeds; ++candidate) {
    if (attack_of(candidate).report.partition_time.has_value()) {
      kSeed = candidate;
      break;
    }
  }

  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = kSeed;

  // Rebuild the same topology the scenario uses, for connectivity replay.
  Rng rng(cfg.seed);
  Rng topo_rng = rng.fork("topology");
  const net::Network network = net::generate_topology(cfg.topology, topo_rng);

  const Series benign_series =
      replay(network, benign_of(kSeed).trace, cfg.horizon, kBucket);
  const Series attack_series =
      replay(network, attack_of(kSeed).trace, cfg.horizon, kBucket);

  analysis::Table table("Fig. 9a: network health over time (seed " +
                        std::to_string(kSeed) + ", N=" +
                        std::to_string(network.size()) + ")");
  table.headers({"hour", "benign alive", "benign connected", "CSA alive",
                 "CSA connected"});
  for (std::size_t i = 0; i < benign_series.alive.size(); ++i) {
    table.row({analysis::fmt(double(i + 1) * kBucket / 3600.0, 0),
               std::to_string(benign_series.alive[i]),
               std::to_string(benign_series.connected[i]),
               std::to_string(attack_series.alive[i]),
               std::to_string(attack_series.connected[i])});
  }
  table.print(std::cout);

  // Aggregate partition statistics.
  analysis::Table agg("Fig. 9b: partition statistics over " +
                      std::to_string(kSeeds) + " seeds");
  agg.headers({"charger", "partitioned runs", "mean partition hour",
               "mean connected at end"});
  for (const bool attack_mode : {false, true}) {
    int partitioned = 0;
    std::vector<double> hours, connected;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const analysis::ScenarioResult& r =
          attack_mode ? attack_of(seed) : benign_of(seed);
      if (r.report.partition_time.has_value()) {
        ++partitioned;
        hours.push_back(*r.report.partition_time / 3600.0);
      }
      connected.push_back(double(r.sink_connected_at_end));
    }
    agg.row({attack_mode ? "CSA" : "benign",
             std::to_string(partitioned) + "/" + std::to_string(kSeeds),
             hours.empty() ? "-"
                           : analysis::fmt(analysis::summarize(hours).mean, 1),
             analysis::fmt(analysis::summarize(connected).mean, 1)});
  }
  agg.print(std::cout);
  analysis::print_perf(std::cout, stats);
  return 0;
}
