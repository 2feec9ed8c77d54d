// Event-kernel and world-update performance: the cost of death cascades
// under the incremental (Fast) updater versus the full-rebuild Reference
// path, routing repair replayed over a benign mission's deaths, one full
// routing rebuild, the kernel's schedule/cancel churn rate, an end-to-end
// fig5 exhaustion trial under both modes, the whole-network graph stages
// (topology generation, key-node survey, post-mission report), and whole
// attack/benign missions at N = 100 / 1.6k / 10k (BM_Mission).
//
// Reproduce with bench/run_benchmarks.sh, which records the JSON trajectory
// in BENCH_sim.json (see EXPERIMENTS.md).  The headline criterion: the Fast
// world processes a full starvation collapse at N=400 at least 5x faster
// than Reference — a death costs a Dijkstra over the dead node's routing
// subtree plus linear passes, not an O(N log N) rebuild plus a reschedule
// of every survivor.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "analysis/scenario.hpp"
#include "common/bitset.hpp"
#include "common/rng.hpp"
#include "core/planners.hpp"
#include "core/report.hpp"
#include "detect/detector.hpp"
#include "net/keynodes.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

// At the calibrated density the radius a random geometric graph needs for
// connectivity grows like sqrt(log N): 65 m covers the classic sizes but
// sits below the threshold at N = 10k (~68.5 m), so the frontier rows get
// a wider radio rather than a denser field.
Meters comm_range_for(std::size_t n) { return n >= 10'000 ? 80.0 : 65.0; }

net::Network cascade_network(std::size_t n) {
  net::TopologyConfig topo;
  topo.node_count = n;
  // Hold density at the calibrated default (100 nodes on 400 m x 400 m).
  const double side = 40.0 * std::sqrt(double(n));
  topo.region = {{0.0, 0.0}, {side, side}};
  topo.comm_range = comm_range_for(n);
  Rng rng(42);
  return net::generate_topology(topo, rng);
}

// The BM_Mission configuration: the calibrated density (a 40*sqrt(N) m
// square field, comm_range_for(N) radios), depot at the field centre, 120 h,
// seed 42.  At N = 10k this is perfbench's benign-10k geometry.
analysis::ScenarioConfig mission_config(std::size_t n) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  const double side = 40.0 * std::sqrt(double(n));
  cfg.topology.node_count = n;
  cfg.topology.region = {{0.0, 0.0}, {side, side}};
  cfg.topology.comm_range = comm_range_for(n);
  cfg.horizon = 120 * 3'600.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  cfg.attack.charger.depot = {side / 2.0, side / 2.0};
  cfg.benign.charger.depot = cfg.attack.charger.depot;
  cfg.seed = 42;
  return cfg;
}

// The deployment run_mission generates for `cfg`.
net::Network mission_network(const analysis::ScenarioConfig& cfg) {
  Rng topo_rng = Rng(cfg.seed).fork("topology");
  return net::generate_topology(cfg.topology, topo_rng);
}

// Topology generation at scale: placement with the separation index, then
// one Network build (grid-bucketed adjacency, each node pair visited once
// per count/fill pass) and connectivity check per deployment tried.  The
// build is O(N + edges), so doubling density should roughly double the
// time, not quadruple it the way the old O(N^2) pairwise scans did.
// `attempts` is the number of deployments generated before one was
// connected (net.topology_attempts): at N=1600 the calibrated density sits
// near the connectivity threshold and several are rejected, which is why
// that row can cost more than the 10k rows with their wider radios.
void BM_TopologyGenerate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool heterogeneous = state.range(1) != 0;
  net::TopologyConfig topo;
  topo.node_count = n;
  const double side = 40.0 * std::sqrt(double(n));
  topo.region = {{0.0, 0.0}, {side, side}};
  topo.comm_range = comm_range_for(n);
  if (heterogeneous) {
    topo.class_count = 3;
    topo.class_capacity_ratio = 2.0;
    topo.class_rate_ratio = 1.5;
  }
  std::size_t edges = 0;
  obs::MetricRegistry registry;
  const obs::ScopedRegistry scope(&registry);
  for (auto _ : state) {
    Rng rng(42);
    const net::Network network = net::generate_topology(topo, rng);
    benchmark::DoNotOptimize(network.size());
    edges = 0;
    for (net::NodeId id = 0; id < network.size(); ++id) {
      edges += network.neighbors(id).size();
    }
  }
  state.counters["edges"] = double(edges / 2);
  state.counters["attempts"] =
      registry.value(obs::Metric::kNetTopologyAttempts) /
      double(state.iterations());
}
BENCHMARK(BM_TopologyGenerate)
    ->ArgNames({"nodes", "hetero"})
    ->Args({1'600, 0})
    ->Args({10'000, 0})
    ->Args({10'000, 1})
    ->Unit(benchmark::kMillisecond);

// The attacker's key-node survey (`rank_key_nodes`, all nodes alive) on the
// generated deployment the cascade rows use: one sink-rooted DFS yields
// every node's disconnect count, then the ranking sort.  `cuts` counts the
// nodes whose death disconnects at least one other.
void BM_KeyNodeSurvey(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const net::Network network = cascade_network(n);
  const net::TrafficLoads loads =
      net::compute_loads(network, net::build_routing_tree(network));
  std::size_t cuts = 0;
  for (auto _ : state) {
    const std::vector<net::KeyNodeInfo> ranked =
        net::rank_key_nodes(network, loads);
    cuts = 0;
    while (cuts < ranked.size() && ranked[cuts].disconnect_count > 0) ++cuts;
    benchmark::DoNotOptimize(ranked.data());
  }
  state.counters["cuts"] = double(cuts);
}
BENCHMARK(BM_KeyNodeSurvey)
    ->ArgName("nodes")
    ->Arg(1'600)
    ->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

// The post-mission report (`build_report`) over the trace of the benign
// N=10k BM_Mission row: key deaths, detection, session tallies and the
// partition instant, replayed over every recorded death.  The mission runs
// once, outside the timing; its network is regenerated from the same seed.
void BM_BuildReport(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const analysis::ScenarioConfig cfg = mission_config(n);
  const analysis::ScenarioResult mission =
      analysis::run_mission(cfg, analysis::ChargerMode::Benign);
  const net::Network network = mission_network(cfg);
  bool partitioned = false;
  for (auto _ : state) {
    const csa::AttackReport report = csa::build_report(
        network, mission.trace, mission.keys, mission.detections);
    partitioned = report.partition_time.has_value();
    benchmark::DoNotOptimize(report.keys_dead);
  }
  state.counters["deaths"] = double(mission.trace.deaths.size());
  state.counters["partitioned"] = partitioned ? 1.0 : 0.0;
}
BENCHMARK(BM_BuildReport)
    ->ArgName("nodes")
    ->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

// A full starvation collapse: nobody charges, all N nodes request, escalate,
// and die one by one — every death triggers a routing update and (Reference)
// a reschedule of every survivor.  World construction is excluded from the
// timed region; the measured work is the event loop from first tick to a
// dead network.
void BM_WorldDeathCascade(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool reference = state.range(1) != 0;
  const net::Network network = cascade_network(n);

  sim::WorldParams params;
  params.update_mode = reference ? sim::WorldUpdateMode::Reference
                                 : sim::WorldUpdateMode::Fast;
  std::uint64_t executed = 0;
  sim::WorldUpdateStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    sim::World world(sim, network, params, Rng(7));
    state.ResumeTiming();
    sim.run_all();
    benchmark::DoNotOptimize(world.alive_count());
    executed = sim.executed();
    stats = world.update_stats();
  }
  state.counters["events"] = double(executed);
  state.counters["deaths"] = double(n);
  state.counters["repairs"] = double(stats.repairs);
  state.counters["rebuilds"] = double(stats.rebuilds);
  state.counters["reschedules"] = double(stats.reschedules);
}
BENCHMARK(BM_WorldDeathCascade)
    ->ArgNames({"nodes", "reference"})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({400, 0})
    ->Args({400, 1})
    // Reference at N>=800 costs minutes per repetition (O(N^2 log N) in
    // reschedules alone); the Fast rows are the scaling story ROADMAP item 4
    // tracks toward the 10k-node frontier.
    ->Args({800, 0})
    ->Args({1600, 0})
    // The 10k frontier row: an entire deployment-scale collapse on the Fast
    // path — grid adjacency, SoA lanes, and subtree repair at target size.
    ->Args({10'000, 0})
    ->Unit(benchmark::kMillisecond);

// Size of `dead`'s routing subtree, excluding `dead` itself (one pass over
// the parent-before-child settle order).
std::size_t subtree_size(const net::RoutingTree& tree, net::NodeId dead) {
  std::vector<char> in_subtree(tree.parent.size(), 0);
  in_subtree[dead] = 1;
  std::size_t size = 0;
  for (const net::NodeId u : tree.settle_order) {
    const net::NodeId p = tree.parent[u];
    if (u != dead && p != net::kInvalidNode && in_subtree[p] != 0) {
      in_subtree[u] = 1;
      ++size;
    }
  }
  return size;
}

// Bitwise equality of every field of two routing trees.
bool same_tree(const net::RoutingTree& a, const net::RoutingTree& b) {
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(x[i]) !=
          std::bit_cast<std::uint64_t>(y[i])) {
        return false;
      }
    }
    return true;
  };
  return a.parent == b.parent && a.reachable == b.reachable &&
         a.settle_order == b.settle_order &&
         same_bits(a.path_cost, b.path_cost) &&
         same_bits(a.uplink_distance, b.uplink_distance);
}

// Routing repair under a real mission's death pattern.  Outside the timing,
// one benign BM_Mission run (perfbench's benign-10k geometry at N = 10k)
// records its death sequence; the timed region replays it on a fresh Fast
// World through inject_hardware_failure, so each death pays exactly the
// routing repair, loads/drains refresh and drain-diff rescheduling the
// mission paid.  Relays near the sink drain first, so these deaths hit
// large routing subtrees — unlike the cascade rows, whose deaths mostly
// hit unreachable leaves.  After every replay the world's tree must equal
// a fresh rebuild over the final alive mask, or the binary aborts.
// Counters: deaths replayed, repairs, full rebuilds, and the mean routing
// subtree size (excluding the dead node) over deaths of reachable nodes.
void BM_WorldRepairReplay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const analysis::ScenarioConfig cfg = mission_config(n);
  const net::Network network = mission_network(cfg);
  std::vector<net::NodeId> deaths;
  for (const sim::DeathRecord& death :
       analysis::run_mission(cfg, analysis::ChargerMode::Benign)
           .trace.deaths) {
    deaths.push_back(death.node);
  }

  std::size_t reachable_deaths = 0;
  std::size_t subtree_total = 0;
  {
    sim::Simulator sim;
    sim::World world(sim, network, cfg.world, Rng(7));
    for (const net::NodeId id : deaths) {
      if (world.routing().reachable[id]) {
        ++reachable_deaths;
        subtree_total += subtree_size(world.routing(), id);
      }
      world.inject_hardware_failure(id);
    }
  }

  sim::WorldUpdateStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    sim::World world(sim, network, cfg.world, Rng(7));
    state.ResumeTiming();
    for (const net::NodeId id : deaths) world.inject_hardware_failure(id);
    benchmark::DoNotOptimize(world.alive_count());
    state.PauseTiming();
    if (!same_tree(world.routing(),
                   net::build_routing_tree(network, world.alive_mask(),
                                           cfg.world.routing))) {
      std::fprintf(stderr,
                   "BM_WorldRepairReplay: repaired tree differs from a "
                   "full rebuild\n");
      std::abort();
    }
    stats = world.update_stats();
    state.ResumeTiming();
  }
  state.counters["deaths"] = double(deaths.size());
  state.counters["repairs"] = double(stats.repairs);
  state.counters["rebuilds"] = double(stats.rebuilds);
  state.counters["mean_subtree"] =
      reachable_deaths > 0 ? double(subtree_total) / double(reachable_deaths)
                           : 0.0;
}
BENCHMARK(BM_WorldRepairReplay)
    ->ArgName("nodes")
    ->Arg(1'600)
    ->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

// One full routing rebuild over the BM_Mission deployment (perfbench's
// benign-10k geometry at N = 10k) with every node alive, through a warm
// RoutingScratch: the bucket-frontier Dijkstra alone, no loads or drains.
// `time_per_node` is the time per settled node.
void BM_RoutingRebuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const analysis::ScenarioConfig cfg = mission_config(n);
  const net::Network network = mission_network(cfg);
  const Bitmap alive(n, true);
  net::RoutingTree tree;
  net::RoutingScratch scratch;
  scratch.reserve(n);
  net::rebuild_routing_tree(network, alive, cfg.world.routing, tree, scratch);
  for (auto _ : state) {
    net::rebuild_routing_tree(network, alive, cfg.world.routing, tree,
                              scratch);
    benchmark::DoNotOptimize(tree.settle_order.data());
    benchmark::ClobberMemory();
  }
  const double settled = double(tree.settle_order.size());
  state.counters["settled"] = settled;
  state.counters["time_per_node"] = benchmark::Counter(
      settled, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_RoutingRebuild)
    ->ArgName("nodes")
    ->Arg(1'600)
    ->Arg(10'000)
    ->Unit(benchmark::kMicrosecond);

// Kernel churn: steady state with `range` pending events, one fire and one
// schedule per op — the pattern of vehicles, faults and mobility epochs,
// each of which schedules its next event when one fires.  The new event
// lands at a pseudo-random depth of the heap.  Exercises the slab free list
// and the 4-ary heap; steady state allocates nothing.
void BM_KernelScheduleFireChurn(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    sim.schedule_at(double(i), [] {});
  }
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  for (auto _ : state) {
    sim.step();
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    sim.schedule_in(double((lcg >> 33) % live), [] {});
  }
  benchmark::DoNotOptimize(sim.executed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_KernelScheduleFireChurn)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000);

// The world's side of the churn: `range` nodes with an armed death timer,
// one re-arm per op.  A re-arm is one update-key in the node timer queue.
void BM_NodeTimerRearmChurn(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  sim::NodeTimerQueue timers([](std::uint32_t, sim::NodeTimer) {});
  timers.reset(nodes);
  sim.attach_timers(&timers);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    sim.arm_timer(i, sim::NodeTimer::Death, 1e12 + double(i));
  }
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  double t = 0.0;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto victim = static_cast<std::uint32_t>((lcg >> 33) % nodes);
    t += 1.0;
    sim.arm_timer(victim, sim::NodeTimer::Death, 1e12 + t);
  }
  sim.attach_timers(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NodeTimerRearmChurn)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000);

// End-to-end: one fig5 exhaustion trial (default 100-node deployment,
// 4-day horizon, CSA attacker) under each update mode.  The world update is
// only part of a trial (planning and detection share the bill), so the
// end-to-end gain is smaller than the cascade microbenchmark's.
void BM_Fig5Trial(benchmark::State& state) {
  const bool reference = state.range(0) != 0;
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.world.update_mode = reference ? sim::WorldUpdateMode::Reference
                                    : sim::WorldUpdateMode::Fast;
  cfg.seed = 42;
  std::size_t alive = 0;
  for (auto _ : state) {
    const analysis::ScenarioResult result =
        analysis::run_mission(cfg, analysis::ChargerMode::Attack);
    benchmark::DoNotOptimize(result.alive_at_end);
    alive = result.alive_at_end;
  }
  state.counters["alive_at_end"] = double(alive);
}
BENCHMARK(BM_Fig5Trial)
    ->ArgName("reference")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Scenario-frontier trials: the fig5 exhaustion mission with one frontier
// family enabled at a time, so the sweep shows what waypoint mobility
// (per-epoch adjacency rebuilds), k-coverage utility (planner reweighing),
// and heterogeneous classes each cost on top of the plain mission.
void BM_FrontierTrial(benchmark::State& state) {
  const auto family = static_cast<int>(state.range(0));
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 42;
  switch (family) {
    case 0:  // mobility
      cfg.world.mobility.fraction = 0.2;
      cfg.world.mobility.interval = 1'800.0;
      break;
    case 1:  // k-coverage
      cfg.world.coverage.k = 2;
      cfg.world.coverage.bonus = 1.0;
      break;
    default:  // heterogeneous classes
      cfg.topology.class_count = 3;
      cfg.topology.class_capacity_ratio = 2.0;
      cfg.topology.class_rate_ratio = 1.5;
      break;
  }
  std::size_t alive = 0;
  for (auto _ : state) {
    const analysis::ScenarioResult result =
        analysis::run_mission(cfg, analysis::ChargerMode::Attack);
    benchmark::DoNotOptimize(result.alive_at_end);
    alive = result.alive_at_end;
  }
  state.counters["alive_at_end"] = double(alive);
}
BENCHMARK(BM_FrontierTrial)
    ->ArgName("family")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Forwards to a CsaPlanner (so missions are bit-identical to the default
/// planner's) and counts the replans and the stops each one was handed.
class CountingPlanner final : public csa::Planner {
 public:
  std::string_view name() const override { return inner_.name(); }
  csa::Plan plan(const csa::TideInstance& instance, Rng& rng) const override {
    count(instance);
    return inner_.plan(instance, rng);
  }
  void plan_into(const csa::TideInstance& instance, Rng& rng,
                 csa::Plan& out) const override {
    count(instance);
    inner_.plan_into(instance, rng, out);
  }

  mutable std::uint64_t replans = 0;
  mutable std::uint64_t stops = 0;

 private:
  void count(const csa::TideInstance& instance) const {
    ++replans;
    stops += instance.stops.size();
  }
  csa::CsaPlanner inner_;
};

// The headline number: one whole mission (`run_mission`: topology, key
// selection, simulate to a 120 h horizon, detectors, report) at the
// calibrated default density (a 40*sqrt(N) m square field, 65 m radios,
// 80 m at N=10k), depot at the field centre, seed 42.  Attack rows run the
// CSA attacker (a fleet of 4 puts it in one Voronoi cell next to three
// honest chargers); benign rows run the honest NJNP charger and never plan.
// Counters: kernel events, attacker replans, and mean TIDE stops per
// replan (each travel row a replan computes spans that many stops); the
// mission health record (partition hour, sink-connected fraction at the
// end, escalations per node-hour, whether the deployed suite fired); and
// heap_peak, the most kernel-heap entries plus queued timer nodes at once.
void BM_Mission(benchmark::State& state) {
  const bool attack = state.range(0) != 0;
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto fleet = static_cast<std::size_t>(state.range(2));
  analysis::ScenarioConfig cfg = mission_config(n);
  cfg.fleet_size = fleet;
  cfg.fleet_compromised = 0;
  const analysis::ChargerMode mode = attack ? analysis::ChargerMode::Attack
                                            : analysis::ChargerMode::Benign;
  std::uint64_t events = 0;
  std::uint64_t replans = 0;
  std::uint64_t stops = 0;
  std::size_t alive = 0;
  Seconds partition = cfg.horizon;
  std::size_t sink_connected = 0;
  std::size_t escalations = 0;
  bool flagged = false;
  // The registry only feeds the heap_peak counter; both sides of a
  // before/after recording pay for it alike.
  obs::MetricRegistry registry;
  const obs::ScopedRegistry scope(&registry);
  for (auto _ : state) {
    const CountingPlanner planner;
    const analysis::ScenarioResult result =
        analysis::run_mission(cfg, mode, &planner);
    benchmark::DoNotOptimize(result.alive_at_end);
    events = result.events_executed;
    replans = planner.replans;
    stops = planner.stops;
    alive = result.alive_at_end;
    partition = result.report.partition_time.value_or(cfg.horizon);
    sink_connected = result.sink_connected_at_end;
    escalations = result.trace.escalations.size();
    flagged =
        detect::DetectorSuite::earliest(result.detections).has_value();
  }
  state.counters["events"] = double(events);
  state.counters["replans"] = double(replans);
  state.counters["stops_per_replan"] =
      replans > 0 ? double(stops) / double(replans) : 0.0;
  state.counters["alive_at_end"] = double(alive);
  // Mission health: whether this row simulates a live network or a
  // collapsed one.  partition_h is the hour the network first partitioned
  // (the horizon when it never did); flagged is 1 when the deployed suite
  // fired, a false positive on a benign row.
  const double node_hours = double(n) * cfg.horizon / 3'600.0;
  state.counters["partition_h"] = partition / 3'600.0;
  state.counters["sink_connected_frac"] = double(sink_connected) / double(n);
  state.counters["escalations_per_node_h"] = double(escalations) / node_hours;
  state.counters["flagged"] = flagged ? 1.0 : 0.0;
  state.counters["heap_peak"] = registry.value(obs::Metric::kSimHeapPeak);
}
BENCHMARK(BM_Mission)
    ->ArgNames({"attack", "nodes", "fleet"})
    ->Args({1, 100, 1})
    ->Args({1, 1'600, 1})
    ->Args({1, 10'000, 1})
    ->Args({1, 1'600, 4})
    ->Args({0, 100, 1})
    ->Args({0, 1'600, 1})
    ->Args({0, 10'000, 1})
    ->Unit(benchmark::kMillisecond);

// Observability overhead: the fig5 trial with a MetricRegistry installed
// versus none.  Paired design — every iteration runs both arms back to
// back and the reported (manual) time is the instrumented arm, so machine
// drift across the run cancels instead of masquerading as overhead (a ~1 ms
// trial measured in two sequential benchmark rows shows ±5 % swings from
// drift alone on a busy host).  The arms alternate which runs first, so the
// cost of running second (or first) falls on both equally.
// `overhead_pct` is the paired relative slowdown; the acceptance bound for
// the PR that added src/obs/ is < 3 %.  (With no registry the macros cost
// one thread-local load and branch per write; building with -DWRSN_OBS=0
// removes even the branch.)
void BM_Fig5TrialObs(benchmark::State& state) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = 42;
  double base_seconds = 0.0;
  double obs_seconds = 0.0;
  double events_fired = 0.0;
  const auto run_arm = [&](obs::MetricRegistry* registry) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::ScopedRegistry scope(registry);
      const analysis::ScenarioResult result =
          analysis::run_mission(cfg, analysis::ChargerMode::Attack);
      benchmark::DoNotOptimize(result.alive_at_end);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  bool base_first = true;
  for (auto _ : state) {
    obs::MetricRegistry registry;
    double base_iter = 0.0;
    double obs_iter = 0.0;
    if (base_first) {
      base_iter = run_arm(nullptr);
      obs_iter = run_arm(&registry);
    } else {
      obs_iter = run_arm(&registry);
      base_iter = run_arm(nullptr);
    }
    base_first = !base_first;
    base_seconds += base_iter;
    obs_seconds += obs_iter;
    state.SetIterationTime(obs_iter);
    events_fired = registry.value(obs::Metric::kSimEventsFired);
  }
  state.counters["events_fired"] = events_fired;
  state.counters["overhead_pct"] =
      base_seconds > 0.0 ? 100.0 * (obs_seconds - base_seconds) / base_seconds
                         : 0.0;
}
BENCHMARK(BM_Fig5TrialObs)
    ->UseManualTime()
    // A trial runs ~1 ms; force enough pairs that the paired comparison
    // resolves sub-percent overheads instead of run-to-run noise.
    ->MinTime(2.0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
