// Table II — Algorithm scalability: CSA planning time versus instance size,
// and the exact solver's exponential wall, measured with google-benchmark.
//
// Expected shape: CSA stays sub-second up to 1600 stops (O(1) slack-based
// insertion feasibility + lazy greedy fill; see core/route_state.hpp); the
// exact DP blows up past ~16 stops, which is why the approximation exists.
//
// Reproduce with bench/run_benchmarks.sh, which records the JSON trajectory
// in BENCH_table2.json (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "core/exact.hpp"
#include "core/fleet_planner.hpp"
#include "core/planners.hpp"
#include "core/route_state.hpp"

namespace {

using namespace wrsn;

csa::TideInstance random_instance(std::size_t keys, std::size_t stops,
                                  std::uint64_t seed) {
  Rng gen(seed);
  csa::TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.start_time = 0.0;
  inst.speed = 3.0;
  const auto add = [&](bool key) {
    csa::Stop stop;
    stop.node = static_cast<net::NodeId>(inst.stops.size());
    stop.position = {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)};
    stop.window_open = gen.uniform(0.0, 20'000.0);
    stop.window_close = stop.window_open + gen.uniform(3'600.0, 14'400.0);
    stop.service_time = gen.uniform(600.0, 1'800.0);
    stop.is_key = key;
    stop.utility = key ? 0.0 : gen.uniform(100.0, 8'000.0);
    inst.stops.push_back(stop);
  };
  for (std::size_t i = 0; i < keys; ++i) add(true);
  for (std::size_t i = 0; i < stops; ++i) add(false);
  return inst;
}

// One replan as the attacker's loop runs it: plan_into on the planner's
// arenas.  The route computes its travel rows inside the timed region, as
// every replan does.
void BM_CsaPlanner(benchmark::State& state) {
  const auto stops = static_cast<std::size_t>(state.range(0));
  const csa::TideInstance inst = random_instance(10, stops, 42);
  const csa::CsaPlanner planner;
  Rng rng(1);
  csa::Plan plan;
  double utility = 0.0;
  std::size_t scheduled = 0;
  for (auto _ : state) {
    planner.plan_into(inst, rng, plan);
    // Const view: GCC miscompiles the read-write ("+m,r") DoNotOptimize
    // overload on a double lvalue, which garbled the utility counter.
    benchmark::DoNotOptimize(std::as_const(plan.utility));
    utility = plan.utility;
    scheduled = plan.visits.size();
  }
  state.counters["utility"] = utility;
  state.counters["visits"] = double(scheduled);
}
BENCHMARK(BM_CsaPlanner)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Arg(800)->Arg(1600)->Unit(benchmark::kMillisecond);

// Fleet-level scalability: the cooperative planner (Voronoi seeding, EDF key
// assignment, per-cell CELF fill, spill auction) over 1/2/4 chargers sharing
// one stop pool.  Uses plan_into on arena state, like the replan loop does;
// every charger's route computes its travel rows inside the timed region,
// as BM_CsaPlanner's does.
void BM_FleetPlanner(benchmark::State& state) {
  const auto chargers = static_cast<std::size_t>(state.range(0));
  const auto stops = static_cast<std::size_t>(state.range(1));
  Rng gen(42);
  csa::FleetInstance inst;
  for (std::size_t m = 0; m < chargers; ++m) {
    csa::FleetCharger c;
    c.start_position = {gen.uniform(-200.0, 200.0),
                        gen.uniform(-200.0, 200.0)};
    c.speed = 3.0;
    inst.chargers.push_back(c);
  }
  for (std::size_t i = 0; i < 10 + stops; ++i) {
    const bool key = i < 10;
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
  const csa::CooperativeFleetPlanner planner;
  csa::FleetPlan plan;
  double utility = 0.0;
  std::size_t scheduled = 0;
  for (auto _ : state) {
    planner.plan_into(inst, plan);
    benchmark::DoNotOptimize(std::as_const(plan.utility));
    utility = plan.utility;
    scheduled = 0;
    for (const csa::Plan& p : plan.plans) scheduled += p.visits.size();
  }
  state.counters["utility"] = utility;
  state.counters["visits"] = double(scheduled);
}
BENCHMARK(BM_FleetPlanner)
    ->ArgsProduct({{1, 2, 4}, {400, 800, 1600}})
    ->Unit(benchmark::kMillisecond);

// Microbenchmark of the planner's hot primitive: one best_insertion scan
// over a route of `range` stops.  With the slack suffix array each position
// is O(1), so this should scale linearly in the route length.
void BM_RouteStateInsert(benchmark::State& state) {
  const auto route_stops = static_cast<std::size_t>(state.range(0));
  // Wide windows so every stop can be appended; the probe stop is scanned
  // against every position of the built route.
  csa::TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.start_time = 0.0;
  inst.speed = 3.0;
  Rng gen(7);
  for (std::size_t i = 0; i <= route_stops; ++i) {
    csa::Stop stop;
    stop.node = static_cast<net::NodeId>(i);
    stop.position = {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)};
    stop.window_open = 0.0;
    stop.window_close = 1e9;
    stop.service_time = gen.uniform(60.0, 120.0);
    stop.utility = 1.0;
    inst.stops.push_back(stop);
  }
  csa::RouteState route(inst);
  for (std::size_t i = 0; i < route_stops; ++i) {
    route.insert(i, route.order().size());
  }
  const std::size_t probe = route_stops;  // the one stop not in the route
  for (auto _ : state) {
    const auto best = route.best_insertion(probe);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(route_stops + 1));
}
BENCHMARK(BM_RouteStateInsert)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

void BM_ExactPlanner(benchmark::State& state) {
  const auto stops = static_cast<std::size_t>(state.range(0));
  const csa::TideInstance inst = random_instance(2, stops, 42);
  const csa::ExactPlanner planner;
  Rng rng(1);
  for (auto _ : state) {
    const csa::Plan plan = planner.plan(inst, rng);
    benchmark::DoNotOptimize(plan.utility);
  }
}
BENCHMARK(BM_ExactPlanner)->Arg(6)->Arg(8)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyNearest(benchmark::State& state) {
  const auto stops = static_cast<std::size_t>(state.range(0));
  const csa::TideInstance inst = random_instance(10, stops, 42);
  const csa::GreedyNearestPlanner planner;
  Rng rng(1);
  for (auto _ : state) {
    const csa::Plan plan = planner.plan(inst, rng);
    benchmark::DoNotOptimize(plan.utility);
  }
}
BENCHMARK(BM_GreedyNearest)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
