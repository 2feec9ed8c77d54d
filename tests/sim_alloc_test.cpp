// Zero-steady-state-allocation guarantee for the death hot path.
//
// This binary overrides global operator new/delete with counting versions
// (which is why it is a separate test target) and asserts that, once the
// world is warmed up — kernel slab/heap reserved, routing scratch sized,
// trace vectors reserved — an entire death cascade runs without a single
// heap allocation: node timer arms and disarms (update-keys in the
// pre-sized timer queue), routing repair (persistent buffers + scratch),
// load/drain refresh, and the drain-diff rescheduling sweep.  So do a
// reschedule storm, escalations and interceptor-deferred reports.
//
// The same guarantee is pinned for the planners (CsaPlanner::plan_into and
// the fleet replan run on arenas reused across calls).  The counter also
// sums the bytes requested, which bounds what a large plan's travel rows
// hold.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "analysis/scenario.hpp"
#include "common/rng.hpp"
#include "core/fleet_planner.hpp"
#include "core/planners.hpp"
#include "core/route_state.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"
#include "svc/service.hpp"

namespace {

// Thread-local so multi-threaded service tests can pin the REQUESTING
// thread's path while worker threads execute missions (which allocate
// freely) in parallel.
thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;
thread_local std::size_t g_bytes = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
    g_bytes += size;
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wrsn::sim {
namespace {

TEST(WorldAllocation, DeathCascadeHotPathDoesNotAllocate) {
  Simulator sim;
  net::TopologyConfig topo;
  topo.node_count = 100;
  topo.region = {{0.0, 0.0}, {400.0, 400.0}};
  topo.comm_range = 65.0;
  Rng topo_rng(42);
  net::Network network = net::generate_topology(topo, topo_rng);

  WorldParams params;
  params.emergency_enabled = true;  // exercise the comparator event path too
  params.update_mode = WorldUpdateMode::Fast;
  World world(sim, std::move(network), params, Rng(7));

  // The trace is append-only output, not part of the update machinery;
  // reserving it is the caller's knob for allocation-free steady state.
  world.trace().requests.reserve(4096);
  world.trace().sessions.reserve(64);
  world.trace().deaths.reserve(1024);
  world.trace().escalations.reserve(4096);

  // Warm up through the first death: the first cascade touches any
  // lazily-grown capacity that remains.
  while (world.trace().deaths.empty() && sim.step()) {
  }
  ASSERT_FALSE(world.trace().deaths.empty());

  // From here on, the entire network starves and dies (nobody charges):
  // every remaining request, escalation, emergency, death, routing repair,
  // and reschedule must run allocation-free.
  g_allocations = 0;
  g_counting = true;
  while (world.alive_count() > 0 && sim.step()) {
  }
  g_counting = false;

  EXPECT_EQ(world.alive_count(), 0u);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(WorldAllocation, TimerChurnDoesNotAllocate) {
  // The node timer queue's churn after warmup: a reschedule storm (every
  // alive node's charge input toggled, each toggle re-keying its death,
  // request and emergency timers), escalations reaching the base station,
  // and the tampering interceptor deferring each report once.
  Simulator sim;
  net::TopologyConfig topo;
  topo.node_count = 100;
  topo.region = {{0.0, 0.0}, {400.0, 400.0}};
  topo.comm_range = 65.0;
  Rng topo_rng(42);
  net::Network network = net::generate_topology(topo, topo_rng);

  WorldParams params;
  params.emergency_enabled = true;
  params.patience = 600.0;
  params.hardware_mtbf = 30.0 * 86'400.0;
  // Start just above the request threshold so requests keep arriving.
  params.initial_level_min = 0.31;
  params.initial_level_max = 0.40;
  World world(sim, std::move(network), params, Rng(7));
  // Every report is deferred once (the interceptor is consulted once per
  // request), then delivered.
  std::size_t delays = 0;
  world.set_escalation_interceptor([&](net::NodeId) {
    ++delays;
    return EscalationDecision{EscalationAction::Delay, 300.0};
  });
  world.trace().requests.reserve(4096);
  world.trace().deaths.reserve(1024);
  world.trace().escalations.reserve(4096);

  const auto storm = [&] {
    for (net::NodeId id = 0; id < world.network().size(); ++id) {
      world.set_charge_input(id, 0.5 * world.drain_rate(id));
      world.set_charge_input(id, 0.0);
    }
  };
  // Warm up until escalations have been both delivered and deferred.
  Seconds t = 0.0;
  while (world.trace().escalations.empty() || delays == 0) {
    storm();
    t += 1'800.0;
    sim.run_until(t);
  }
  const std::size_t escalations = world.trace().escalations.size();
  const std::size_t deferred = delays;

  g_allocations = 0;
  g_counting = true;
  for (int round = 0; round < 24; ++round) {
    storm();
    t += 1'800.0;
    sim.run_until(t);
  }
  g_counting = false;

  EXPECT_GT(world.trace().escalations.size(), escalations);
  EXPECT_GT(delays, deferred);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(WorldAllocation, MobilityEpochSteadyStateDoesNotAllocate) {
  Simulator sim;
  net::TopologyConfig topo;
  topo.node_count = 100;
  topo.region = {{0.0, 0.0}, {400.0, 400.0}};
  topo.comm_range = 65.0;
  topo.battery_capacity = 1e9;  // death-free: only mobility events fire
  Rng topo_rng(42);
  net::Network network = net::generate_topology(topo, topo_rng);

  WorldParams params;
  params.update_mode = WorldUpdateMode::Fast;
  params.mobility.fraction = 0.3;
  params.mobility.interval = 600.0;
  World world(sim, std::move(network), params, Rng(7));

  // Warm up: early epochs grow the grid buckets, the CSR high-water marks,
  // and the routing scratch to their steady sizes.
  sim.run_until(8 * params.mobility.interval);
  ASSERT_GE(world.update_stats().mobility_epochs, 8u);

  // Steady state: interpolate walkers, rebuild adjacency into persistent
  // buffers, full Dijkstra refresh, drain-diff reschedule — zero heap.
  g_allocations = 0;
  g_counting = true;
  sim.run_until(16 * params.mobility.interval);
  g_counting = false;

  EXPECT_EQ(world.update_stats().mobility_epochs, 16u);
  EXPECT_EQ(g_allocations, 0u);
}

csa::Stop random_stop(Rng& gen, std::size_t index, bool key) {
  csa::Stop stop;
  stop.node = static_cast<net::NodeId>(index);
  stop.position = {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)};
  stop.window_open = gen.uniform(0.0, 20'000.0);
  stop.window_close = stop.window_open + gen.uniform(3'600.0, 14'400.0);
  stop.service_time = gen.uniform(600.0, 1'800.0);
  stop.is_key = key;
  stop.utility = key ? 0.0 : gen.uniform(100.0, 8'000.0);
  return stop;
}

TEST(PlannerAllocation, CsaPlanIsAllocationFreeAfterWarmup) {
  Rng gen(42);
  csa::TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.speed = 3.0;
  for (std::size_t i = 0; i < 410; ++i) {
    inst.stops.push_back(random_stop(gen, i, i < 10));
  }

  const csa::CsaPlanner planner;
  Rng rng(1);
  csa::Plan plan;
  planner.plan_into(inst, rng, plan);  // warmup sizes every arena
  const double warm_utility = plan.utility;

  g_allocations = 0;
  g_counting = true;
  planner.plan_into(inst, rng, plan);
  g_counting = false;

  EXPECT_EQ(plan.utility, warm_utility);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(PlannerAllocation, FleetReplanIsAllocationFreeAfterWarmup) {
  Rng gen(42);
  csa::FleetInstance inst;
  for (std::size_t m = 0; m < 3; ++m) {
    csa::FleetCharger c;
    c.start_position = {gen.uniform(-200.0, 200.0),
                        gen.uniform(-200.0, 200.0)};
    c.speed = 3.0;
    inst.chargers.push_back(c);
  }
  for (std::size_t i = 0; i < 410; ++i) {
    inst.stops.push_back(random_stop(gen, i, i < 10));
  }

  const csa::CooperativeFleetPlanner planner;
  csa::FleetPlan plan;
  planner.plan_into(inst, plan);  // warmup sizes every arena
  const double warm_utility = plan.utility;

  g_allocations = 0;
  g_counting = true;
  planner.plan_into(inst, plan);
  g_counting = false;

  EXPECT_EQ(plan.utility, warm_utility);
  EXPECT_EQ(g_allocations, 0u);
}

// The replan loop as the attacker runs it — the instance's stops rebuilt in
// place, then plan_into — over a stop set that shrinks and grows back
// (requests served, then new ones raised).
// Storage sized by the large warmup must serve the small pass and the
// large pass again without a single allocation, on both planners.
TEST(PlannerAllocation, ReplansStayAllocationFreeAcrossLargeSmallLarge) {
  Rng gen(7);
  std::vector<csa::Stop> pool;
  for (std::size_t i = 0; i < 810; ++i) {
    pool.push_back(random_stop(gen, i, i < 10));
  }
  const auto sized = [&](std::size_t n) {
    return std::vector<csa::Stop>(pool.begin(),
                                  pool.begin() + static_cast<long>(n));
  };
  const std::vector<csa::Stop> large = sized(810);
  const std::vector<csa::Stop> small = sized(90);

  csa::TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.speed = 3.0;
  const csa::CsaPlanner planner;
  Rng rng(1);
  csa::Plan plan;
  const auto replan = [&](const std::vector<csa::Stop>& stops) {
    inst.stops.assign(stops.begin(), stops.end());
    planner.plan_into(inst, rng, plan);
    return plan.utility;
  };

  csa::FleetInstance fleet;
  for (std::size_t m = 0; m < 3; ++m) {
    csa::FleetCharger c;
    c.start_position = {gen.uniform(-200.0, 200.0),
                        gen.uniform(-200.0, 200.0)};
    c.speed = 3.0;
    fleet.chargers.push_back(c);
  }
  const csa::CooperativeFleetPlanner fleet_planner;
  csa::FleetPlan fleet_plan;
  const auto fleet_replan = [&](const std::vector<csa::Stop>& stops) {
    fleet.stops.assign(stops.begin(), stops.end());
    fleet_planner.plan_into(fleet, fleet_plan);
    return fleet_plan.utility;
  };

  // Warmup: each size once, so the passes below are pure reuse.
  const double large_utility = replan(large);
  const double small_utility = replan(small);
  const double large_fleet_utility = fleet_replan(large);
  const double small_fleet_utility = fleet_replan(small);
  replan(large);
  fleet_replan(large);

  g_allocations = 0;
  g_counting = true;
  const double u_small = replan(small);
  const double u_large = replan(large);
  const double f_small = fleet_replan(small);
  const double f_large = fleet_replan(large);
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(u_small, small_utility);
  EXPECT_EQ(u_large, large_utility);
  EXPECT_EQ(f_small, small_fleet_utility);
  EXPECT_EQ(f_large, large_fleet_utility);
}

// A 1,610-stop plan holds the travel rows its route fills, not an n x n
// block (20.7 MB at this size).  A fresh RouteState inserts the plan's
// visits in order, so the bytes counted below are its own: the start row
// (8 B a stop), one n-cell buffer per row filled, and the route arrays and
// pool table (a few words per route stop).
TEST(PlannerAllocation, LargePlanMatrixBytesScaleWithRowsFilled) {
  constexpr std::size_t kStops = 1'610;
  Rng gen(42);
  csa::TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.speed = 3.0;
  for (std::size_t i = 0; i < kStops; ++i) {
    inst.stops.push_back(random_stop(gen, i, i < 10));
  }
  const csa::CsaPlanner planner;
  Rng rng(1);
  csa::Plan plan;
  planner.plan_into(inst, rng, plan);

  g_bytes = 0;
  g_counting = true;
  csa::RouteState route(inst);
  for (const csa::Visit& v : plan.visits) {
    route.insert(v.stop_index, route.order().size());
  }
  g_counting = false;

  EXPECT_EQ(route.to_plan().utility, plan.utility);
  const std::size_t rows = route.order().size();
  EXPECT_GT(rows, 0u);
  EXPECT_LT(rows, kStops / 4);
  const std::size_t row_bytes = kStops * sizeof(Seconds);
  EXPECT_LE(g_bytes, (rows + 1) * row_bytes + 4 * row_bytes)
      << rows << " rows filled";
}

// ---------------------------------------------------------------------------
// Mission service: the shared request paths (cache hit, coalesced join) are
// allocation-free on the requesting thread after warmup.  Worker threads
// executing missions allocate freely — the counters are thread_local
// precisely so their work is invisible here.
// ---------------------------------------------------------------------------

svc::MissionRequest service_request(std::uint64_t seed) {
  svc::MissionRequest request;
  request.config = analysis::default_scenario();
  request.config.seed = seed;
  request.config.topology.node_count = 16;
  request.config.topology.region = {{0.0, 0.0}, {160.0, 160.0}};
  request.config.topology.battery_capacity = 2'000.0;
  request.config.world.drain.sensing_power = 0.05;
  request.config.horizon = 7'200.0;
  return request;
}

TEST(ServiceAllocation, CacheHitPathDoesNotAllocate) {
  svc::ServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  svc::MissionService service(options);
  const svc::MissionRequest request = service_request(3);

  // Warmup: one execution, one hit (the hit also touches every lazily-built
  // piece of the submit path — obs span, key digest, cache lookup).
  const svc::MissionResponse executed = service.submit(request);
  ASSERT_EQ(executed.status, svc::MissionStatus::kOk);
  ASSERT_EQ(service.submit(request).route, svc::MissionRoute::kCacheHit);

  g_allocations = 0;
  g_counting = true;
  svc::MissionResponse hit;
  for (int i = 0; i < 100; ++i) {
    hit = service.submit(request);
  }
  g_counting = false;

  ASSERT_EQ(hit.route, svc::MissionRoute::kCacheHit);
  EXPECT_EQ(std::memcmp(&hit.outcome, &executed.outcome,
                        sizeof(svc::MissionOutcome)),
            0);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(ServiceAllocation, CoalescedJoinPathDoesNotAllocate) {
  svc::ServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  svc::MissionService service(options);

  // Park every execution until released.  The hook runs on the worker after
  // the flight is registered in the service's flight table, so `parked` is the
  // "safe to join now" signal.
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  service.set_execution_hook([&] {
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });

  // Warmup round: creator + join, then drain, so the flight table and the
  // collector path have both been exercised.
  const svc::MissionRequest warm = service_request(5);
  std::thread warm_creator([&] { service.submit(warm); });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  std::thread warm_releaser([&] {
    while (service.stats().coalesced < 1) std::this_thread::yield();
    release.store(true, std::memory_order_release);
  });
  service.submit(warm);
  warm_creator.join();
  warm_releaser.join();
  service.drain();
  parked.store(false, std::memory_order_release);
  release.store(false, std::memory_order_release);

  // Measured round: a fresh scenario executes (parked); this thread joins
  // it.  A releaser thread opens the gate once the join is registered, so
  // the measured thread does nothing but stage-join-wait-copy.
  const svc::MissionRequest request = service_request(6);
  svc::MissionResponse created;
  std::thread creator([&] { created = service.submit(request); });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  std::thread releaser([&] {
    while (service.stats().coalesced < 2) std::this_thread::yield();
    release.store(true, std::memory_order_release);
  });

  g_allocations = 0;
  g_counting = true;
  const svc::MissionResponse joined = service.submit(request);
  g_counting = false;

  creator.join();
  releaser.join();
  ASSERT_EQ(joined.status, svc::MissionStatus::kOk);
  ASSERT_EQ(joined.route, svc::MissionRoute::kCoalesced);
  EXPECT_EQ(std::memcmp(&joined.outcome, &created.outcome,
                        sizeof(svc::MissionOutcome)),
            0);
  EXPECT_EQ(g_allocations, 0u);
}

}  // namespace
}  // namespace wrsn::sim
