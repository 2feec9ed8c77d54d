// Tests for the mobile charger vehicle, the TSP toolkit, and the benign
// charging agent.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mc/vehicle.hpp"
#include "mc/charger.hpp"
#include "mc/tsp.hpp"
#include "net/topology.hpp"

namespace wrsn::mc {
namespace {

using geom::Vec2;

ChargerParams test_charger() {
  ChargerParams params;
  params.depot = {0.0, 0.0};
  params.speed = 2.0;
  params.battery_capacity = 1e5;
  params.travel_cost_per_meter = 10.0;
  params.pa_efficiency = 0.8;
  params.depot_recharge_power = 100.0;
  return params;
}

TEST(Charger, ParamsValidation) {
  ChargerParams p = test_charger();
  p.speed = 0.0;
  EXPECT_THROW(MobileCharger{p}, ConfigError);
  p = test_charger();
  p.pa_efficiency = 1.5;
  EXPECT_THROW(MobileCharger{p}, ConfigError);
  p = test_charger();
  p.battery_capacity = 0.0;
  EXPECT_THROW(MobileCharger{p}, ConfigError);
}

TEST(Charger, StartsAtDepotFullyCharged) {
  MobileCharger mc(test_charger());
  EXPECT_EQ(mc.position(0.0), Vec2(0.0, 0.0));
  EXPECT_DOUBLE_EQ(mc.battery_fraction(), 1.0);
  EXPECT_FALSE(mc.traveling());
}

TEST(Charger, TravelInterpolatesPosition) {
  MobileCharger mc(test_charger());
  const Seconds arrival = mc.begin_travel(0.0, {20.0, 0.0});
  EXPECT_DOUBLE_EQ(arrival, 10.0);  // 20 m at 2 m/s
  EXPECT_TRUE(mc.traveling());
  EXPECT_EQ(mc.position(5.0), Vec2(10.0, 0.0));
  EXPECT_EQ(mc.position(10.0), Vec2(20.0, 0.0));
  EXPECT_EQ(mc.position(12.0), Vec2(20.0, 0.0));  // clamps past arrival
  mc.arrive(10.0);
  EXPECT_FALSE(mc.traveling());
}

TEST(Charger, TravelEnergyAccounted) {
  MobileCharger mc(test_charger());
  mc.begin_travel(0.0, {20.0, 0.0});
  EXPECT_DOUBLE_EQ(mc.ledger().travel, 200.0);
  EXPECT_DOUBLE_EQ(mc.battery_level(), 1e5 - 200.0);
}

TEST(Charger, HaltPinsMidSegment) {
  MobileCharger mc(test_charger());
  mc.begin_travel(0.0, {20.0, 0.0});
  mc.halt(5.0);
  EXPECT_FALSE(mc.traveling());
  EXPECT_EQ(mc.position(7.0), Vec2(10.0, 0.0));
}

TEST(Charger, ArriveBeforeTimeThrows) {
  MobileCharger mc(test_charger());
  mc.begin_travel(0.0, {20.0, 0.0});
  EXPECT_THROW(mc.arrive(5.0), PreconditionError);
}

TEST(Charger, RadiationSplitsLedgerByKind) {
  MobileCharger mc(test_charger());
  mc.radiate(4.0, 10.0, /*spoofed=*/false);
  mc.radiate(4.0, 5.0, /*spoofed=*/true);
  EXPECT_DOUBLE_EQ(mc.ledger().radiated_genuine, 40.0);
  EXPECT_DOUBLE_EQ(mc.ledger().radiated_spoofed, 20.0);
  EXPECT_DOUBLE_EQ(mc.ledger().radiated_total(), 60.0);
  // PA losses: drawn = radiated / 0.8.
  EXPECT_DOUBLE_EQ(mc.ledger().drawn_for_radiation, 75.0);
  EXPECT_DOUBLE_EQ(mc.radiation_draw(4.0), 5.0);
}

TEST(Charger, DepotRecharge) {
  MobileCharger mc(test_charger());
  mc.radiate(4.0, 100.0, false);  // draw 500 J
  EXPECT_DOUBLE_EQ(mc.depot_recharge_time(), 5.0);
  mc.recharge_full();
  EXPECT_DOUBLE_EQ(mc.battery_fraction(), 1.0);
}

TEST(Tsp, TourLengthOfKnownOrder) {
  const std::vector<Vec2> pts{{10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}};
  const std::vector<std::size_t> order{0, 1, 2};
  EXPECT_DOUBLE_EQ(tour_length(pts, order, {0.0, 0.0}), 30.0);
}

TEST(Tsp, NearestNeighborOnLineIsOptimal) {
  const std::vector<Vec2> pts{{30.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}};
  const auto order = nearest_neighbor_tour(pts, {0.0, 0.0});
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Tsp, TwoOptImprovesCrossedTour) {
  // Square: visiting corners in crossing order is improvable.
  const std::vector<Vec2> pts{{0, 10}, {10, 0}, {10, 10}, {0, 0}};
  std::vector<std::size_t> order{0, 1, 2, 3};
  const double before = tour_length(pts, order, {0.0, 0.0});
  const std::size_t moves = two_opt(pts, order, {0.0, 0.0});
  const double after = tour_length(pts, order, {0.0, 0.0});
  EXPECT_GT(moves, 0u);
  EXPECT_LT(after, before);
}

TEST(Tsp, TwoOptNeverWorsens) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 12; ++i) {
      pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    std::vector<std::size_t> order(pts.size());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    const double before = tour_length(pts, order, {0.0, 0.0});
    two_opt(pts, order, {0.0, 0.0});
    const double after = tour_length(pts, order, {0.0, 0.0});
    EXPECT_LE(after, before + 1e-9);
    // Order must remain a permutation.
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(Tsp, PlanTourBeatsRandomOrderOnAverage) {
  Rng rng(5);
  double planned_total = 0.0, random_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 15; ++i) {
      pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    const auto tour = plan_tour(pts, {0.0, 0.0});
    planned_total += tour_length(pts, tour, {0.0, 0.0});
    std::vector<std::size_t> rand_order(pts.size());
    std::iota(rand_order.begin(), rand_order.end(), 0u);
    rng.shuffle(rand_order);
    random_total += tour_length(pts, rand_order, {0.0, 0.0});
  }
  EXPECT_LT(planned_total, random_total);
}

TEST(Tsp, EmptyAndSingleton) {
  const std::vector<Vec2> empty;
  EXPECT_TRUE(nearest_neighbor_tour(empty, {0, 0}).empty());
  const std::vector<Vec2> one{{5.0, 0.0}};
  const auto order = nearest_neighbor_tour(one, {0, 0});
  ASSERT_EQ(order.size(), 1u);
  EXPECT_DOUBLE_EQ(tour_length(one, order, {0, 0}), 5.0);
}

// --- agent-level tests on a small world -----------------------------------

sim::WorldParams agent_world_params() {
  sim::WorldParams params;
  params.request_threshold = 0.3;
  params.patience = 20'000.0;
  params.min_request_gap = 60.0;
  params.initial_level_min = 0.5;
  params.initial_level_max = 1.0;
  params.benign_gain_cv = 0.1;
  params.drain.sensing_power = 0.025;  // brisk cycles, ~60 % charger load
  return params;
}

net::Network agent_network(std::uint64_t seed, std::size_t count = 20) {
  net::TopologyConfig cfg;
  cfg.region = {{0.0, 0.0}, {80.0, 80.0}};
  cfg.node_count = count;
  cfg.comm_range = 30.0;
  cfg.battery_capacity = 2'000.0;
  cfg.mean_data_rate_bps = 2'000.0;
  Rng rng(seed);
  return net::generate_topology(cfg, rng);
}

AgentParams agent_params() {
  AgentParams params;
  params.charger = test_charger();
  params.charger.speed = 5.0;
  params.charger.battery_capacity = 5e6;
  return params;
}

TEST(Agent, ServesRequestsAndKeepsNetworkAlive) {
  sim::Simulator sim;
  sim::World world(sim, agent_network(21), agent_world_params(), Rng(2));
  Vehicle agent(world, agent_params());
  agent.start();
  sim.run_until(80'000.0);
  EXPECT_GT(agent.sessions_completed(), 5u);
  EXPECT_EQ(world.alive_count(), 20u);
  EXPECT_TRUE(world.trace().escalations.empty());
}

TEST(Agent, SessionsDeliverTheDeficit) {
  sim::Simulator sim;
  sim::World world(sim, agent_network(22), agent_world_params(), Rng(3));
  Vehicle agent(world, agent_params());
  agent.start();
  sim.run_until(80'000.0);
  ASSERT_GT(world.trace().sessions.size(), 5u);
  double ratio_sum = 0.0;
  for (const sim::SessionRecord& s : world.trace().sessions) {
    EXPECT_EQ(s.kind, sim::SessionKind::Genuine);
    EXPECT_GT(s.rf_observed, 0.0);
    EXPECT_GT(s.radiated, 0.0);
    // Energy-target service: delivered/expected == gain/mean-gain, i.e. the
    // node's calibrated expectation is unbiased but per-session noisy.
    const double ratio = s.delivered / s.expected_gain;
    EXPECT_GT(ratio, 0.4 / 0.85 - 0.05);
    EXPECT_LT(ratio, 1.6 / 0.85 + 0.05);
    ratio_sum += ratio;
  }
  const double mean_ratio =
      ratio_sum / double(world.trace().sessions.size());
  EXPECT_NEAR(mean_ratio, 1.0, 0.12);
}

TEST(Agent, DoubleStartThrows) {
  sim::Simulator sim;
  sim::World world(sim, agent_network(23), agent_world_params(), Rng(4));
  Vehicle agent(world, agent_params());
  agent.start();
  EXPECT_THROW(agent.start(), PreconditionError);
}

TEST(Agent, TourPolicyBatchesRequests) {
  sim::Simulator sim;
  sim::World world(sim, agent_network(26), agent_world_params(), Rng(7));
  AgentParams params = agent_params();
  params.policy = SchedulePolicy::Tour;
  params.tour_batch = 3;
  params.tour_max_wait = 1'200.0;
  Vehicle agent(world, params);
  agent.start();
  sim.run_until(80'000.0);
  EXPECT_GT(agent.sessions_completed(), 5u);
  EXPECT_EQ(world.alive_count(), 20u);
  EXPECT_TRUE(world.trace().escalations.empty());
}

TEST(Agent, TourMaxWaitBoundsServiceDelay) {
  // Even when the batch never fills, the oldest request must start service
  // within tour_max_wait (+travel+queue of at most the active session).
  sim::Simulator sim;
  sim::World world(sim, agent_network(27), agent_world_params(), Rng(8));
  AgentParams params = agent_params();
  params.policy = SchedulePolicy::Tour;
  params.tour_batch = 50;  // impossible batch: only the age trigger fires
  params.tour_max_wait = 600.0;
  Vehicle agent(world, params);
  agent.start();
  sim.run_until(80'000.0);
  EXPECT_GT(agent.sessions_completed(), 3u);
  EXPECT_TRUE(world.trace().escalations.empty());
  // Match each request to its service start.
  for (const sim::RequestRecord& r : world.trace().requests) {
    Seconds started = -1.0;
    for (const sim::SessionRecord& s : world.trace().sessions) {
      if (s.node == r.node && s.start >= r.time) {
        started = s.start;
        break;
      }
    }
    if (started < 0.0) continue;  // request close to horizon
    // Envelope: the age trigger (600 s) plus a full in-flight tour of a
    // handful of ~20-minute sessions that may already be committed.
    EXPECT_LT(started - r.time, 600.0 + 7'200.0)
        << "node " << r.node << " waited too long under the age trigger";
  }
}

TEST(Agent, ValidationRejectsBadTourParams) {
  AgentParams params = agent_params();
  params.tour_batch = 0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = agent_params();
  params.tour_max_wait = -1.0;
  EXPECT_THROW(params.validate(), ConfigError);
}

TEST(Agent, PoliciesAllServeWithoutEscalation) {
  for (const SchedulePolicy policy :
       {SchedulePolicy::Njnp, SchedulePolicy::Edf, SchedulePolicy::Fcfs,
        SchedulePolicy::Tour}) {
    sim::Simulator sim;
    sim::World world(sim, agent_network(24), agent_world_params(), Rng(5));
    AgentParams params = agent_params();
    params.policy = policy;
    Vehicle agent(world, params);
    agent.start();
    sim.run_until(60'000.0);
    EXPECT_TRUE(world.trace().escalations.empty())
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(world.alive_count(), 20u);
  }
}

TEST(Agent, LedgerTracksTravelAndRadiation) {
  sim::Simulator sim;
  sim::World world(sim, agent_network(25), agent_world_params(), Rng(6));
  Vehicle agent(world, agent_params());
  agent.start();
  sim.run_until(60'000.0);
  ASSERT_GT(agent.sessions_completed(), 0u);
  EXPECT_GT(agent.charger().ledger().travel, 0.0);
  EXPECT_GT(agent.charger().ledger().radiated_genuine, 0.0);
  EXPECT_DOUBLE_EQ(agent.charger().ledger().radiated_spoofed, 0.0);
  // Radiated energy in the ledger equals the per-session records' sum.
  double recorded = 0.0;
  for (const sim::SessionRecord& s : world.trace().sessions) {
    recorded += s.radiated;
  }
  EXPECT_NEAR(agent.charger().ledger().radiated_genuine, recorded, 1e-6);
}

TEST(Agent, ValidationRejectsBadReserve) {
  AgentParams params = agent_params();
  params.battery_reserve_fraction = 1.0;
  EXPECT_THROW(params.validate(), ConfigError);
}

}  // namespace
}  // namespace wrsn::mc
