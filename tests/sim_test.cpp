// Tests for the discrete-event kernel and the WRSN world: lazy energy
// accounting, the believed-level request protocol, escalations, deaths,
// routing recomputation, and hardware failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace wrsn::sim {
namespace {

using net::NodeId;

TEST(Simulator, OrdersEventsByTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilAdvancesClockAndStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(7.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
  sim.run_until(10.0);  // boundary inclusive
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CallbackCanRescheduleIntoItsOwnSlot) {
  // The kernel releases the firing event's slot before invoking its
  // callback, so a callback may schedule into the very slot it fired from.
  Simulator sim;
  int second_fired = 0;
  sim.schedule_at(1.0, [&] {
    sim.schedule_in(1.0, [&] { ++second_fired; });
    EXPECT_EQ(sim.slab_size(), 1u);  // the new event reused the slot
  });
  sim.run_all();
  EXPECT_EQ(second_fired, 1);
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(Simulator, ReserveDoesNotDisturbPendingEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.reserve(10'000);
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleFireChurnLeavesNoResidue) {
  Simulator sim;
  // Long-run pattern: schedule + fire, over and over, must reuse one slab
  // slot and leave nothing behind in pending().
  for (int round = 0; round < 1'000; ++round) {
    sim.schedule_in(1.0, [] {});
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_all();
    EXPECT_EQ(sim.pending(), 0u);
  }
  EXPECT_EQ(sim.executed(), 1'000u);
  EXPECT_EQ(sim.slab_size(), 1u);
}

TEST(Simulator, PendingCountsOnlyLiveEvents) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_until(2.0);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.executed(), 2u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, EventsScheduledDuringEventsRun) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(0.5, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run_until(2.0);
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.run_until(1.0), PreconditionError);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, EventCallback{}), PreconditionError);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventAndNodeTimerAtTheSameTimeFireInSeqOrder) {
  // A timer arm draws its seq from the same counter as schedule_at, so
  // same-time events and timers fire in the order they were scheduled and
  // armed, whichever comes first; a re-arm draws a fresh seq and moves the
  // timer behind what was scheduled in between.
  for (const bool timer_first : {true, false}) {
    Simulator sim;
    std::vector<int> order;  // event k -> k, timer of node n -> 100 + n
    NodeTimerQueue timers([&](std::uint32_t node, NodeTimer) {
      order.push_back(100 + int(node));
    });
    timers.reset(3);
    sim.attach_timers(&timers);
    const auto event = [&](int k) {
      sim.schedule_at(5.0, [&order, k] { order.push_back(k); });
    };
    if (timer_first) {
      sim.arm_timer(1, NodeTimer::Death, 5.0);
      event(0);
    } else {
      event(0);
      sim.arm_timer(1, NodeTimer::Death, 5.0);
    }
    sim.arm_timer(2, NodeTimer::Request, 5.0);
    event(1);
    sim.arm_timer(2, NodeTimer::Request, 5.0);  // re-armed: now behind 1
    EXPECT_EQ(sim.pending(), 4u);
    sim.run_until(5.0);
    const std::vector<int> expected =
        timer_first ? std::vector<int>{101, 0, 1, 102}
                    : std::vector<int>{0, 101, 1, 102};
    EXPECT_EQ(order, expected);
    // One executed() tick per fired event or timer, nothing else.
    EXPECT_EQ(sim.executed(), 4u);
    EXPECT_EQ(sim.pending(), 0u);
    sim.attach_timers(nullptr);
  }
}

TEST(Simulator, DisarmedNodeTimersNeverFire) {
  Simulator sim;
  std::vector<std::pair<std::uint32_t, NodeTimer>> fired;
  NodeTimerQueue timers([&](std::uint32_t node, NodeTimer kind) {
    fired.emplace_back(node, kind);
  });
  timers.reset(2);
  sim.attach_timers(&timers);
  const NodeTimer kinds[] = {NodeTimer::Death, NodeTimer::Request,
                             NodeTimer::Emergency, NodeTimer::Escalation,
                             NodeTimer::Hardware};
  for (const NodeTimer kind : kinds) {
    sim.arm_timer(0, kind, 1.0 + double(static_cast<int>(kind)));
    sim.arm_timer(1, kind, 1.0 + double(static_cast<int>(kind)));
  }
  EXPECT_EQ(sim.pending(), 10u);
  EXPECT_TRUE(sim.disarm_timer(0, NodeTimer::Request));
  EXPECT_FALSE(sim.disarm_timer(0, NodeTimer::Request));
  sim.disarm_timers(1);
  EXPECT_EQ(sim.pending(), 4u);
  sim.run_all();
  const std::vector<std::pair<std::uint32_t, NodeTimer>> expected = {
      {0, NodeTimer::Death},
      {0, NodeTimer::Emergency},
      {0, NodeTimer::Escalation},
      {0, NodeTimer::Hardware}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.executed(), 4u);
  sim.attach_timers(nullptr);
}

// --- world fixtures -------------------------------------------------------

/// Two-node line: node 0 adjacent to sink, node 1 behind it.
net::Network line2(Joules capacity = 1000.0) {
  std::vector<net::SensorSpec> nodes(2);
  nodes[0].id = 0;
  nodes[0].position = {10.0, 0.0};
  nodes[0].data_rate_bps = 1000.0;
  nodes[0].battery_capacity = capacity;
  nodes[1].id = 1;
  nodes[1].position = {20.0, 0.0};
  nodes[1].data_rate_bps = 1000.0;
  nodes[1].battery_capacity = capacity;
  return net::Network(std::move(nodes), {0.0, 0.0}, 12.0);
}

WorldParams small_params() {
  WorldParams params;
  params.request_threshold = 0.3;
  params.patience = 500.0;
  params.min_request_gap = 10.0;
  params.initial_level_min = 1.0;  // start full: deterministic timings
  params.initial_level_max = 1.0;
  params.benign_gain_cv = 0.0;     // deterministic sessions
  params.drain.sensing_power = 1.0;  // 1 W: fast, easy arithmetic
  params.drain.radio.e_elec = 1e-12;  // make radio negligible
  params.drain.radio.e_amp = 1e-15;
  return params;
}

TEST(World, InitialStateFullBatteriesAndRouting) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  EXPECT_EQ(world.alive_count(), 2u);
  EXPECT_NEAR(world.level(0), 1000.0, 1e-9);
  EXPECT_NEAR(world.believed_level(0), 1000.0, 1e-9);
  EXPECT_TRUE(world.routing().reachable[1]);
  EXPECT_EQ(world.routing().parent[1], 0u);
  EXPECT_EQ(world.sink_connected_count(), 2u);
}

TEST(World, LazyDrainMatchesAnalyticLevel) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  const Watts drain = world.drain_rate(1);
  sim.run_until(100.0);
  EXPECT_NEAR(world.level(1), 1000.0 - drain * 100.0, 1e-6);
}

TEST(World, RequestFiresAtBelievedThresholdCrossing) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  std::vector<std::pair<Seconds, NodeId>> requests;
  world.add_request_listener([&](NodeId id) {
    requests.emplace_back(sim.now(), id);
  });
  // drain ~1 W, threshold 300 J -> crossing at ~700 s.
  sim.run_until(650.0);
  EXPECT_TRUE(requests.empty());
  sim.run_until(710.0);
  ASSERT_GE(requests.size(), 1u);
  EXPECT_NEAR(requests[0].first, 700.0, 2.0);
  EXPECT_TRUE(world.has_pending_request(requests[0].second));
}

TEST(World, PredictedRequestMatchesActual) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  Seconds fired = -1.0;
  world.add_request_listener([&](NodeId id) {
    if (id == 0 && fired < 0.0) fired = sim.now();
  });
  const Seconds predicted = world.predicted_request(0);
  sim.run_until(predicted + 1.0);
  EXPECT_NEAR(fired, predicted, 1.0);
}

TEST(World, EscalationFiresAfterPatience) {
  Simulator sim;
  WorldParams params = small_params();
  params.patience = 200.0;  // escalate before the ~1000 s death
  World world(sim, line2(), params, Rng(1));
  std::vector<Seconds> escalations;
  world.add_escalation_listener(
      [&](NodeId) { escalations.push_back(sim.now()); });
  sim.run_until(950.0);  // request ~700 + patience 200
  ASSERT_GE(world.trace().escalations.size(), 1u);
  EXPECT_FALSE(escalations.empty());
  EXPECT_NEAR(escalations[0], 900.0, 3.0);
}

TEST(World, DeathCancelsPendingEscalation) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));  // patience 500
  std::vector<Seconds> escalations;
  world.add_escalation_listener(
      [&](NodeId) { escalations.push_back(sim.now()); });
  // Death at ~1000 s lands before the ~1200 s escalation deadline.
  sim.run_until(1400.0);
  EXPECT_TRUE(escalations.empty());
  EXPECT_EQ(world.alive_count(), 0u);
}

TEST(World, ServiceCancelsEscalationAndCreditsBelief) {
  Simulator sim;
  WorldParams params = small_params();
  World world(sim, line2(), params, Rng(1));
  bool escalated = false;
  world.add_escalation_listener([&](NodeId) { escalated = true; });
  NodeId requester = net::kInvalidNode;
  world.add_request_listener([&](NodeId id) {
    if (requester == net::kInvalidNode) requester = id;
  });
  sim.run_until(710.0);
  ASSERT_NE(requester, net::kInvalidNode);

  // Serve: start immediately, push 600 J over 100 s, claim 650 expected.
  world.note_service_started(requester);
  world.set_charge_input(requester, 6.0);
  sim.run_until(810.0);
  world.set_charge_input(requester, 0.0);
  world.note_service_ended(requester, 650.0, 600.0);

  sim.run_until(1300.0);  // past the would-be escalation deadline
  EXPECT_FALSE(escalated);
  EXPECT_FALSE(world.has_pending_request(requester));
  // Believed credit = expected 650 on top of ~(level at service end).
  EXPECT_GT(world.believed_level(requester), world.level(requester));
}

TEST(World, SpoofedServiceLeavesBelievedInflated) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  NodeId requester = net::kInvalidNode;
  world.add_request_listener([&](NodeId id) {
    if (requester == net::kInvalidNode) requester = id;
  });
  sim.run_until(710.0);
  ASSERT_NE(requester, net::kInvalidNode);

  // Spoof: no energy flows, but the node is told it got 650 J.
  world.note_service_started(requester);
  world.note_service_ended(requester, 650.0, 0.0);

  const Joules gap =
      world.believed_level(requester) - world.level(requester);
  EXPECT_NEAR(gap, 650.0, 1.0);
  // The node will not re-request until its believed level decays again.
  EXPECT_GT(world.predicted_request(requester), sim.now() + 500.0);
}

TEST(World, NodeDiesWhenBatteryEmpties) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  std::vector<NodeId> deaths;
  world.add_death_listener([&](NodeId id) { deaths.push_back(id); });
  sim.run_until(1100.0);  // 1000 J at ~1 W
  EXPECT_FALSE(deaths.empty());
  EXPECT_EQ(world.trace().deaths.size(), deaths.size());
  for (const NodeId id : deaths) {
    EXPECT_FALSE(world.alive(id));
    EXPECT_NEAR(world.level(id), 0.0, 1e-6);
  }
}

TEST(World, DeathRecordsOutstandingRequestFlag) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  sim.run_until(1100.0);
  // Nobody served the requests, so nodes died while begging.
  ASSERT_FALSE(world.trace().deaths.empty());
  EXPECT_TRUE(world.trace().deaths.front().request_outstanding);
}

TEST(World, DeathTriggersRoutingRecomputation) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  // Kill node 0 by draining it manually: set a huge charge on node 1 so
  // only node 0 dies first (both drain ~1 W; node 0 drains slightly more
  // as the relay).
  std::vector<NodeId> deaths;
  world.add_death_listener([&](NodeId id) { deaths.push_back(id); });
  sim.run_until(1100.0);
  ASSERT_FALSE(deaths.empty());
  if (deaths[0] == 0) {
    // Node 1 lost its relay: unreachable.
    EXPECT_FALSE(world.routing().reachable[1]);
  }
}

TEST(World, ChargingExtendsLifetime) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  // Trickle-charge node 1 at exactly its drain rate: it should never die.
  const Watts drain = world.drain_rate(1);
  world.set_charge_input(1, drain);
  sim.run_until(5000.0);
  EXPECT_TRUE(world.alive(1));
  EXPECT_FALSE(world.alive(0));  // the un-charged relay died long ago
}

TEST(World, SetChargeInputOnDeadNodeReturnsFalse) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  sim.run_until(1100.0);
  ASSERT_FALSE(world.alive(0));
  EXPECT_FALSE(world.set_charge_input(0, 5.0));
}

TEST(World, MinRequestGapRateLimitsReRequests) {
  Simulator sim;
  WorldParams params = small_params();
  params.min_request_gap = 200.0;
  World world(sim, line2(), params, Rng(1));
  // Serve node 1 with zero energy (spoof-like) each time it asks; it can
  // only re-ask after the gap.
  std::vector<Seconds> requests;
  world.add_request_listener([&](NodeId id) {
    if (id != 1) return;
    requests.push_back(sim.now());
    world.note_service_started(id);
    world.note_service_ended(id, 0.0, 0.0);  // nothing credited
  });
  sim.run_until(1000.0);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_GE(requests[i] - requests[i - 1], 200.0 - 1e-6);
  }
}

TEST(World, EmergencyDefenseFiresOnTrueLevel) {
  Simulator sim;
  WorldParams params = small_params();
  params.emergency_enabled = true;
  params.emergency_fraction = 0.10;
  World world(sim, line2(), params, Rng(1));
  NodeId requester = net::kInvalidNode;
  world.add_request_listener([&](NodeId id) {
    if (requester == net::kInvalidNode) requester = id;
    // Spoof every normal request so believed stays high.
    world.note_service_started(id);
    world.note_service_ended(id, 700.0, 0.0);
  });
  sim.run_until(950.0);  // true level hits 10 % at ~900 s
  bool emergency_seen = false;
  for (const RequestRecord& r : world.trace().requests) {
    if (r.emergency) emergency_seen = true;
  }
  EXPECT_TRUE(emergency_seen);
}

TEST(World, NoEmergencyWhenDisabled) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  world.add_request_listener([&](NodeId id) {
    world.note_service_started(id);
    world.note_service_ended(id, 700.0, 0.0);
  });
  sim.run_until(1100.0);
  for (const RequestRecord& r : world.trace().requests) {
    EXPECT_FALSE(r.emergency);
  }
}

TEST(World, HardwareFailuresKillWithoutDraining) {
  Simulator sim;
  WorldParams params = small_params();
  params.hardware_mtbf = 400.0;  // aggressive: both nodes die fast
  World world(sim, line2(), params, Rng(3));
  sim.run_until(3000.0);
  EXPECT_EQ(world.alive_count(), 0u);
  EXPECT_GE(world.trace().deaths.size(), 2u);
}

TEST(World, RetiredNodesTimersNeverFire) {
  // Node 0 is killed while its death, request, emergency and hardware
  // timers are armed; node 1 later while its death, emergency, escalation
  // and hardware timers are.  Neither may fire afterwards: no request,
  // escalation or second death record, and nothing left pending.
  Simulator sim;
  WorldParams params = small_params();
  params.emergency_enabled = true;
  params.hardware_mtbf = 1e9;  // armed on both nodes, due far past the end
  World world(sim, line2(), params, Rng(1));
  sim.run_until(100.0);
  ASSERT_TRUE(world.inject_hardware_failure(0));
  sim.run_until(750.0);  // node 1 requested at ~700 s
  ASSERT_TRUE(world.has_pending_request(1));
  ASSERT_TRUE(world.inject_hardware_failure(1));
  EXPECT_EQ(sim.pending(), 0u);
  const std::size_t requests = world.trace().requests.size();
  sim.run_all();
  EXPECT_EQ(world.trace().requests.size(), requests);
  EXPECT_TRUE(world.trace().escalations.empty());
  ASSERT_EQ(world.trace().deaths.size(), 2u);
  EXPECT_EQ(world.trace().deaths[0].node, 0u);
  EXPECT_EQ(world.trace().deaths[1].node, 1u);
  for (const RequestRecord& r : world.trace().requests) {
    EXPECT_EQ(r.node, 1u);
  }
}

TEST(World, ParamsValidation) {
  WorldParams params;
  params.request_threshold = 0.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.charge_target_fraction = 0.2;  // below threshold
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.emergency_fraction = 0.5;  // above request threshold
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.initial_level_min = 0.9;
  params.initial_level_max = 0.5;
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.hardware_mtbf = -1.0;
  EXPECT_THROW(params.validate(), ConfigError);
}

TEST(World, ParamsRejectNonFiniteValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<void (*)(WorldParams&, double)> setters = {
      [](WorldParams& p, double v) { p.request_threshold = v; },
      [](WorldParams& p, double v) { p.min_request_gap = v; },
      [](WorldParams& p, double v) { p.patience = v; },
      [](WorldParams& p, double v) { p.charge_target_fraction = v; },
      [](WorldParams& p, double v) { p.benign_gain_mean = v; },
      [](WorldParams& p, double v) { p.benign_gain_cv = v; },
      [](WorldParams& p, double v) { p.initial_level_min = v; },
      [](WorldParams& p, double v) { p.initial_level_max = v; },
      [](WorldParams& p, double v) { p.emergency_fraction = v; },
      [](WorldParams& p, double v) { p.emergency_patience = v; },
      [](WorldParams& p, double v) { p.hardware_mtbf = v; },
  };
  for (std::size_t k = 0; k < setters.size(); ++k) {
    for (const double bad : {inf, -inf, nan}) {
      WorldParams params;
      setters[k](params, bad);
      EXPECT_THROW(params.validate(), ConfigError) << "field " << k;
    }
  }
}

TEST(World, PlannedSessionHelpersAreConsistent) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  const Joules deficit = 480.0;
  const Seconds duration = world.planned_session_duration(deficit);
  EXPECT_NEAR(world.expected_session_gain(duration), deficit, 1e-9);
}

TEST(World, HardwareFailureRecomputesRoutingBeforeDeathListeners) {
  // Regression: a death listener plans against the post-death topology, so
  // routing AND drain rates must be updated before listeners run.  Sweep a
  // few seeds so both death orders (relay first, leaf first) are covered.
  bool relay_case_seen = false;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    Simulator sim;
    WorldParams params = small_params();
    params.hardware_mtbf = 400.0;
    World world(sim, line2(), params, Rng(seed));
    world.add_death_listener([&](NodeId id) {
      EXPECT_FALSE(world.alive(id));
      EXPECT_FALSE(world.routing().reachable[id]);
      if (id == 0 && world.alive(1)) {
        // Node 1 lost its relay: by listener time it must already be
        // unreachable and paying only the sensing floor.
        EXPECT_FALSE(world.routing().reachable[1]);
        EXPECT_EQ(world.drain_rate(1), params.drain.sensing_power);
        relay_case_seen = true;
      }
    });
    sim.run_until(3000.0);
    EXPECT_EQ(world.alive_count(), 0u);
  }
  EXPECT_TRUE(relay_case_seen);
}

TEST(World, PendingIndexTracksRequestsServiceAndDeaths) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  EXPECT_TRUE(world.pending_nodes().empty());
  sim.run_until(750.0);  // believed level crosses 30 % at ~700 s
  const std::vector<NodeId>& pending = world.pending_nodes();
  ASSERT_FALSE(pending.empty());
  EXPECT_TRUE(std::is_sorted(pending.begin(), pending.end()));
  EXPECT_EQ(pending.size(), world.pending_requests().size());
  for (const NodeId id : pending) {
    EXPECT_TRUE(world.alive(id));
    EXPECT_TRUE(world.has_pending_request(id));
    EXPECT_EQ(world.pending_request(id).node, id);
  }
  // Service removes a node from the index immediately.
  const NodeId served = pending.front();
  world.note_service_started(served);
  EXPECT_FALSE(world.has_pending_request(served));
  for (const NodeId id : world.pending_nodes()) EXPECT_NE(id, served);
  world.note_service_ended(served, 0.0, 0.0);
  // Deaths evict any outstanding entries.
  sim.run_until(1500.0);
  EXPECT_EQ(world.alive_count(), 0u);
  EXPECT_TRUE(world.pending_nodes().empty());
}

TEST(World, GainFactorStatistics) {
  Simulator sim;
  WorldParams params = small_params();
  params.benign_gain_mean = 0.85;
  params.benign_gain_cv = 0.2;
  World world(sim, line2(), params, Rng(9));
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double f = world.draw_genuine_gain_factor();
    EXPECT_GE(f, 0.4);
    EXPECT_LE(f, 1.6);
    sum += f;
  }
  EXPECT_NEAR(sum / n, 0.85, 0.02);  // clamped draw stays unbiased
}

// --- waypoint mobility ----------------------------------------------------

/// Small random cloud with every node sink-connected, roomy batteries so no
/// one dies during short mobility horizons.
net::Network cloud(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::SensorSpec> nodes(count);
  for (net::NodeId i = 0; i < count; ++i) {
    nodes[i].id = i;
    nodes[i].position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    nodes[i].data_rate_bps = 500.0;
    nodes[i].battery_capacity = 1e7;
  }
  return net::Network(std::move(nodes), {50.0, 50.0}, 160.0);
}

TEST(Mobility, ParamsValidation) {
  MobilityParams p;
  EXPECT_NO_THROW(p.validate());  // disabled by default
  p.fraction = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = MobilityParams{};
  p.fraction = 0.5;
  p.interval = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = MobilityParams{};
  p.fraction = 0.5;
  p.speed_max = 0.1;  // below speed_min default
  EXPECT_THROW(p.validate(), ConfigError);
  p = MobilityParams{};
  p.fraction = 0.5;
  p.pause_max = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Mobility, WalksStayInsideInitialHull) {
  const net::Network base = cloud(30, 9);
  MobilityParams p;
  p.fraction = 1.0;
  p.speed_max = 3.0;
  net::Network net = cloud(30, 9);
  MobilityModel model(p, net, Rng(4).fork("mobility"));
  ASSERT_TRUE(model.enabled());
  EXPECT_EQ(model.mobile_count(), 30u);

  geom::Vec2 lo = base.node(0).position, hi = lo;
  for (const auto& spec : base.nodes()) {
    lo.x = std::min(lo.x, spec.position.x);
    lo.y = std::min(lo.y, spec.position.y);
    hi.x = std::max(hi.x, spec.position.x);
    hi.y = std::max(hi.y, spec.position.y);
  }
  for (const Seconds t : {600.0, 1'200.0, 7'200.0, 86'400.0}) {
    model.advance_to(t, net);
    for (const auto& spec : net.nodes()) {
      EXPECT_GE(spec.position.x, lo.x - 1e-9);
      EXPECT_LE(spec.position.x, hi.x + 1e-9);
      EXPECT_GE(spec.position.y, lo.y - 1e-9);
      EXPECT_LE(spec.position.y, hi.y + 1e-9);
    }
  }
}

TEST(Mobility, AdvanceIsAPureFunctionOfTime) {
  // Two models with the same rng must land every node on identical
  // positions for the same epoch time — this is what makes Fast and
  // Reference worlds see the same geometry.
  MobilityParams p;
  p.fraction = 0.6;
  net::Network a = cloud(25, 13);
  net::Network b = cloud(25, 13);
  MobilityModel ma(p, a, Rng(21).fork("mobility"));
  MobilityModel mb(p, b, Rng(21).fork("mobility"));
  EXPECT_EQ(ma.mobile_count(), mb.mobile_count());
  for (const Seconds t : {900.0, 1'800.0, 10'000.0}) {
    ma.advance_to(t, a);
    mb.advance_to(t, b);
    for (net::NodeId i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.node(i).position, b.node(i).position) << "node " << i;
    }
  }
}

TEST(World, MobilityEpochsAdvanceTopologyVersion) {
  Simulator sim;
  WorldParams params = small_params();
  params.drain.sensing_power = 1e-4;  // nobody dies in this horizon
  params.mobility.fraction = 0.5;
  params.mobility.interval = 600.0;
  const net::Network initial = cloud(20, 5);
  World world(sim, initial, params, Rng(3));
  EXPECT_EQ(world.update_stats().mobility_epochs, 0u);
  sim.run_until(3'000.0);
  EXPECT_EQ(world.update_stats().mobility_epochs, 5u);
  // The epochs really moved the walking half of the deployment.
  std::size_t moved = 0;
  for (net::NodeId i = 0; i < initial.size(); ++i) {
    if (world.network().node(i).position != initial.node(i).position) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(World, MobilityEpochChainStopsWhenAllDead) {
  // run_all() must terminate: the epoch chain ends once nobody is alive.
  Simulator sim;
  WorldParams params = small_params();
  params.drain.sensing_power = 5.0;  // tiny batteries drain in ~200 s
  params.mobility.fraction = 1.0;
  params.mobility.interval = 50.0;
  net::Network net = line2();
  World world(sim, std::move(net), params, Rng(6));
  sim.run_all();
  EXPECT_EQ(world.alive_count(), 0u);
}

TEST(World, CoverageWeightBoostsUncoveredNodes) {
  Simulator sim;
  WorldParams params = small_params();
  params.coverage.k = 3;
  params.coverage.bonus = 2.0;
  World world(sim, line2(), params, Rng(1));
  // Node 0 and 1 cover each other only: 1 coverer < k = 3 for both.
  const double w = world.coverage_weight(0);
  EXPECT_NEAR(w, 1.0 + 2.0 * (3.0 - 1.0) / 3.0, 1e-12);
  // With coverage disabled, the weight is identically 1.
  Simulator sim2;
  World plain(sim2, line2(), small_params(), Rng(1));
  EXPECT_DOUBLE_EQ(plain.coverage_weight(0), 1.0);
}

}  // namespace
}  // namespace wrsn::sim
