// The mobile-charging vehicle every charging service drives, honest or
// compromised.
//
// One state machine owns the vehicle: travel, depot recharge, the session
// protocol (SessionRecord, depot ledger, trace), death aborts, breakdowns
// and fleet handoffs.  What differs between services is a small Strategy:
// where an idle vehicle goes next, and how it serves a node once docked.
// The honest dispatch policies (NJNP/EDF/FCFS/Tour) are one strategy and
// the CSA attacker (core/orchestrator.hpp) is the other, so the attacker
// looks like the honest charger from outside by construction: the same
// vehicle, session protocol, radiated power and ledger.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mc/charger.hpp"
#include "sim/world.hpp"

namespace wrsn::mc {

/// Request-service ordering policy of the honest dispatch strategy.
enum class SchedulePolicy {
  Njnp,  ///< nearest-job-next (with optional travel preemption)
  Edf,   ///< earliest escalation deadline first
  Fcfs,  ///< first-come first-served
  Tour,  ///< periodic TSP tour: batch requests, serve along a 2-opt tour
};

struct AgentParams {
  ChargerParams charger;
  SchedulePolicy policy = SchedulePolicy::Njnp;
  /// NJNP travel preemption: retarget mid-travel when a closer request lands.
  bool preempt_travel = true;
  /// Return to the depot to recharge below this battery fraction.
  double battery_reserve_fraction = 0.15;
  /// Nodes this vehicle is responsible for; empty = the whole network.
  /// Multi-charger fleets partition the field (see mc/fleet.hpp).
  std::vector<net::NodeId> territory;

  /// Tour policy: start a tour once this many requests are pending...
  std::size_t tour_batch = 4;
  /// ...or when the oldest pending request reaches this age [s].
  Seconds tour_max_wait = 1'800.0;

  void validate() const;
};

/// How one docked session runs, decided by the strategy when it starts.
struct Session {
  Seconds duration = 0.0;
  Watts dc = 0.0;              ///< harvested at the node
  Watts radiated_power = 0.0;  ///< source power the vehicle radiates
  Watts rf_observed = 0.0;     ///< RF at the node's communication antenna
  bool spoofed = false;
  /// RF at, and distance to, the probing neighbour as read at session
  /// start.  Unset: the honest probe is read when the session ends.
  std::optional<std::pair<Watts, Meters>> probe;
};

class Vehicle;

/// The service-specific half of a vehicle.
class Strategy {
 public:
  Strategy() = default;
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;
  virtual ~Strategy() = default;
  /// Once, from Vehicle::start, before the vehicle subscribes to the world.
  virtual void on_start(Vehicle&) {}
  /// Engages the next leg of an idle vehicle above its battery reserve
  /// (Vehicle::travel_to_node or Vehicle::wake_at), or leaves it idle
  /// until the next request.
  virtual void plan(Vehicle& vehicle) = 0;
  /// An in-territory request for `id` landed while the vehicle travels:
  /// true abandons the current leg and drives to `id` instead.
  virtual bool retarget(const Vehicle&, net::NodeId) const { return false; }
  /// Every death in the world, before the vehicle aborts a leg or session
  /// on it.
  virtual void observe_death(net::NodeId) {}
  /// True: a node is only served if its request is still pending when the
  /// vehicle arrives (a live node always is otherwise).
  virtual bool needs_pending_request() const { return false; }
  /// Sets up a session at `id`, whose believed deficit is positive.
  virtual Session begin_session(Vehicle& vehicle, net::NodeId id,
                                Joules deficit) = 0;
};

/// A charging vehicle bound to a world.
class Vehicle {
 public:
  /// A vehicle driven by `strategy`, serving `territory` (empty = the
  /// whole network) and recharging below `battery_reserve_fraction`.
  Vehicle(sim::World& world, const ChargerParams& charger,
          double battery_reserve_fraction,
          std::span<const net::NodeId> territory,
          std::unique_ptr<Strategy> strategy);
  /// An honest vehicle dispatching under `params.policy`.
  Vehicle(sim::World& world, const AgentParams& params);

  Vehicle(const Vehicle&) = delete;
  Vehicle& operator=(const Vehicle&) = delete;

  /// Flushes the completed-session tallies to the installed obs registry in
  /// one shot (the per-session path is hot under fleet scenarios).
  ~Vehicle();

  /// Subscribes to world events and begins serving.  Call exactly once,
  /// before the simulation runs.
  void start();

  const MobileCharger& charger() const { return mc_; }
  std::uint64_t sessions_completed() const { return sessions_ended_; }

  // --- fault-injection hooks -------------------------------------------------
  /// MC component fault: halts on the spot, truncates any active session,
  /// drains `budget_loss` of the battery capacity, and stops planning until
  /// repaired.  `permanent` means no repair will follow.  Idempotent while
  /// already broken.
  void fault_breakdown(double budget_loss, bool permanent);
  /// Repair complete: resumes planning from the breakdown position.
  /// No-op when not broken or when the breakdown was permanent.
  void fault_repair();
  bool broken() const { return broken_; }

  /// Fleet handoff: permanently adds `nodes` to this vehicle's territory
  /// (e.g. the cell of a permanently lost fleet member) and plans if the
  /// vehicle is idle.  No-op on a whole-network vehicle (empty territory
  /// already covers everything).
  void adopt_territory(std::span<const net::NodeId> nodes);

  // --- strategy-facing -------------------------------------------------------
  sim::World& world() const { return world_; }
  bool in_territory(net::NodeId id) const {
    return territory_.empty() || territory_.count(id) > 0;
  }
  /// Node of the current leg or session (kInvalidNode otherwise).
  net::NodeId target() const { return target_; }
  geom::Vec2 position() const {
    return mc_.position(world_.simulator().now());
  }
  /// Drives to dock next to `id`; the session starts on arrival.
  void travel_to_node(net::NodeId id);
  /// Plans again at `at` if the vehicle is still idle and nothing else was
  /// scheduled for it in between.
  void wake_at(Seconds at);
  /// Plans now if the vehicle is started and idle.
  void replan_if_idle();
  /// Nearest alive neighbour of `node` and its distance (kInvalidNode and
  /// +inf when there is none).
  std::pair<net::NodeId, Meters> nearest_alive_neighbor(
      net::NodeId node) const;
  /// RF and distance the nearest alive neighbour of `node` measures from
  /// one honest source docked there (0 W at +inf with no neighbour).
  std::pair<Watts, Meters> honest_probe(net::NodeId node) const;
  /// An honest session delivering `deficit`: draws the session's harvest
  /// gain and stays docked until the deficit is metered out.
  Session genuine_session(Joules deficit);

 private:
  enum class State { Idle, Traveling, Charging, ToDepot, DepotCharging,
                     Broken };

  void on_request(net::NodeId id);
  void on_death(net::NodeId id);
  /// Engages the next action from an idle vehicle.
  void plan_next();
  void go_to_depot();
  void on_arrival(std::uint64_t version);
  void start_session(net::NodeId id);
  void end_session(std::uint64_t version);

  sim::World& world_;
  double battery_reserve_fraction_;
  std::unordered_set<net::NodeId> territory_;
  MobileCharger mc_;
  std::unique_ptr<Strategy> strategy_;
  State state_ = State::Idle;
  bool started_ = false;
  bool broken_ = false;
  bool permanently_broken_ = false;

  net::NodeId target_ = net::kInvalidNode;
  std::uint64_t event_version_ = 0;  ///< invalidates stale scheduled events

  Session session_;
  Seconds session_start_ = 0.0;

  std::uint64_t sessions_ended_ = 0;
  std::uint64_t spoofed_sessions_ended_ = 0;
};

}  // namespace wrsn::mc
