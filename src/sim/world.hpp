// Live WRSN world state on top of the event kernel.
//
// Energy is accounted lazily: each node stores its battery level at the last
// synchronization point plus constant drain/charge rates; levels at `now` are
// linear extrapolations, and deaths/threshold crossings are scheduled as
// analytic events (no ticking).  A node death invalidates the routing tree;
// how the world reacts is governed by WorldParams::update_mode:
//
//   * Fast (default): the routing tree is PATCHED by a Dijkstra restricted
//     to the dead node's routing subtree, loads and drains are refilled by
//     one full pass into persistent buffers (zero allocations after
//     warmup), and only nodes whose drain rate actually changed are
//     resynced and rescheduled.  Nodes outside the dead node's routing
//     subtree and ancestor chain see bitwise identical drains, so their
//     pending events remain exact and untouched.  A death costs the
//     subtree's Dijkstra plus O(N) linear passes (finding the subtree,
//     merging the settle order, loads, drains and the drain diff), not a
//     full O(N log N) rebuild and a reschedule of every survivor.
//   * Reference: the seed behaviour, kept as the executable spec — full
//     Dijkstra rebuild into fresh vectors and resync+reschedule of every
//     alive node.  The world-equivalence test suite pins Fast to Reference
//     (identical traces and end metrics) across randomized scenarios.
//
// A node's five timers (death, request-arm, emergency, escalation, hardware
// failure) live in the world's NodeTimerQueue, not in the kernel heap: each
// is armed at most once, a re-arm re-keys it in place, and the queue holds
// one entry per node with an armed timer (its earliest).  Every arm draws
// its seq from the kernel's counter, so timers and kernel events fire in
// one (time, seq) order, and the order in which the world arms timers is
// part of every trace.  Invariant: a timer is armed iff the crossing it stands for is still due;
// a superseded crossing is re-keyed or disarmed, never left to fire, and a
// dead node has no armed timer.
//
// Charging-service protocol (the contract both the benign charger and the
// attacker operate under), and the believed-level mechanism the attack
// exploits:
//   * Nodes cannot meter harvested energy precisely (commodity SoC gauges
//     are noisy), so each node tracks a BELIEVED level: its true level plus
//     a surplus equal to the energy the charging service was expected to
//     deliver but did not.  Requests are armed on the believed level.
//   * A node issues a charging request when its believed level falls below
//     `request_threshold`; if the request stays unserved for `patience`
//     seconds the base station escalates (a service-failure record).
//   * When service starts the request is considered answered; when it ends
//     the node adds the EXPECTED gain to its believed level.  A spoof-charged
//     node therefore believes it is nearly full, schedules its next request
//     far in the future, and dies silently first — "exhausted in vain".
//   * Optional defense (`emergency_enabled`): a hardware low-voltage
//     comparator on the TRUE level fires an emergency request at
//     `emergency_fraction` regardless of beliefs.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "common/bitset.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/coverage.hpp"
#include "net/keynodes.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/mobility.hpp"
#include "sim/node_timers.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "wpt/charging_model.hpp"

namespace wrsn::sim {

/// How the world reacts to topology changes (deaths); see the header note.
enum class WorldUpdateMode {
  Fast,       ///< incremental repair + drain-diff rescheduling (default)
  Reference,  ///< full rebuild + reschedule-everyone: the executable spec
};

/// Tunable protocol and physics parameters of the world.
struct WorldParams {
  /// Believed battery fraction below which a node requests charging.
  double request_threshold = 0.30;

  /// Minimum gap between a service ending and the node's next request [s]
  /// (protocol rate limit).
  Seconds min_request_gap = 300.0;

  /// Seconds an unserved request may age before the base station escalates.
  /// Must be generous relative to session length (~25 min) or benign queueing
  /// alone trips escalations.
  Seconds patience = 7'200.0;

  /// Genuine sessions aim to fill the battery to this fraction.
  double charge_target_fraction = 0.95;

  /// Mean multiplicative efficiency of genuine sessions relative to the
  /// nominal docked harvest rate (partial service / misalignment is normal).
  double benign_gain_mean = 0.85;

  /// Coefficient of variation of the genuine-session efficiency.
  double benign_gain_cv = 0.20;

  /// Initial battery fractions are drawn uniform in this range, staggering
  /// the first wave of requests as in a steady-state deployment.
  double initial_level_min = 0.45;
  double initial_level_max = 1.0;

  /// Hardware low-voltage-interrupt defense: when enabled, a comparator on
  /// the TRUE battery level fires an emergency request at
  /// `emergency_fraction` no matter what the node believes.
  bool emergency_enabled = false;
  double emergency_fraction = 0.05;
  Seconds emergency_patience = 600.0;

  /// Mean time between background hardware failures per node [s];
  /// 0 disables them.  Real deployments lose nodes to component faults;
  /// the death-rate defense must be calibrated against this background,
  /// which is also the noise the attack hides its kills in.
  Seconds hardware_mtbf = 0.0;

  /// Death-reaction strategy; Fast and Reference produce identical traces
  /// (the world-equivalence suite asserts it).  Fast costs a subtree-sized
  /// Dijkstra plus O(N) linear passes per death and reschedules only the
  /// nodes whose drain changed.
  WorldUpdateMode update_mode = WorldUpdateMode::Fast;

  wpt::ChargingModelParams charging;
  net::RoutingParams routing;
  net::DrainParams drain;

  /// Waypoint mobility: fraction > 0 makes that share of nodes walk the
  /// deployment, with positions/adjacency/routing/drains refreshed on
  /// fixed-interval epochs (pure function of time, so Fast == Reference).
  MobilityParams mobility;

  /// k-coverage utility: k > 0 scales a node's charging utility by how
  /// many alive sensors cover its region (fewer coverers => more valuable).
  net::CoverageParams coverage;

  void validate() const;
};

/// Counters describing how the world has reacted to topology changes;
/// exposed for benchmarks and diagnostics (Fast mode repairs every death
/// and reschedules far fewer nodes than Reference's everyone-every-death).
struct WorldUpdateStats {
  std::uint64_t repairs = 0;    ///< subtree repairs (one per Fast death)
  std::uint64_t rebuilds = 0;   ///< full rebuilds (Reference mode only)
  std::uint64_t reschedules = 0;  ///< nodes resynced+rescheduled by updates
  std::uint64_t mobility_epochs = 0;  ///< batched position/routing refreshes
};

/// What the base-station uplink does with one escalation report
/// (fault-injection surface; see set_escalation_interceptor).
enum class EscalationAction : std::uint8_t {
  Deliver,  ///< report the escalation normally
  Drop,     ///< report lost: no trace record, no listener call, no retry
  Delay,    ///< report deferred by `delay` seconds (at most once per request)
};

struct EscalationDecision {
  EscalationAction action = EscalationAction::Deliver;
  Seconds delay = 0.0;
};

/// A pending charging request as seen by the charging service.
struct PendingRequest {
  net::NodeId node = net::kInvalidNode;
  Seconds requested_at = 0.0;
  /// Escalation fires at this absolute time if unserved.
  Seconds escalation_deadline = 0.0;
  bool emergency = false;
};

/// Mutable network world; all mutation flows through event callbacks and the
/// charger-facing service API.
class World {
 public:
  World(Simulator& sim, net::Network network, const WorldParams& params,
        Rng rng);

  World(const World&) = delete;
  World& operator=(const World&) = delete;
  /// Flushes the accumulated WorldUpdateStats (repairs, rebuilds, drain
  /// reschedules) to the installed obs registry in one shot.
  ~World();

  // --- static context -------------------------------------------------------
  const net::Network& network() const { return network_; }
  const wpt::ChargingModel& charging_model() const { return charging_model_; }
  const WorldParams& params() const { return params_; }
  Simulator& simulator() { return sim_; }

  // --- live state queries ---------------------------------------------------
  bool alive(net::NodeId id) const;
  std::size_t alive_count() const { return alive_count_; }
  /// Maintained per-node alive mask (indexed by NodeId), e.g. for feeding
  /// mc::partition_by_depot without N alive() calls.
  const Bitmap& alive_mask() const { return alive_mask_; }
  /// True battery level at the current simulation time [J].
  Joules level(net::NodeId id) const;
  double level_fraction(net::NodeId id) const;
  /// What the node believes its level is (true level + trusted-but-undelivered
  /// surplus), capped at capacity.
  Joules believed_level(net::NodeId id) const;
  Watts drain_rate(net::NodeId id) const;
  Watts charge_rate(net::NodeId id) const;
  /// Time the node dies if no further charge arrives; +inf if net-positive.
  Seconds predicted_death(net::NodeId id) const;
  /// Time the node will next issue a request (alive, non-pending nodes);
  /// +inf if it never will at current rates.
  Seconds predicted_request(net::NodeId id) const;
  bool has_pending_request(net::NodeId id) const;
  /// Alive nodes with an outstanding request, ascending node id.  Backed by
  /// a maintained index: O(pending), no scan, no allocation.
  const std::vector<net::NodeId>& pending_nodes() const {
    return pending_ids_;
  }
  /// The outstanding request of `id`; requires has_pending_request(id).
  PendingRequest pending_request(net::NodeId id) const;
  /// Materialized copy of the pending set (allocates; prefer pending_nodes()
  /// + pending_request() on hot paths).
  std::vector<PendingRequest> pending_requests() const;
  const net::RoutingTree& routing() const { return routing_; }
  const net::TrafficLoads& loads() const { return loads_; }
  /// Alive nodes currently connected to the sink.
  std::size_t sink_connected_count() const;
  const WorldUpdateStats& update_stats() const { return update_stats_; }

  /// Multiplier a planner applies to the node's charging utility under the
  /// k-coverage mode: 1 when disabled or the node has >= k alive coverers,
  /// ramping up to 1 + bonus for a completely uncovered node.  Identical
  /// in Fast and Reference (exact integer counts, same death order).
  double coverage_weight(net::NodeId id) const;

  // --- charging-service API (benign charger and attacker both use this) -----
  /// Nominal harvest rate of a docked genuine session [W].
  Watts nominal_dc_power() const;
  /// Session length a charger plans to restore `deficit` joules, using the
  /// fleet-calibrated mean session efficiency.
  Seconds planned_session_duration(Joules deficit) const;
  /// Energy a node expects from a session of `duration` — the calibrated
  /// expectation (unbiased for honest service), which is what the node
  /// credits its believed level with.
  Joules expected_session_gain(Seconds duration) const;
  /// Draws the per-session multiplicative efficiency of a genuine session.
  double draw_genuine_gain_factor();
  /// Sets the DC power currently flowing into a node's battery (0 stops).
  /// No-op (returns false) if the node is dead.
  bool set_charge_input(net::NodeId id, Watts dc);
  /// Marks the node's outstanding request as being answered (service began):
  /// disarms the escalation timer.
  void note_service_started(net::NodeId id);
  /// Marks service complete.  The node credits its believed level with
  /// `expected` (it trusts the service) while only `delivered` actually
  /// arrived; the believed-vs-true surplus grows by the difference.
  void note_service_ended(net::NodeId id, Joules expected, Joules delivered);

  // --- fault-injection API ---------------------------------------------------
  /// Bricks an alive node immediately (injected component fault): same
  /// death path as a background hardware failure.  Returns false (no-op)
  /// when the node is already dead.
  bool inject_hardware_failure(net::NodeId id);
  /// Sets an unmetered parasitic drain on a node [W] (aging cell, moisture
  /// leakage); 0 clears it.  The drain empties the TRUE battery but is
  /// invisible to the node's own SoC estimate — believed and true level
  /// drift apart, so the node dies earlier than it expects to request.
  /// Returns false (no-op) when the node is dead.
  bool set_self_discharge(net::NodeId id, Watts power);
  /// Unmetered parasitic drain currently injected on the node [W].
  Watts self_discharge(net::NodeId id) const;
  /// Installs the escalation-tampering interceptor consulted when an
  /// escalation is about to be reported (null restores normal delivery).
  /// A request's report can be delayed at most once; a dropped report is
  /// lost for good (the node never re-escalates the same request).
  void set_escalation_interceptor(
      std::function<EscalationDecision(net::NodeId)> interceptor);

  // --- event subscription ----------------------------------------------------
  /// Adds a charging-service request listener.  Multi-charger fleets
  /// register one listener per vehicle and filter by territory.
  void add_request_listener(std::function<void(net::NodeId)> listener);
  void add_death_listener(std::function<void(net::NodeId)> listener);
  void add_escalation_listener(std::function<void(net::NodeId)> listener);

  // --- trace -----------------------------------------------------------------
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

 private:
  /// Cold per-node bookkeeping: protocol flags and request deadlines.
  /// Touched only on request/service/death transitions; the hot
  /// death-cascade and drain-diff paths read the contiguous SoA lanes below
  /// instead (see DESIGN.md §12).
  struct NodeCold {
    bool pending = false;
    bool pending_emergency = false;
    /// The current request's escalation report has already been deferred
    /// once by the tampering interceptor (delay at most once per request).
    bool escalation_deferred = false;
    bool in_service = false;
    Seconds requested_at = 0.0;
    Seconds escalation_deadline = 0.0;
    Seconds cooldown_until = 0.0;  ///< min-request-gap guard
  };

  Watts net_drain(net::NodeId id) const {
    return drain_[id] + self_discharge_[id] - charge_[id];
  }
  /// Battery mutation on the SoA level lane, clamped: a discharge stops at
  /// empty and a charge stops at capacity.
  void battery_discharge(net::NodeId id, Joules amount) {
    level_[id] -= std::min(amount, level_[id]);
  }
  void battery_charge(net::NodeId id, Joules amount) {
    level_[id] += std::min(amount, capacity_[id] - level_[id]);
  }
  NodeCold& cold(net::NodeId id);
  const NodeCold& cold(net::NodeId id) const;

  /// Folds elapsed time into the battery and resets the sync point.
  void resync(net::NodeId id);
  /// Re-arms (or disarms) the death, request-arming and emergency timers
  /// from the node's current level and rates.
  void reschedule(net::NodeId id);
  /// The timer queue's handler: dispatches a due timer by kind.
  void fire_timer(net::NodeId id, NodeTimer kind);
  void fire_death(net::NodeId id);
  void fire_hardware_failure(net::NodeId id);
  /// One mobility epoch: interpolate every mobile node to `now`, rebuild
  /// the adjacency + coverage index in place, and push the new topology
  /// through the mode-dispatching routing/drain seam (Fast reschedules
  /// only bitwise-changed drains; Reference resyncs everyone).
  void fire_mobility_epoch();
  /// Shared hardware-death path (background failure and injected fault):
  /// bricks the battery, retires the node, records the death, and reacts.
  void kill_node_hardware(net::NodeId id);
  void fire_request(net::NodeId id);
  void fire_emergency(net::NodeId id);
  void fire_escalation(net::NodeId id);
  void issue_request(net::NodeId id, bool emergency);
  /// Marks the node dead in every live-state index and disarms its timers.
  void retire_node(net::NodeId id);
  /// Full routing/loads/drains rebuild (mode-dispatching); used at
  /// construction and by mobility epochs.
  void recompute_routing();
  /// Reacts to the death of `dead`: Fast repairs the routing subtree and
  /// reschedules only drain-changed nodes; Reference rebuilds everything.
  void on_topology_change(net::NodeId dead);
  /// Refills loads_/drains_ from routing_ into the persistent buffers.
  void refresh_loads_and_drains();
  /// Resyncs + reschedules exactly the alive nodes whose drain changed.
  void apply_drain_changes();
  /// The seed code path: fresh vectors, full Dijkstra, reschedule everyone.
  void recompute_routing_reference();
  void pending_insert(net::NodeId id);
  void pending_erase(net::NodeId id);

  Simulator& sim_;
  net::Network network_;
  WorldParams params_;
  wpt::ChargingModel charging_model_;
  Rng rng_;
  /// Every node's timers.
  NodeTimerQueue timers_;
  /// Keeps timers_ attached to the kernel for exactly the world's lifetime,
  /// also when construction throws part way.
  struct TimerAttachment {
    TimerAttachment(Simulator& sim, NodeTimerQueue& timers) : sim(sim) {
      sim.attach_timers(&timers);
    }
    TimerAttachment(const TimerAttachment&) = delete;
    TimerAttachment& operator=(const TimerAttachment&) = delete;
    ~TimerAttachment() { sim.attach_timers(nullptr); }
    Simulator& sim;
  };
  TimerAttachment timer_attachment_;
  // --- hot per-node SoA lanes (indexed by NodeId) ---------------------------
  // The death-cascade drain diff, lazy-energy extrapolation, and routing
  // repair scan these contiguous arrays; per-node protocol bookkeeping lives
  // in cold_.  A new per-node field goes into a lane only if a hot loop
  // scans it; see DESIGN.md §12 for the layout and determinism rules.
  std::vector<Joules> level_;     ///< true battery level at sync_time_
  std::vector<Joules> capacity_;  ///< battery capacity (constant)
  std::vector<Seconds> sync_time_;
  std::vector<Watts> drain_;
  std::vector<Watts> charge_;
  /// The node's own estimate of its level [J], tracked independently of
  /// the true battery: it drains at the measured consumption rate and is
  /// credited with the EXPECTED gain when a service ends (the node cannot
  /// meter the harvest itself).  Honest service keeps it near the truth;
  /// a spoofed session inflates it by the whole expected gain.
  std::vector<Joules> believed_;
  /// Injected unmetered parasitic drain [W] (fault API); drains the true
  /// battery but never the believed level.
  std::vector<Watts> self_discharge_;
  std::vector<NodeCold> cold_;
  std::size_t alive_count_ = 0;
  /// Persistent alive mask (word-packed), updated at each death — never
  /// rebuilt per call; the single source of truth for liveness.
  Bitmap alive_mask_;
  net::RoutingTree routing_;
  net::TrafficLoads loads_;
  /// Persistent drain-rate buffer (diffed against the drain_ lane).
  std::vector<Watts> drains_;
  net::RoutingScratch scratch_;
  /// Alive nodes with an outstanding request, sorted ascending by id.
  std::vector<net::NodeId> pending_ids_;
  MobilityModel mobility_;
  net::CoverageIndex coverage_;
  Meters coverage_radius_ = 0.0;
  WorldUpdateStats update_stats_;
  Trace trace_;
  // Observability tallies flushed by the destructor (the trace itself may
  // be moved out by the caller before the World dies, so counts are kept
  // separately; the per-event paths are too hot for a registry write each).
  std::uint64_t deaths_tally_ = 0;
  std::uint64_t requests_tally_ = 0;
  std::uint64_t escalations_tally_ = 0;
  std::function<EscalationDecision(net::NodeId)> escalation_interceptor_;
  std::vector<std::function<void(net::NodeId)>> request_listeners_;
  std::vector<std::function<void(net::NodeId)>> death_listeners_;
  std::vector<std::function<void(net::NodeId)>> escalation_listeners_;
};

}  // namespace wrsn::sim
