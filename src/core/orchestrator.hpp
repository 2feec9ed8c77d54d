// The CSA attack orchestrator: a compromised charging service.
//
// Outwardly it behaves exactly like the benign ChargerAgent — it answers
// charging requests, drives the same vehicle, radiates the same power, and
// keeps the same depot ledger.  Inwardly it runs receding-horizon TIDE
// planning: at every decision point it snapshots the pending requests plus
// the *predicted* upcoming requests of its key-node targets (the charging
// service can predict request times from drain rates and request history),
// plans a route with the injected Planner, and executes the first leg.  Key
// targets are "served" with the dual-antenna phase-cancellation payload:
// full radiated power, zero harvested energy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/planners.hpp"
#include "mc/charger.hpp"
#include "policy/policy.hpp"
#include "sim/world.hpp"
#include "wpt/spoofing.hpp"

namespace wrsn::csa {

/// How the attacker "serves" its key targets.
enum class SpoofMode {
  PhaseCancel,   ///< CSA: dual-antenna destructive interference (stealthy)
  PartialCancel, ///< CSA extension: leak a calibrated fraction of the
                 ///< expected energy, defeating single-session audits
  SilentSkip,    ///< naive: dock but radiate nothing (caught by RSSI checks)
  NoService,     ///< naive: ignore key requests entirely (caught by audits)
};

struct AttackParams {
  mc::ChargerParams charger;
  net::KeyNodeConfig key_selection;
  wpt::SpoofingParams spoofing;
  SpoofMode spoof_mode = SpoofMode::PhaseCancel;

  /// PartialCancel only: fraction of the node's EXPECTED session gain that
  /// is really delivered.  Must sit above the single-session audit
  /// threshold (~0.30) to evade it; the leak slows the kill accordingly.
  double partial_leak_ratio = 0.45;

  /// Safety margin shaved off every escalation deadline when building
  /// windows, so plan execution jitter cannot trip an escalation.
  Seconds window_margin = 120.0;

  /// Predicted key-node requests within this horizon enter the plan, letting
  /// the attacker pre-position for tight windows.
  Seconds lookahead = 14'400.0;

  /// End of the attack campaign [s].  Target selection is killability-aware:
  /// a candidate key node is only selected if its predicted request time
  /// plus the post-spoof exhaustion time fits inside the campaign.
  Seconds campaign_deadline = 4 * 86'400.0;

  /// Safety factor applied to the campaign deadline during selection.
  double campaign_slack = 0.95;

  /// Kill pacing (stealth vs the death-rate monitor): a spoof is deferred —
  /// the key node is served genuinely this round — whenever its predicted
  /// death would join >= `pace_limit` other kills inside a `pace_window`
  /// interval.  pace_limit = 0 disables pacing.
  /// One below the deployed death-rate threshold (5/24 h): margin for a
  /// surprise background failure landing inside the window.
  std::size_t pace_limit = 3;
  /// Slightly wider than the defender's 24 h monitoring window: margin for
  /// kill-time prediction error (drains rise as the network degrades,
  /// pulling deaths earlier than predicted at spoof time).
  Seconds pace_window = 100'000.0;

  /// Offset between a node's rectenna and its communication antenna [m];
  /// the spoof nulls the field at the rectenna, while the comm antenna
  /// (where RSSI is measured) still sees a strong carrier.
  Meters comm_antenna_offset = 0.08;

  /// Return to the depot to recharge below this battery fraction.
  double battery_reserve_fraction = 0.10;

  /// Nodes this vehicle services; empty = the whole network.  A compromised
  /// member of a charger fleet can only spoof targets inside its own cell.
  std::vector<net::NodeId> territory;

  void validate() const;
};

/// The attack agent; bind one to a world instead of a benign ChargerAgent.
class AttackAgent {
 public:
  /// `policy` selects the spoof-scheduling policy (DESIGN.md §15); the
  /// default Static kind reproduces the fixed pacing arithmetic bit-for-bit
  /// and consumes no randomness.  Bandit kinds draw from rng.fork("policy"),
  /// a stream no other consumer touches.
  AttackAgent(sim::World& world, const AttackParams& params,
              const Planner& planner, Rng rng,
              const policy::AttackPolicyParams& policy = {});

  AttackAgent(const AttackAgent&) = delete;
  AttackAgent& operator=(const AttackAgent&) = delete;

  /// Flushes the agent's accumulated tallies (replans, session counts) to
  /// the installed obs registry in one shot — the per-replan and
  /// per-session paths are too hot for a write each.
  ~AttackAgent();

  /// Selects key targets from the current routing state, subscribes to world
  /// events, and begins operating.  Call exactly once before running.
  void start();

  const std::vector<net::NodeId>& key_targets() const { return key_targets_; }
  const mc::MobileCharger& charger() const { return mc_; }
  std::uint64_t genuine_sessions() const { return genuine_sessions_; }
  std::uint64_t spoofed_sessions() const { return spoofed_sessions_; }
  std::uint64_t plans_computed() const { return plans_computed_; }

  // --- fault-injection hooks -------------------------------------------------
  /// MC component fault: halts on the spot, truncates any active session,
  /// drains `budget_loss` of the battery capacity, and stops planning until
  /// repaired.  `permanent` means no repair will follow.  Idempotent while
  /// already broken.
  void fault_breakdown(double budget_loss, bool permanent);
  /// Repair complete: resumes the campaign from the breakdown position.
  /// No-op when not broken or when the breakdown was permanent.
  void fault_repair();
  bool broken() const { return broken_; }
  /// Phase-calibration degradation: sets the spoofing emitter's phase
  /// jitter to `scale` times the configured baseline (1.0 restores it).
  /// Takes effect from the next spoofed session.
  void fault_phase_noise(double scale);

  /// Fleet handoff: permanently adds `nodes` to this vehicle's territory
  /// (e.g. the cell of a permanently lost fleet member) and replans if
  /// idle.  Adopted nodes are serviced GENUINELY — key-target selection
  /// happened at start() and is not widened, so the compromised member
  /// plays the dutiful survivor.  No-op on a whole-network agent.
  void adopt_territory(std::span<const net::NodeId> nodes);

 private:
  enum class State { Idle, Traveling, Charging, ToDepot, DepotCharging,
                     Broken };

  bool is_key(net::NodeId id) const {
    return key_set_.find(id) != key_set_.end();
  }
  bool in_territory(net::NodeId id) const {
    return territory_.empty() || territory_.count(id) > 0;
  }

  /// Deaths (scheduled kills + observed background deaths) in the worst
  /// pace_window interval a kill at `death_at` would join, that kill
  /// included — the pacing pressure the spoof policy decides against.
  std::size_t kill_window_count(Seconds death_at) const;
  /// Consults the spoof-scheduling policy: spoofed right now vs. served
  /// genuinely for cover, and the PartialCancel leak ratio to use.
  policy::SpoofDecision spoof_decision(net::NodeId id);

  void on_request(net::NodeId id);
  void on_death(net::NodeId id);

  /// Builds the TIDE snapshot (pending requests + predicted key windows)
  /// into `instance`, reusing its stop storage.
  void build_instance(TideInstance& instance) const;
  /// Installs the instance's travel matrix: the agent-owned matrix arena,
  /// rebound in place (rows fill on demand as the planner reads them).
  void prime_travel_matrix(TideInstance& instance) const;
  /// Replans and engages the next leg (idle vehicles only).
  void replan();
  void travel_to_node(net::NodeId id);
  void go_to_depot();
  void on_arrival(std::uint64_t version);
  void on_wake(std::uint64_t version);
  void start_session(net::NodeId id);
  void end_session(std::uint64_t version);

  sim::World& world_;
  AttackParams params_;
  const Planner& planner_;
  Rng rng_;
  mc::MobileCharger mc_;
  std::optional<wpt::SpoofingEmitter> emitter_;
  std::unique_ptr<policy::AttackPolicy> policy_;

  std::vector<net::NodeId> key_targets_;
  std::unordered_set<net::NodeId> key_set_;
  std::unordered_set<net::NodeId> territory_;
  /// Predicted death times of keys already spoofed plus observed deaths of
  /// other nodes (kill pacing state).
  std::vector<Seconds> kill_schedule_;
  /// Keys already spoof-killed (their deaths are pre-counted predictively).
  std::unordered_set<net::NodeId> spoof_killed_;
  /// Replan arenas: the instance snapshot, its travel matrix, and the plan
  /// are rebuilt in place every replan, so steady-state replanning (stop
  /// set previously seen) performs no heap allocation (sim_alloc_test).
  TideInstance plan_instance_;
  mutable std::shared_ptr<TravelMatrix> travel_matrix_;
  Plan plan_;

  State state_ = State::Idle;
  bool started_ = false;
  bool broken_ = false;
  bool permanently_broken_ = false;
  net::NodeId target_ = net::kInvalidNode;
  std::uint64_t event_version_ = 0;

  // Active-session bookkeeping.
  bool session_spoofed_ = false;
  Watts session_radiated_power_ = 0.0;
  Seconds session_start_ = 0.0;
  Seconds session_genuine_duration_ = 0.0;
  Watts session_dc_ = 0.0;
  Watts session_rf_observed_ = 0.0;
  Watts session_probe_rf_ = 0.0;
  Meters session_probe_distance_ = 0.0;

  std::uint64_t genuine_sessions_ = 0;
  std::uint64_t spoofed_sessions_ = 0;
  std::uint64_t plans_computed_ = 0;

  // Observability tallies, flushed by the destructor.  The session pair
  // counts completed sessions (the *_sessions_ counters above tick at
  // session start, so an in-flight session at the horizon would skew them).
  std::uint64_t sessions_ended_ = 0;
  std::uint64_t spoofed_sessions_ended_ = 0;
};

}  // namespace wrsn::csa
