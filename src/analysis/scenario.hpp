// One-call experiment runner: builds a world, binds a benign or attacking
// charging service, simulates to the horizon, runs the detector suite, and
// returns the full assessment.  All benches and examples are thin wrappers
// over this.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/orchestrator.hpp"
#include "core/report.hpp"
#include "detect/detectors.hpp"
#include "fault/fault.hpp"
#include "mc/vehicle.hpp"
#include "net/topology.hpp"
#include "policy/policy.hpp"
#include "sim/world.hpp"

namespace wrsn::analysis {

/// Which charging service operates the vehicle.
enum class ChargerMode { Benign, Attack };

struct ScenarioConfig {
  net::TopologyConfig topology;
  sim::WorldParams world;
  csa::AttackParams attack;   ///< used in Attack mode
  mc::AgentParams benign;     ///< used in Benign mode
  Seconds horizon = 4 * 86'400.0;
  std::uint64_t seed = 1;
  /// Deploy the hardened detector suite (coulomb-counter defenses) instead
  /// of the standard one.
  bool hardened_detectors = false;
  /// Deterministic fault injection ([faults] INI section); all kinds
  /// disabled by default.  The schedule is compiled from rng.fork("faults"),
  /// so it is identical across world update modes and planner choices.
  fault::FaultParams faults;
  /// Fleet size ([fleet] INI section).  1 = the classic single-charger
  /// mission; > 1 = that many vehicles, one Voronoi cell each (run_mission).
  std::size_t fleet_size = 1;
  /// Fleet member running the CSA attack in Attack mode; SIZE_MAX (or any
  /// value >= fleet_size) = wholly honest fleet.
  std::size_t fleet_compromised = SIZE_MAX;
  /// Adaptive-policy plug-ins for both sides ([policy.*] INI section,
  /// DESIGN.md §15).  Defaults are the static policies, which reproduce
  /// pre-policy behavior bit-for-bit.
  policy::PolicyParams policy;
};

/// Everything a bench needs from one simulated mission.
struct ScenarioResult {
  csa::AttackReport report;
  std::vector<detect::SuiteResult> detections;
  std::vector<net::NodeId> keys;
  sim::Trace trace;
  std::size_t node_count = 0;
  std::size_t alive_at_end = 0;
  std::size_t sink_connected_at_end = 0;
  mc::EnergyLedger ledger;
  /// Field-wise sum over EVERY vehicle of the mission (equal to `ledger`
  /// for single-charger runs).  The trace interleaves all vehicles'
  /// sessions, so energy-conservation oracles must compare against this,
  /// not the single-vehicle `ledger`.
  mc::EnergyLedger fleet_ledger;
  std::uint64_t plans_computed = 0;
  /// Fault-injection tallies (all zero when faults are disabled).
  fault::FaultStats fault_stats;
  /// Kernel events executed over the whole mission — the fuzzer's liveness
  /// oracle bounds this to catch event-loop spins.
  std::uint64_t events_executed = 0;
  /// Min/max true battery fraction over nodes still alive at the horizon
  /// (0 when none survive) — the fuzzer's battery-bounds oracle.
  double min_final_level_fraction = 0.0;
  double max_final_level_fraction = 0.0;
};

/// Calibrated default configuration (see DESIGN.md for the derivation):
/// 100 nodes on 400 m x 400 m, 65 m radios, 10.8 kJ batteries, ~5 W docked
/// harvest, 3 m/s charger — request load ~45 % of charger capacity.
ScenarioConfig default_scenario();

/// The calibrated detector suite and its evaluation context for one
/// scenario: the single source of truth run_mission and the standalone
/// detector stages share.
struct DetectorSetup {
  detect::SuiteCalibration calibration;
  detect::DetectorSuite suite;
  detect::DetectorContext context;
};

/// Builds the deployment-calibrated suite (hardened or standard per
/// `config`) and the detector context for a world built from `config`.
DetectorSetup make_detector_setup(const ScenarioConfig& config,
                                  const sim::World& world);

/// Runs one mission — the only mission entry; every bench, example and
/// front end (fuzzer, CLI, mission service) funnels through it.
///
/// It builds a crew of `max(config.fleet_size, 1)` vehicles:
/// - a crew of 1 drives from the configured depot and serves the whole
///   network; its attacker draws from rng.fork("attack");
/// - a larger crew drives from mc::default_depots, each vehicle serving
///   its Voronoi cell; member k's attacker draws from rng.fork("attack-k").
/// In Attack mode member `min(config.fleet_compromised, crew - 1)` runs the
/// CSA strategy (route planner `planner`, CsaPlanner when null) — clamped,
/// so a stale `fleet.compromised` can never demote an attack mission to an
/// honest one; Benign crews are wholly honest.  MC faults hit the attacker,
/// else member 0.  When a fleet member is lost for good, its whole cell is
/// handed to the survivor with the nearest depot (squared distance, ties to
/// the lower index) node by node, and the survivors replan.  The result's
/// ledger, keys and plan count describe the attacker (member 0 when
/// honest); `fleet_ledger` sums every vehicle.
ScenarioResult run_mission(const ScenarioConfig& config, ChargerMode mode,
                           const csa::Planner* planner = nullptr);

}  // namespace wrsn::analysis
