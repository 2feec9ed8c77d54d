// Scenario fuzzer: randomized short missions checked by three oracles.
//
//   1. Differential — the production configuration (WorldUpdateMode::Fast +
//      CsaPlanner) must match the executable specification
//      (WorldUpdateMode::Reference + NaiveCsaPlanner) on the full trace,
//      detector verdicts, and fault tallies, within the world-equivalence
//      tolerances.
//   2. Invariants — energy conservation (delivered <= radiated, trace
//      radiation reconciles with the depot ledger), batteries inside
//      [0, capacity], traces in nondecreasing event order, no activity on
//      dead nodes, sessions per node non-overlapping.
//   3. Liveness — the event kernel executes a bounded number of events, and
//      (when escalation faults cannot drop reports) every sufficiently old
//      request is answered by a session, an escalation, or a death: a
//      permanently broken charger must not starve the protocol.
//
// Each trial is a ScenarioConfig override set (the same `key = value` pairs
// the INI loader accepts, plus the pseudo-key `mode`), so a failing trial is
// reproducible from one printed line: `wrsn_cli --repro '<line>'` or
// `scenario_fuzzer --repro '<line>'` reruns exactly that mission.  Overrides
// are generated as *strings* and parsed by the same config path in both the
// campaign and the replay, so repro lines are exact by construction.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/planners.hpp"

namespace wrsn::analysis {

/// One trial's scenario description: INI override pairs plus the pseudo-key
/// "mode" ("attack" | "benign").  Everything else goes through apply_config.
using FuzzOverrides = std::map<std::string, std::string>;

/// Outcome of one fuzz trial.
struct FuzzVerdict {
  /// Human-readable oracle violations; empty means all oracles passed.
  std::vector<std::string> failures;
  /// FNV-1a fold of the production run's trace, detector verdicts, and
  /// fault tallies.  Bit-identical across thread counts (the runner's
  /// guarantee), so campaign digests pin cross-thread determinism.
  std::uint64_t digest = 0;

  bool ok() const { return failures.empty(); }
};

/// Aggregate outcome of a fuzz campaign.
struct FuzzReport {
  std::size_t trials = 0;
  std::size_t failed_trials = 0;
  /// One repro line per failing trial, submission order, capped at the
  /// campaign's max_failures.
  std::vector<std::string> repro_lines;
  /// First oracle violation of the matching repro line (same indexing).
  std::vector<std::string> first_failures;
  /// Submission-order fold of every trial digest.
  std::uint64_t digest = 0;

  bool ok() const { return failed_trials == 0; }
};

/// Deliberately broken planner for the fuzzer's self-test: delegates to
/// CsaPlanner, then swaps the first two visits of the plan.  The differential
/// oracle must catch the resulting trace divergence — a campaign run with
/// `inject_divergence` that reports zero failures means the oracles are dead.
class BuggyPlanner final : public csa::Planner {
 public:
  std::string_view name() const override { return "CSA-buggy-selftest"; }
  csa::Plan plan(const csa::TideInstance& instance, Rng& rng) const override;

 private:
  csa::CsaPlanner inner_;
};

/// Draws one randomized trial description: 16-49 nodes at calibrated
/// density, 0.25-1 day horizon, attack or benign service, and a sampled
/// fault mix (MC breakdowns incl. permanent, node bursts, phase noise,
/// escalation tampering, battery drift).  Pure function of `rng`.
FuzzOverrides generate_fuzz_overrides(Rng& rng);

/// Runs one trial through all three oracles.  `inject_divergence` swaps the
/// production planner for BuggyPlanner (attack mode only) to prove the
/// differential oracle bites.
FuzzVerdict run_fuzz_trial(const FuzzOverrides& overrides,
                           bool inject_divergence = false);

/// FNV-1a fold of a mission result: the full trace (requests, sessions,
/// deaths, escalations), detector verdicts, key-target set, fault tallies,
/// and the liveness counters.  This is THE result digest of the repo — the
/// fuzzer's campaign digests, the mission service's response digests, and
/// the service-vs-direct differential all use it, so a service response is
/// bit-identical to a standalone run iff the digests match.
std::uint64_t digest_result(const ScenarioResult& result);

/// Splits a fuzz override set into the mission config and mode, exactly as
/// run_fuzz_trial does: the pseudo-key "mode" (default attack) selects the
/// service, everything else goes through apply_config over `base`.  Throws
/// ConfigError on unknown keys or a bad mode.  Run the result with
/// run_mission for the standalone-equivalent mission.
std::pair<ScenarioConfig, ChargerMode> resolve_overrides(
    const ScenarioConfig& base, const FuzzOverrides& overrides);

/// As above, over default_scenario().
std::pair<ScenarioConfig, ChargerMode> resolve_overrides(
    const FuzzOverrides& overrides);

/// Serializes overrides as a `k=v;k=v` repro line (sorted keys).
std::string format_repro(const FuzzOverrides& overrides);

/// Parses a repro line back into overrides.  Throws ConfigError on
/// malformed input.
FuzzOverrides parse_repro(const std::string& line);

/// Runs `trials` generated trials through the deterministic parallel runner
/// (`threads` = 0 picks WRSN_THREADS / hardware concurrency).  Trial
/// generation is sequential from `seed`, so the campaign — including its
/// digest — is bit-identical at any thread count.
FuzzReport run_fuzz_campaign(std::size_t trials, std::uint64_t seed,
                             std::size_t threads = 0,
                             bool inject_divergence = false,
                             std::size_t max_failures = 16);

}  // namespace wrsn::analysis
