// The deployable-defense catalogue.
//
// Node-side physical checks:
//   RssiPresenceDetector   — "is a carrier present while I'm being charged?"
//   NeighborVotingDetector — "do my neighbours also see the charger's field?"
// Base-station service audits:
//   ServiceAuditDetector   — escalations, deaths-while-begging, repeated
//                            emergency requests
//   DeathRateDetector      — too many deaths inside a sliding window
// Metered-node defenses (require coulomb-counter hardware):
//   EnergyDeltaDetector    — single-session delivered-vs-expected test
//   CusumShortfallDetector — sequential per-node shortfall accumulation
//   FleetCusumDetector     — sequential fleet-wide shortfall accumulation
//
// One class per defence.  The `policy::DefenderPolicyParams` a detector is
// given decide whether its threshold is fixed (Static, the default) or
// re-tuned per trace window (Adaptive, DESIGN.md §15) for the death-rate,
// service-audit and energy-delta knobs.  An adaptive detector walks the
// trace chronologically, closes a tuning window every `policy.window`
// seconds and recalibrates from everything observed BEFORE the current
// window (the statistic under test never tunes its own threshold); its
// threshold is floored at the static one, its name gains an "-adaptive"
// suffix and its reasons say "adaptively re-tuned".  It is plain
// deterministic arithmetic over the trace and consumes no randomness.
#pragma once

#include "detect/detector.hpp"
#include "detect/metered.hpp"
#include "policy/policy.hpp"

namespace wrsn::detect {

/// Node-side RSSI check during sessions: fires when the observed carrier
/// power falls below `rssi_fraction` of the nominal docked RF.  CSA leaves a
/// strong carrier at the communication antenna, so this is evaded by design;
/// it catches chargers that merely pretend (no radiation).
class RssiPresenceDetector final : public Detector {
 public:
  explicit RssiPresenceDetector(double rssi_fraction = 0.05)
      : rssi_fraction_(rssi_fraction) {}
  std::string_view name() const override { return "rssi-presence"; }
  std::optional<Detection> analyze(const sim::Trace& trace,
                                   const DetectorContext& ctx) const override;

 private:
  double rssi_fraction_;
};

/// Neighbourhood cross-check: a neighbour within `probe_range` of a charging
/// session probes the RF field and votes "anomalous" when it measures less
/// than `expected_fraction` of the field the benign model predicts at its
/// distance; `votes_to_fire` anomalies trigger detection.  Vacuous in sparse
/// deployments (no neighbour inside RF range) — quantified by the fig6 bench.
class NeighborVotingDetector final : public Detector {
 public:
  NeighborVotingDetector(Meters probe_range = 8.0,
                         double expected_fraction = 0.25,
                         std::size_t votes_to_fire = 2)
      : probe_range_(probe_range),
        expected_fraction_(expected_fraction),
        votes_to_fire_(votes_to_fire) {}
  std::string_view name() const override { return "neighbor-voting"; }
  std::optional<Detection> analyze(const sim::Trace& trace,
                                   const DetectorContext& ctx) const override;

 private:
  Meters probe_range_;
  double expected_fraction_;
  std::size_t votes_to_fire_;
};

/// Base-station service audit: fires when escalations (requests unserved
/// past patience) exceed a budget calibrated on honest-but-queued service
/// (benign runs produce a handful from queueing tails), on any node that
/// dies with a request outstanding (honest service never lets that happen),
/// or on `emergency_limit` emergency requests from one node.  Under an
/// Adaptive defender the escalation budget becomes a time-scaled cumulative
/// bound re-tuned per window (expected escalations so far + q sigma + 1,
/// floored at the static budget); the died-waiting and emergency rules are
/// event-quality signals and stay static either way.
class ServiceAuditDetector final : public Detector {
 public:
  explicit ServiceAuditDetector(std::size_t escalation_limit = 8,
                                std::size_t emergency_limit = 3,
                                std::size_t died_waiting_limit = 2,
                                const policy::DefenderPolicyParams& policy = {})
      : escalation_limit_(escalation_limit),
        emergency_limit_(emergency_limit),
        died_waiting_limit_(died_waiting_limit),
        policy_(policy) {}
  std::string_view name() const override {
    return policy_.adaptive() ? "service-audit-adaptive" : "service-audit";
  }
  std::optional<Detection> analyze(const sim::Trace& trace,
                                   const DetectorContext& ctx) const override;

 private:
  std::size_t escalation_limit_;
  std::size_t emergency_limit_;
  std::size_t died_waiting_limit_;
  policy::DefenderPolicyParams policy_;
};

/// Death-rate anomaly: fires when `death_threshold` nodes die within any
/// `window` seconds.  The threshold must be calibrated against the benign
/// death rate (an honest but overloaded charger also loses nodes).  Under
/// an Adaptive defender it is re-derived per tuning window from the
/// observed background death rate, shrunk toward the context's deployment
/// prior, with the same mean + q sqrt(mean) + 1 rule the calibration uses;
/// it never drops below `death_threshold`, so the adaptive detector fires
/// only where the static one fired first.
class DeathRateDetector final : public Detector {
 public:
  DeathRateDetector(std::size_t death_threshold = 5,
                    Seconds window = 86'400.0,
                    const policy::DefenderPolicyParams& policy = {})
      : death_threshold_(death_threshold), window_(window), policy_(policy) {}
  std::string_view name() const override {
    return policy_.adaptive() ? "death-rate-adaptive" : "death-rate";
  }
  std::optional<Detection> analyze(const sim::Trace& trace,
                                   const DetectorContext& ctx) const override;

 private:
  std::size_t death_threshold_;
  Seconds window_;
  policy::DefenderPolicyParams policy_;
};

/// Coulomb-counter single-session audit (hardware defense): nodes measuring
/// harvested energy compare it with the fleet-calibrated expectation
/// (measured/expected averages 1.0 on honest sessions); fires when
/// measured/expected < `ratio_threshold` on a session with expected gain of
/// at least `min_expected`.  The default threshold sits ~3.5 sigma below
/// the benign ratio distribution, for a per-session false-positive rate of
/// ~2e-4.  Under an Adaptive defender the threshold is re-derived from the
/// MEDIAN audited ratio of completed windows (median, not mean, so a
/// minority of spoofed sessions cannot drag the estimate down), raised
/// toward median - q cv median, never below `ratio_threshold` nor above
/// 0.9: sharper against partial-cancel leaks.
class EnergyDeltaDetector final : public Detector {
 public:
  EnergyDeltaDetector(const MeterPlacement& placement = {},
                      double ratio_threshold = 0.30,
                      Joules min_expected = 500.0,
                      const policy::DefenderPolicyParams& policy = {})
      : placement_(placement),
        ratio_threshold_(ratio_threshold),
        min_expected_(min_expected),
        policy_(policy) {}
  std::string_view name() const override {
    return policy_.adaptive() ? "energy-delta-adaptive" : "energy-delta";
  }
  std::optional<Detection> analyze(const sim::Trace& trace,
                                   const DetectorContext& ctx) const override;

 private:
  MeterPlacement placement_;
  double ratio_threshold_;
  Joules min_expected_;
  policy::DefenderPolicyParams policy_;
};

/// Sequential CUSUM on per-node session shortfalls (hardware defense):
/// accumulates standardized negative deviations of measured/expected from
/// the benign mean and fires when the statistic exceeds `h`.
class CusumShortfallDetector final : public Detector {
 public:
  CusumShortfallDetector(const MeterPlacement& placement = {}, double k = 0.5,
                         double h = 4.0)
      : placement_(placement), k_(k), h_(h) {}
  std::string_view name() const override { return "cusum-shortfall"; }
  std::optional<Detection> analyze(const sim::Trace& trace,
                                   const DetectorContext& ctx) const override;

 private:
  MeterPlacement placement_;
  double k_;
  double h_;
};

/// Fleet-level sequential audit (hardware defense): one CUSUM over ALL
/// metered sessions in time order, regardless of node.  This is the only
/// sequential test that catches an attacker who short-changes each victim
/// exactly once (per-node statistics never accumulate), at the cost of a
/// larger benign sample to stay calibrated against.
class FleetCusumDetector final : public Detector {
 public:
  FleetCusumDetector(const MeterPlacement& placement = {}, double k = 0.5,
                     double h = 8.0)
      : placement_(placement), k_(k), h_(h) {}
  std::string_view name() const override { return "fleet-cusum"; }
  std::optional<Detection> analyze(const sim::Trace& trace,
                                   const DetectorContext& ctx) const override;

 private:
  MeterPlacement placement_;
  double k_;
  double h_;
};

/// Death-rate threshold a defender calibrates against the fleet's known
/// background failure rate: mean + 3 sigma of the Poisson count per window,
/// plus one, floored at 5 (the small-fleet default).
std::size_t calibrated_death_threshold(double expected_deaths_per_window);

/// Audit thresholds a defender tunes to the deployment's benign profile
/// (all of them scale with fleet size; the defaults fit ~100 nodes).
struct SuiteCalibration {
  std::size_t death_threshold = 5;
  std::size_t escalation_limit = 8;
  std::size_t died_waiting_limit = 2;

  /// Scales the audit budgets for a deployment of `node_count` nodes with
  /// the given expected background deaths per monitoring window.
  static SuiteCalibration for_deployment(std::size_t node_count,
                                         double expected_deaths_per_window);
};

/// The standard deployed suite (everything except the metered-node hardware
/// defenses, which the evaluation enables separately).  `policy` decides
/// whether the death-rate and service-audit thresholds are re-tuned.
DetectorSuite make_deployed_suite(
    const SuiteCalibration& cal = {},
    const policy::DefenderPolicyParams& policy = {});

/// The full suite including coulomb-counter defenses on every node; under
/// an Adaptive `policy` the energy-delta threshold is re-tuned too.
DetectorSuite make_hardened_suite(
    const SuiteCalibration& cal = {},
    const policy::DefenderPolicyParams& policy = {});

}  // namespace wrsn::detect
