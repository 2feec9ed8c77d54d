// The charging-spoofing emitter: the physical payload of the CSA attack.
//
// A compromised mobile charger carries two coherent antennas separated by a
// small baseline.  To spoof-charge a target it splits its radiated power
// across the two antennas and sets the second antenna's carrier phase so the
// two waves arrive at the target's rectenna exactly pi out of phase.  The RF
// field at the rectenna then collapses to the amplitude-mismatch residual,
// which the nonlinear rectifier (sensitivity threshold) turns into exactly
// zero harvested DC — while a probe a quarter-wavelength away still measures
// a strong field, so the charger looks, sounds, and radiates like a benign
// one.  Total radiated power equals the benign charger's, so energy
// accounting at the depot cannot tell the difference either.
#pragma once

#include <array>
#include <optional>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "geom/vec2.hpp"
#include "wpt/charging_model.hpp"

namespace wrsn::wpt {

/// Hardware parameters of the dual-antenna spoofing payload.
struct SpoofingParams {
  /// Antenna baseline (separation between the two antennas) [m].
  Meters antenna_separation = 0.15;

  /// Standard deviation of the per-session carrier phase error [rad];
  /// models oscillator jitter and calibration error (~0.3 degrees, within
  /// reach of commodity phase shifters).
  Radians phase_jitter_sigma = 0.005;

  /// Fractional amplitude imbalance between the two antenna chains
  /// (0 = perfectly matched).
  double amplitude_imbalance = 0.01;

  void validate() const;
};

/// Outcome of configuring the emitter against one target.
struct SpoofOutcome {
  Watts rf_at_target = 0.0;      ///< residual RF power at the rectenna
  Watts dc_at_target = 0.0;      ///< harvested DC power (the attack goal: 0)
  Watts rf_benign_equiv = 0.0;   ///< RF a benign charger would deliver there
  Watts dc_benign_equiv = 0.0;   ///< DC a benign charger would deliver there
  double suppression_db = 0.0;   ///< 10*log10(rf_benign / rf_spoofed)
  std::array<WaveSource, 2> sources{};  ///< the configured antenna pair
};

/// Dual-antenna phase-cancellation emitter.
class SpoofingEmitter {
 public:
  SpoofingEmitter(const ChargingModel& model, const SpoofingParams& params);

  /// Configures the antenna pair for a charger docked at `charger_pos`
  /// attacking a rectenna at `target_pos`.  If `rng` is provided, phase
  /// jitter and amplitude imbalance are drawn per call; otherwise the
  /// cancellation is ideal.
  SpoofOutcome configure(geom::Vec2 charger_pos, geom::Vec2 target_pos,
                         Rng* rng = nullptr) const;

  /// Partial cancellation: detunes the second carrier away from the exact
  /// anti-phase so the rectenna harvests approximately `desired_dc` watts —
  /// the attacker's counter-move against single-session energy audits
  /// (deliver just enough to pass the threshold, still starving the node).
  /// `desired_dc` is clamped to what full constructive alignment could
  /// deliver at this geometry.  Jitter applies on top when `rng` is given.
  ///
  /// Detuning relocates the interference null away from the rectenna; the
  /// two detune signs give the same harvested DC but mirrored spatial
  /// patterns.  When `keep_lit` is provided (e.g. the target's comm
  /// antenna), the sign leaving more field at that point is chosen, so the
  /// leak does not park the null on the victim's RSSI sensor.
  SpoofOutcome configure_partial(geom::Vec2 charger_pos, geom::Vec2 target_pos,
                                 Watts desired_dc, Rng* rng = nullptr,
                                 const geom::Vec2* keep_lit = nullptr) const;

  /// RF power observed at an arbitrary probe point for a configured pair:
  /// the field is only nulled at the rectenna, not in the neighbourhood.
  /// CsaStrategy reads the comm-antenna RSSI and the witness probe with it.
  Watts rf_at_probe(const SpoofOutcome& outcome, geom::Vec2 probe) const;

  const SpoofingParams& params() const { return params_; }

 private:
  /// Shared implementation: `detune` shifts the second carrier away from
  /// the exact anti-phase (0 = full cancellation, pi = constructive).
  SpoofOutcome configure_with_detune(geom::Vec2 charger_pos,
                                     geom::Vec2 target_pos, Radians detune,
                                     Rng* rng) const;

  const ChargingModel& model_;
  SpoofingParams params_;
};

}  // namespace wrsn::wpt
