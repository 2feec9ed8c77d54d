#include "wpt/spoofing.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "wpt/wave.hpp"

namespace wrsn::wpt {

void SpoofingParams::validate() const {
  if (antenna_separation <= 0.0) {
    throw ConfigError("antenna_separation must be > 0");
  }
  if (phase_jitter_sigma < 0.0) {
    throw ConfigError("phase_jitter_sigma must be >= 0");
  }
  if (amplitude_imbalance < 0.0 || amplitude_imbalance >= 1.0) {
    throw ConfigError("amplitude_imbalance must be in [0, 1)");
  }
}

SpoofingEmitter::SpoofingEmitter(const ChargingModel& model,
                                 const SpoofingParams& params)
    : model_(model), params_(params) {
  params_.validate();
}

SpoofOutcome SpoofingEmitter::configure_with_detune(geom::Vec2 charger_pos,
                                                    geom::Vec2 target_pos,
                                                    Radians detune,
                                                    Rng* rng) const {
  WRSN_REQUIRE(charger_pos != target_pos,
               "charger cannot be co-located with the rectenna");

  // Place the antenna pair on the baseline perpendicular to the line of
  // sight, symmetric about the charger position.  Both antennas are then
  // equidistant from the target, so their amplitudes match and a pi carrier
  // offset cancels the field at the rectenna exactly (up to hardware error).
  const geom::Vec2 los = (target_pos - charger_pos).normalized();
  const geom::Vec2 perp{-los.y, los.x};
  const geom::Vec2 half = perp * (params_.antenna_separation / 2.0);

  // Split the benign radiated power across the two chains so the total
  // radiated (and hence depot-side energy accounting) is unchanged.
  const Watts alpha_half = model_.alpha() / 2.0;

  double imbalance = 0.0;
  Radians jitter = 0.0;
  if (rng != nullptr) {
    imbalance = rng->normal(0.0, params_.amplitude_imbalance);
    jitter = rng->normal(0.0, params_.phase_jitter_sigma);
  }

  SpoofOutcome out;
  for (auto& src : out.sources) {
    src.beta = model_.params().beta;
    src.wavelength = model_.params().wavelength;
    src.max_range = model_.params().max_range;
  }
  out.sources[0].position = charger_pos + half;
  out.sources[0].alpha = alpha_half * (1.0 + imbalance);
  out.sources[0].phase_offset = 0.0;

  out.sources[1].position = charger_pos - half;
  out.sources[1].alpha = alpha_half * (1.0 - imbalance);

  // Choose the second carrier phase so the two waves arrive at the rectenna
  // exactly pi apart: phi2 - k*d2 = phi1 - k*d1 + pi.
  const Meters d1 = geom::distance(out.sources[0].position, target_pos);
  const Meters d2 = geom::distance(out.sources[1].position, target_pos);
  const Meters lambda = model_.params().wavelength;
  out.sources[1].phase_offset = propagation_phase(d2, lambda) -
                                propagation_phase(d1, lambda) +
                                constants::kPi + detune + jitter;

  out.rf_at_target = superposed_rf_power(out.sources, target_pos);
  out.dc_at_target = model_.rectifier().dc_output(out.rf_at_target);

  const Meters d = geom::distance(charger_pos, target_pos);
  out.rf_benign_equiv = model_.rf_at_distance(d);
  out.dc_benign_equiv = model_.rectifier().dc_output(out.rf_benign_equiv);

  constexpr double kSuppressionCapDb = 150.0;
  if (out.rf_at_target <= 0.0) {
    out.suppression_db = kSuppressionCapDb;
  } else {
    out.suppression_db = std::min(
        kSuppressionCapDb,
        10.0 * std::log10(out.rf_benign_equiv / out.rf_at_target));
  }
  return out;
}

SpoofOutcome SpoofingEmitter::configure(geom::Vec2 charger_pos,
                                        geom::Vec2 target_pos,
                                        Rng* rng) const {
  return configure_with_detune(charger_pos, target_pos, 0.0, rng);
}

SpoofOutcome SpoofingEmitter::configure_partial(geom::Vec2 charger_pos,
                                                geom::Vec2 target_pos,
                                                Watts desired_dc, Rng* rng,
                                                const geom::Vec2* keep_lit) const {
  WRSN_REQUIRE(desired_dc >= 0.0, "negative desired DC");
  if (desired_dc == 0.0) {
    return configure_with_detune(charger_pos, target_pos, 0.0, rng);
  }
  // Harvested DC is monotone non-decreasing in the detune angle on
  // [0, pi] (anti-phase -> in-phase); bisect on the jitter-free outcome,
  // then apply hardware noise to the chosen detune.
  Radians lo = 0.0;
  Radians hi = constants::kPi;
  const SpoofOutcome at_max =
      configure_with_detune(charger_pos, target_pos, hi, nullptr);
  if (desired_dc >= at_max.dc_at_target) {
    return configure_with_detune(charger_pos, target_pos, hi, rng);
  }
  for (int iter = 0; iter < 60; ++iter) {
    const Radians mid = 0.5 * (lo + hi);
    const SpoofOutcome out =
        configure_with_detune(charger_pos, target_pos, mid, nullptr);
    if (out.dc_at_target < desired_dc) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Both detune signs deliver the same DC at the rectenna but mirror the
  // spatial pattern; keep the requested probe point lit if asked to.
  Radians detune = hi;
  if (keep_lit != nullptr) {
    const SpoofOutcome plus =
        configure_with_detune(charger_pos, target_pos, hi, nullptr);
    const SpoofOutcome minus =
        configure_with_detune(charger_pos, target_pos, -hi, nullptr);
    if (superposed_rf_power(minus.sources, *keep_lit) >
        superposed_rf_power(plus.sources, *keep_lit)) {
      detune = -hi;
    }
  }
  return configure_with_detune(charger_pos, target_pos, detune, rng);
}

Watts SpoofingEmitter::rf_at_probe(const SpoofOutcome& outcome,
                                   geom::Vec2 probe) const {
  return superposed_rf_power(outcome.sources, probe);
}

}  // namespace wrsn::wpt
