// Coherent electromagnetic wave propagation and superposition.
//
// This is the physical foundation of the Charging Spoofing Attack: RF power
// from multiple coherent sources does NOT add linearly.  Each source
// contributes a complex phasor whose magnitude follows the far-field decay
// law and whose phase advances with propagated distance; the received RF
// power is the squared magnitude of the phasor sum.  Two equal-amplitude
// waves arriving pi out of phase cancel completely.
#pragma once

#include <complex>
#include <span>

#include "common/units.hpp"
#include "geom/vec2.hpp"

namespace wrsn::wpt {

/// A coherent point source of RF power.
///
/// `power_model(d)` semantics are delegated to the caller: the source carries
/// the received power its wave alone would deliver at distance d via the
/// `alpha / (d + beta)^2` empirical law (see ChargingModel); `phase_offset`
/// is the phase of the emitted carrier at the antenna.
struct WaveSource {
  geom::Vec2 position;        ///< antenna location [m]
  Watts alpha = 0.0;          ///< numerator of the decay law [W * m^2]
  Meters beta = 0.2316;       ///< near-field regularizer [m]
  Radians phase_offset = 0.0; ///< carrier phase at the antenna
  Meters wavelength = constants::kDefaultWavelength;
  Meters max_range = 10.0;    ///< contribution treated as zero beyond this

  /// Received power of this source alone at distance `d` (non-coherent view).
  Watts power_at_distance(Meters d) const;

  /// Complex field phasor of this source at `point`; |phasor|^2 is the power
  /// this source alone would deliver there.
  std::complex<double> phasor_at(geom::Vec2 point) const;
};

/// Received RF power at `point` under coherent superposition of all sources.
///
/// This is the nonlinear-superposition primitive: for a single source it
/// reduces to the empirical decay law; for multiple coherent sources it
/// includes the interference cross-terms (constructive up to
/// (sum of amplitudes)^2, destructive down to zero).
Watts superposed_rf_power(std::span<const WaveSource> sources, geom::Vec2 point);

/// Received RF power if the sources were incoherent (plain sum of powers).
/// Provided to quantify the superposition effect against the naive model.
Watts incoherent_rf_power(std::span<const WaveSource> sources, geom::Vec2 point);

/// Phase accumulated by a wave of wavelength `lambda` over distance `d`.
Radians propagation_phase(Meters d, Meters lambda);

}  // namespace wrsn::wpt
