#include "wpt/wave.hpp"

#include <cmath>

#include "common/check.hpp"

namespace wrsn::wpt {

Watts WaveSource::power_at_distance(Meters d) const {
  WRSN_REQUIRE(d >= 0.0, "negative distance");
  if (d > max_range) return 0.0;
  const double denom = (d + beta) * (d + beta);
  return alpha / denom;
}

std::complex<double> WaveSource::phasor_at(geom::Vec2 point) const {
  const Meters d = geom::distance(position, point);
  const Watts p = power_at_distance(d);
  if (p <= 0.0) return {0.0, 0.0};
  const Radians phase = phase_offset - propagation_phase(d, wavelength);
  return std::polar(std::sqrt(p), phase);
}

Watts superposed_rf_power(std::span<const WaveSource> sources,
                          geom::Vec2 point) {
  std::complex<double> total{0.0, 0.0};
  for (const WaveSource& s : sources) total += s.phasor_at(point);
  return std::norm(total);
}

Watts incoherent_rf_power(std::span<const WaveSource> sources,
                          geom::Vec2 point) {
  Watts total = 0.0;
  for (const WaveSource& s : sources) {
    total += s.power_at_distance(geom::distance(s.position, point));
  }
  return total;
}

Radians propagation_phase(Meters d, Meters lambda) {
  WRSN_REQUIRE(lambda > 0.0, "wavelength must be positive");
  return constants::kTwoPi * d / lambda;
}

}  // namespace wrsn::wpt
