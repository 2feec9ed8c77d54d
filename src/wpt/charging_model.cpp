#include "wpt/charging_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace wrsn::wpt {

void ChargingModelParams::validate() const {
  if (source_power <= 0.0) throw ConfigError("source_power must be > 0");
  if (gain_product <= 0.0) throw ConfigError("gain_product must be > 0");
  if (beta <= 0.0) throw ConfigError("beta must be > 0");
  if (max_range <= 0.0) throw ConfigError("max_range must be > 0");
  if (dock_distance < 0.0) throw ConfigError("dock_distance must be >= 0");
  if (dock_distance > max_range) {
    throw ConfigError("dock_distance beyond max_range: charger would dock out of reach");
  }
  if (wavelength <= 0.0) throw ConfigError("wavelength must be > 0");
  rectifier.validate();
}

ChargingModel::ChargingModel(const ChargingModelParams& params)
    : params_(params), rectifier_(params.rectifier) {
  params_.validate();
}

Watts ChargingModel::rf_at_distance(Meters d) const {
  WRSN_REQUIRE(d >= 0.0, "negative distance");
  if (d > params_.max_range) return 0.0;
  const double denom = (d + params_.beta) * (d + params_.beta);
  // The empirical fit can exceed the radiated power at d -> 0; clamp to keep
  // the model physical at contact range.
  return std::min(params_.source_power, alpha() / denom);
}

Watts ChargingModel::dc_at_distance(Meters d) const {
  return rectifier_.dc_output(rf_at_distance(d));
}

Watts ChargingModel::docked_dc_power() const {
  return dc_at_distance(params_.dock_distance);
}

WaveSource ChargingModel::as_wave_source(geom::Vec2 position,
                                         Radians phase) const {
  WaveSource src;
  src.position = position;
  src.alpha = alpha();
  src.beta = params_.beta;
  src.phase_offset = phase;
  src.wavelength = params_.wavelength;
  src.max_range = params_.max_range;
  return src;
}

}  // namespace wrsn::wpt
