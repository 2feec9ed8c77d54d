// Empirical end-to-end charging model of a benign mobile charger.
//
// Follows the empirical far-field law used throughout the WRSN mobile
// charging literature (He et al.):  P_rf(d) = alpha / (d + beta)^2, where
// alpha folds the source power and antenna gains, chained with the nonlinear
// rectifier to give the harvested DC power.  Calibrated so a charger docked
// at `dock_distance` delivers on the order of watts, matching the time
// scales the literature simulates with.
#pragma once

#include "common/units.hpp"
#include "wpt/rectifier.hpp"
#include "wpt/wave.hpp"

namespace wrsn::wpt {

/// Parameters of the benign charging chain.
struct ChargingModelParams {
  /// Total radiated RF power of the charger [W].
  Watts source_power = 3.0;

  /// Dimensionless antenna-gain/polarization product of the empirical fit;
  /// alpha = source_power * gain_product.
  double gain_product = 0.18;

  /// Near-field regularizer of the empirical fit [m] (literature constant).
  Meters beta = 0.2316;

  /// Received power treated as zero beyond this range [m].
  Meters max_range = 8.0;

  /// Distance at which the charger parks to serve a node [m].
  Meters dock_distance = 0.3;

  /// Carrier wavelength [m].
  Meters wavelength = constants::kDefaultWavelength;

  RectifierParams rectifier;

  /// Throws ConfigError on non-physical values.
  void validate() const;
};

/// Benign single-antenna charging chain: decay law + rectifier.
class ChargingModel {
 public:
  ChargingModel() : ChargingModel(ChargingModelParams{}) {}
  explicit ChargingModel(const ChargingModelParams& params);

  /// RF power arriving at a harvester `d` meters from the charger.
  Watts rf_at_distance(Meters d) const;

  /// Harvested DC power at distance `d` (RF chained through the rectifier).
  Watts dc_at_distance(Meters d) const;

  /// Harvested DC power at the docking distance — the nominal service rate
  /// a node expects during a charging session.
  Watts docked_dc_power() const;

  /// Builds the single coherent wave source equivalent of this charger at
  /// `position` with carrier phase `phase`.
  WaveSource as_wave_source(geom::Vec2 position, Radians phase = 0.0) const;

  const ChargingModelParams& params() const { return params_; }
  const Rectifier& rectifier() const { return rectifier_; }

  /// alpha of the decay law: source_power * gain_product [W * m^2].
  Watts alpha() const { return params_.source_power * params_.gain_product; }

 private:
  ChargingModelParams params_;
  Rectifier rectifier_;
};

}  // namespace wrsn::wpt
