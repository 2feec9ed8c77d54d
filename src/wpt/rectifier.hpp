// Nonlinear RF-to-DC rectifier model.
//
// Real energy harvesters (Powercast P1110 class) convert nothing below a
// sensitivity threshold and convert with a saturating efficiency above it.
// This nonlinearity is what makes the Charging Spoofing Attack *total*: even
// imperfect wave cancellation, which leaves a small residual RF power at the
// target, lands below the threshold and harvests exactly zero DC.
#pragma once

#include "common/units.hpp"

namespace wrsn::wpt {

/// Parameters of the saturating-efficiency rectifier curve.
struct RectifierParams {
  /// RF input below this harvests nothing [W].  Default 1 mW (~0 dBm),
  /// a conservative stand-in for commodity harvester sensitivity.
  Watts sensitivity = 1e-3;

  /// Peak RF-to-DC conversion efficiency, approached asymptotically.
  double max_efficiency = 0.65;

  /// Input-power scale of the efficiency knee [W]: efficiency reaches
  /// ~63 % of max at sensitivity + knee.
  Watts knee = 30e-3;

  /// Hard cap on harvested DC power (regulator limit) [W].
  Watts dc_cap = 3.0;

  /// Throws ConfigError if any parameter is out of its physical domain.
  void validate() const;
};

/// Stateless nonlinear rectifier.
class Rectifier {
 public:
  Rectifier() : Rectifier(RectifierParams{}) {}
  explicit Rectifier(const RectifierParams& params);

  /// Conversion efficiency at the given RF input power; zero below the
  /// sensitivity threshold, monotonically saturating above it.
  double efficiency(Watts rf_in) const;

  /// Harvested DC power for the given RF input power.
  Watts dc_output(Watts rf_in) const;

  const RectifierParams& params() const { return params_; }

 private:
  RectifierParams params_;
};

}  // namespace wrsn::wpt
