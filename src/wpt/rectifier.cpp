#include "wpt/rectifier.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace wrsn::wpt {

void RectifierParams::validate() const {
  if (sensitivity < 0.0) throw ConfigError("rectifier sensitivity < 0");
  if (max_efficiency <= 0.0 || max_efficiency > 1.0) {
    throw ConfigError("rectifier max_efficiency must be in (0, 1]");
  }
  if (knee <= 0.0) throw ConfigError("rectifier knee must be > 0");
  if (dc_cap <= 0.0) throw ConfigError("rectifier dc_cap must be > 0");
}

Rectifier::Rectifier(const RectifierParams& params) : params_(params) {
  params_.validate();
}

double Rectifier::efficiency(Watts rf_in) const {
  WRSN_REQUIRE(rf_in >= 0.0, "negative RF input");
  if (rf_in < params_.sensitivity) return 0.0;
  const double excess = rf_in - params_.sensitivity;
  return params_.max_efficiency * (1.0 - std::exp(-excess / params_.knee));
}

Watts Rectifier::dc_output(Watts rf_in) const {
  return std::min(params_.dc_cap, efficiency(rf_in) * rf_in);
}

}  // namespace wrsn::wpt
