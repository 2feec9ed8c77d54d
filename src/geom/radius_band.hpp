// Exact radius tests that settle almost every pair from its squared length.
//
// `distance(a, b) <= r` and `distance(a, b) < r` are the unit-disk and the
// min-separation predicates.  (a - b).norm_sq() is within a few ulps of the
// true squared length of the difference vector and hypot within one ulp of
// its true length, both far inside the relative band 1e-9: a squared length
// below `inside` is shorter than r and one above `outside` is longer,
// whatever hypot would round to.  Only squares in [inside, outside] need the
// hypot itself, so both predicates keep hypot's exact verdict.  A radius
// whose square nears the subnormal range (r below ~1e-150) gets an empty
// band, sending every pair to the hypot, because rounding there is no
// longer relative.
#pragma once

#include <cmath>

#include "common/units.hpp"
#include "geom/vec2.hpp"

namespace wrsn::geom {

struct RadiusBand {
  explicit RadiusBand(Meters r) : radius(r) {
    const double r2 = r * r;
    if (r2 >= 0x1p-1000) {
      inside = r2 * (1.0 - 1e-9);
      outside = r2 * (1.0 + 1e-9);
    }
  }

  /// Exactly `distance(a, b) <= radius`.
  bool within(Vec2 a, Vec2 b) const {
    const double d2 = (a - b).norm_sq();
    if (d2 < inside) return true;
    if (d2 > outside) return false;
    return distance(a, b) <= radius;
  }

  /// Exactly `distance(a, b) < radius`.
  bool closer(Vec2 a, Vec2 b) const {
    const double d2 = (a - b).norm_sq();
    if (d2 < inside) return true;
    if (d2 > outside) return false;
    return distance(a, b) < radius;
  }

  Meters radius;
  double inside = 0.0;
  double outside = HUGE_VAL;
};

}  // namespace wrsn::geom
