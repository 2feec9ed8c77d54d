// Tests for 2-D geometry primitives.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/rng.hpp"
#include "geom/radius_band.hpp"
#include "geom/vec2.hpp"

namespace wrsn::geom {
namespace {

TEST(Vec2, ArithmeticOperators) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -4.0};
  EXPECT_EQ(a + b, Vec2(4.0, -2.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 6.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(b / 2.0, Vec2(1.5, -2.0));
  Vec2 c = a;
  c += b;
  EXPECT_EQ(c, Vec2(4.0, -2.0));
}

TEST(Vec2, DotAndNorm) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot({1.0, 0.0}), 3.0);
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
}

TEST(Vec2, NormalizedUnitLength) {
  const Vec2 v{3.0, 4.0};
  const Vec2 n = v.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_NEAR(n.x, 0.6, 1e-12);
  EXPECT_NEAR(n.y, 0.8, 1e-12);
}

TEST(Vec2, NormalizedZeroVectorIsZero) {
  EXPECT_EQ(Vec2{}.normalized(), Vec2{});
}

TEST(Vec2, Distance) {
  EXPECT_DOUBLE_EQ(distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1.0, 1.0}, {1.0, 1.0}), 0.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(distance({2.0, 7.0}, {-1.0, 3.0}),
                   distance({-1.0, 3.0}, {2.0, 7.0}));
}

TEST(Vec2, TriangleInequalityHolds) {
  const Vec2 pts[] = {{0, 0}, {5, 1}, {2, 9}, {-3, 4}, {7, -2}};
  for (const Vec2& a : pts) {
    for (const Vec2& b : pts) {
      for (const Vec2& c : pts) {
        EXPECT_LE(distance(a, c), distance(a, b) + distance(b, c) + 1e-12);
      }
    }
  }
}

TEST(Lerp, EndpointsAndMidpoint) {
  const Vec2 a{0.0, 0.0};
  const Vec2 b{10.0, 20.0};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), Vec2(5.0, 10.0));
}

TEST(Lerp, ClampsOutOfRangeT) {
  const Vec2 a{0.0, 0.0};
  const Vec2 b{10.0, 0.0};
  EXPECT_EQ(lerp(a, b, -1.0), a);
  EXPECT_EQ(lerp(a, b, 2.0), b);
}

TEST(Rect, DimensionsAndCenter) {
  const Rect r{{1.0, 2.0}, {5.0, 10.0}};
  EXPECT_DOUBLE_EQ(r.width(), 4.0);
  EXPECT_DOUBLE_EQ(r.height(), 8.0);
  EXPECT_EQ(r.center(), Vec2(3.0, 6.0));
}

TEST(Rect, ContainsBoundaryAndInterior) {
  const Rect r{{0.0, 0.0}, {10.0, 10.0}};
  EXPECT_TRUE(r.contains({5.0, 5.0}));
  EXPECT_TRUE(r.contains({0.0, 0.0}));
  EXPECT_TRUE(r.contains({10.0, 10.0}));
  EXPECT_FALSE(r.contains({10.01, 5.0}));
  EXPECT_FALSE(r.contains({5.0, -0.01}));
}

TEST(RadiusBand, AgreesWithHypotNearTheRadius) {
  // Radii from everyday to the 0x1p-1000 cutoff on r^2, where the band
  // switches itself off, and past it into the subnormal squares.
  const double cutoff = 0x1p-500;
  const double radii[] = {65.0,   1.0,
                          1e300,  3e-150,
                          cutoff, cutoff * (1.0 + 1e-12),
                          cutoff * (1.0 - 1e-12),
                          1e-151, 1e-160};
  Rng rng(11);
  for (const double r : radii) {
    const RadiusBand band(r);
    std::size_t in_band = 0;
    std::size_t hits = 0;
    for (int i = 0; i < 4000; ++i) {
      const Vec2 a{r * rng.uniform(-8.0, 8.0), r * rng.uniform(-8.0, 8.0)};
      const double theta = rng.uniform(0.0, 2.0 * 3.141592653589793);
      // Lengths from one relative 4e-9 inside the radius to as far out,
      // every tenth exactly r and every tenth a few ulps off it.
      double len = r * (1.0 + rng.uniform(-4e-9, 4e-9));
      if (i % 10 == 0) len = r;
      if (i % 10 == 1) {
        len = r;
        for (int k = rng.uniform_int(-3, 3); k != 0; k += k > 0 ? -1 : 1) {
          len = std::nextafter(len, k > 0 ? HUGE_VAL : 0.0);
        }
      }
      const Vec2 b = a + Vec2{len * std::cos(theta), len * std::sin(theta)};
      const double d = distance(a, b);
      EXPECT_EQ(band.within(a, b), d <= r) << "r " << r << " pair " << i;
      EXPECT_EQ(band.closer(a, b), d < r) << "r " << r << " pair " << i;
      const double d2 = (a - b).norm_sq();
      in_band += d2 >= band.inside && d2 <= band.outside;
      hits += d <= r;
    }
    // The hypot fallback ran, and both verdicts occur.
    EXPECT_GT(in_band, 0u) << r;
    EXPECT_GT(hits, 400u) << r;
    EXPECT_LT(hits, 3600u) << r;
  }
  // The band switches off exactly below the cutoff.
  EXPECT_GT(RadiusBand(cutoff).inside, 0.0);
  EXPECT_EQ(RadiusBand(cutoff * (1.0 - 1e-12)).inside, 0.0);
}

TEST(Vec2, StreamOutput) {
  std::ostringstream os;
  os << Vec2{1.5, -2.0};
  EXPECT_EQ(os.str(), "(1.5, -2)");
}

// Property sweep: |a+b|^2 = |a|^2 + 2 a.b + |b|^2.
class Vec2Algebra : public ::testing::TestWithParam<int> {};

TEST_P(Vec2Algebra, NormExpansionIdentity) {
  const int k = GetParam();
  const Vec2 a{std::sin(k * 1.7), std::cos(k * 0.9) * k};
  const Vec2 b{k * 0.3, std::sin(k * 2.1) * 3.0};
  const double lhs = (a + b).norm_sq();
  const double rhs = a.norm_sq() + 2.0 * a.dot(b) + b.norm_sq();
  EXPECT_NEAR(lhs, rhs, 1e-9 * (1.0 + std::abs(rhs)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Vec2Algebra, ::testing::Range(0, 25));

}  // namespace
}  // namespace wrsn::geom
