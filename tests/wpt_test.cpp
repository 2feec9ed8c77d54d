// Tests for the WPT physics: wave superposition, the nonlinear rectifier,
// the empirical charging model, and the phase-cancellation spoofing emitter.
// These are the physical claims behind the paper's Fig. 2/3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "wpt/charging_model.hpp"
#include "wpt/rectifier.hpp"
#include "wpt/spoofing.hpp"
#include "wpt/wave.hpp"

namespace wrsn::wpt {
namespace {

using geom::Vec2;

WaveSource make_source(Vec2 pos, double alpha = 1.0, Radians phase = 0.0) {
  WaveSource s;
  s.position = pos;
  s.alpha = alpha;
  s.beta = 0.2316;
  s.phase_offset = phase;
  s.max_range = 100.0;
  return s;
}

TEST(Wave, SingleSourceReducesToDecayLaw) {
  const WaveSource s = make_source({0.0, 0.0}, 2.0);
  const Vec2 probe{3.0, 4.0};  // d = 5
  const Watts direct = s.power_at_distance(5.0);
  const Watts super = superposed_rf_power({&s, 1}, probe);
  EXPECT_NEAR(super, direct, 1e-12);
  EXPECT_NEAR(direct, 2.0 / ((5.0 + 0.2316) * (5.0 + 0.2316)), 1e-12);
}

TEST(Wave, BeyondMaxRangeIsZero) {
  WaveSource s = make_source({0.0, 0.0}, 3.0);
  s.max_range = 2.0;
  EXPECT_DOUBLE_EQ(s.power_at_distance(2.5), 0.0);
  for (const Vec2 p : {Vec2{3.0, 0.0}, Vec2{-4.0, 3.0}, Vec2{10.0, -10.0}}) {
    EXPECT_EQ(superposed_rf_power({&s, 1}, p), 0.0);
    EXPECT_EQ(incoherent_rf_power({&s, 1}, p), 0.0);
  }
  // Beyond one source's range only the other contributes.
  const WaveSource pair[] = {s, make_source({0.5, 0.0}, 3.0, constants::kPi)};
  EXPECT_DOUBLE_EQ(superposed_rf_power(pair, {10.0, 0.0}),
                   pair[1].power_at_distance(9.5));
}

TEST(Wave, NegativeDistanceThrows) {
  const WaveSource s = make_source({0.0, 0.0});
  EXPECT_THROW(s.power_at_distance(-1.0), PreconditionError);
}

TEST(Wave, PropagationPhase) {
  EXPECT_NEAR(propagation_phase(constants::kDefaultWavelength,
                                constants::kDefaultWavelength),
              constants::kTwoPi, 1e-12);
  EXPECT_THROW(propagation_phase(1.0, 0.0), PreconditionError);
}

TEST(Wave, ConstructiveInterferenceQuadruplesEqualAmplitudes) {
  // Two equidistant in-phase sources: |2A|^2 = 4 |A|^2.
  const WaveSource s1 = make_source({0.0, 1.0});
  const WaveSource s2 = make_source({0.0, -1.0});
  const Vec2 probe{10.0, 0.0};  // equidistant from both
  const WaveSource arr[] = {s1, s2};
  const Watts one = s1.power_at_distance(geom::distance(s1.position, probe));
  EXPECT_NEAR(superposed_rf_power(arr, probe), 4.0 * one, 1e-9);
}

TEST(Wave, DestructiveInterferenceCancelsEqualAmplitudes) {
  const WaveSource s1 = make_source({0.0, 1.0}, 1.0, 0.0);
  const WaveSource s2 = make_source({0.0, -1.0}, 1.0, constants::kPi);
  const Vec2 probe{10.0, 0.0};
  const WaveSource arr[] = {s1, s2};
  EXPECT_NEAR(superposed_rf_power(arr, probe), 0.0, 1e-15);
}

TEST(Wave, IncoherentSumIgnoresPhase) {
  const WaveSource s1 = make_source({0.0, 1.0}, 1.0, 0.0);
  const WaveSource s2 = make_source({0.0, -1.0}, 1.0, constants::kPi);
  const Vec2 probe{10.0, 0.0};
  const WaveSource arr[] = {s1, s2};
  const Watts one = s1.power_at_distance(geom::distance(s1.position, probe));
  EXPECT_NEAR(incoherent_rf_power(arr, probe), 2.0 * one, 1e-12);
}

// The cos-law of two-wave interference: P(phi) = P1 + P2 + 2 sqrt(P1 P2) cos(phi).
class TwoWavePhase : public ::testing::TestWithParam<int> {};

TEST_P(TwoWavePhase, MatchesCosineLaw) {
  const double phi = GetParam() * constants::kTwoPi / 16.0;
  const WaveSource s1 = make_source({0.0, 1.0}, 1.3, 0.0);
  const WaveSource s2 = make_source({0.0, -1.0}, 0.7, phi);
  const Vec2 probe{20.0, 0.0};
  const WaveSource arr[] = {s1, s2};
  const Meters d = geom::distance(s1.position, probe);
  const Watts p1 = s1.power_at_distance(d);
  const Watts p2 = s2.power_at_distance(d);
  const Watts expected = p1 + p2 + 2.0 * std::sqrt(p1 * p2) * std::cos(phi);
  EXPECT_NEAR(superposed_rf_power(arr, probe), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PhaseSweep, TwoWavePhase, ::testing::Range(0, 16));

TEST(Rectifier, ZeroBelowSensitivity) {
  Rectifier rect;
  EXPECT_DOUBLE_EQ(rect.dc_output(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rect.dc_output(0.5e-3), 0.0);  // below 1 mW default
  EXPECT_DOUBLE_EQ(rect.efficiency(0.99e-3), 0.0);
}

TEST(Rectifier, SensitivityEdgeToTheUlp) {
  const Rectifier rect;
  const RectifierParams& p = rect.params();
  const Watts below = std::nextafter(p.sensitivity, 0.0);
  const Watts above = std::nextafter(p.sensitivity, 1.0);
  EXPECT_EQ(rect.efficiency(below), 0.0);
  EXPECT_EQ(rect.dc_output(below), 0.0);
  EXPECT_EQ(rect.efficiency(p.sensitivity), 0.0);  // zero excess
  EXPECT_EQ(rect.dc_output(p.sensitivity), 0.0);
  // From the threshold up the saturating curve applies, to the bit.
  for (const Watts rf : {above, 2e-3, p.knee, 0.5, 5.0, 100.0}) {
    const double eff = p.max_efficiency *
                       (1.0 - std::exp(-(rf - p.sensitivity) / p.knee));
    EXPECT_EQ(rect.efficiency(rf), eff) << "rf = " << rf;
    EXPECT_EQ(rect.dc_output(rf), std::min(p.dc_cap, eff * rf))
        << "rf = " << rf;
  }
}

TEST(Rectifier, SaturatesTowardMaxEfficiency) {
  Rectifier rect;
  EXPECT_NEAR(rect.efficiency(10.0), rect.params().max_efficiency, 1e-3);
}

TEST(Rectifier, EfficiencyMonotone) {
  Rectifier rect;
  double prev = -1.0;
  for (double p = 0.0; p < 1.0; p += 0.01) {
    const double eff = rect.efficiency(p);
    EXPECT_GE(eff, prev - 1e-12);
    EXPECT_LE(eff, rect.params().max_efficiency);
    prev = eff;
  }
}

TEST(Rectifier, DcOutputCapped) {
  RectifierParams params;
  params.dc_cap = 0.5;
  Rectifier rect(params);
  EXPECT_DOUBLE_EQ(rect.dc_output(100.0), 0.5);
}

TEST(Rectifier, ParamValidation) {
  RectifierParams p;
  p.sensitivity = -1.0;
  EXPECT_THROW(Rectifier{p}, ConfigError);
  p = RectifierParams{};
  p.max_efficiency = 1.5;
  EXPECT_THROW(Rectifier{p}, ConfigError);
  p = RectifierParams{};
  p.max_efficiency = 0.0;
  EXPECT_THROW(Rectifier{p}, ConfigError);
  p = RectifierParams{};
  p.knee = 0.0;
  EXPECT_THROW(Rectifier{p}, ConfigError);
  p = RectifierParams{};
  p.dc_cap = -1.0;
  EXPECT_THROW(Rectifier{p}, ConfigError);
}

TEST(Rectifier, NegativeInputThrows) {
  Rectifier rect;
  EXPECT_THROW(rect.dc_output(-0.1), PreconditionError);
}

TEST(Rectifier, NanInputThrows) {
  const Rectifier rect;
  const Watts nan = std::numeric_limits<Watts>::quiet_NaN();
  EXPECT_THROW(rect.dc_output(nan), PreconditionError);
  EXPECT_THROW(rect.efficiency(nan), PreconditionError);
}

TEST(ChargingModel, RfDecaysWithDistance) {
  ChargingModel model;
  double prev = model.rf_at_distance(0.0);
  for (double d = 0.5; d <= 8.0; d += 0.5) {
    const double rf = model.rf_at_distance(d);
    EXPECT_LT(rf, prev);
    prev = rf;
  }
}

TEST(ChargingModel, RfClampedToSourcePower) {
  ChargingModelParams params;
  params.source_power = 3.0;
  params.gain_product = 100.0;  // absurd gain: clamp must bite
  ChargingModel model(params);
  EXPECT_DOUBLE_EQ(model.rf_at_distance(0.0), 3.0);
}

TEST(ChargingModel, ZeroBeyondMaxRange) {
  ChargingModel model;
  const Meters range = model.params().max_range;
  EXPECT_DOUBLE_EQ(model.rf_at_distance(range + 0.1), 0.0);
  EXPECT_DOUBLE_EQ(model.dc_at_distance(range + 0.1), 0.0);
  // The range is inclusive: exactly at it the decay law still applies, and
  // one ULP past it the power is zero.
  const double denom = (range + model.params().beta) *
                       (range + model.params().beta);
  EXPECT_EQ(model.rf_at_distance(range), model.alpha() / denom);
  EXPECT_GT(model.dc_at_distance(range), 0.0);
  const Meters past = std::nextafter(range, 1e9);
  EXPECT_EQ(model.rf_at_distance(past), 0.0);
  EXPECT_EQ(model.dc_at_distance(past), 0.0);
}

TEST(ChargingModel, NanDistanceThrows) {
  const ChargingModel model;
  const Meters nan = std::numeric_limits<Meters>::quiet_NaN();
  EXPECT_THROW(model.rf_at_distance(nan), PreconditionError);
  EXPECT_THROW(model.dc_at_distance(nan), PreconditionError);
}

TEST(ChargingModel, DockedDcPositiveAndBelowRf) {
  ChargingModel model;
  const Watts dc = model.docked_dc_power();
  EXPECT_GT(dc, 0.0);
  EXPECT_LT(dc, model.rf_at_distance(model.params().dock_distance));
}

TEST(ChargingModel, WaveSourceEquivalence) {
  ChargingModel model;
  const WaveSource src = model.as_wave_source({0.0, 0.0});
  for (double d = 0.5; d < 6.0; d += 1.1) {
    // The single-source wave power matches the (unclamped) decay law; at
    // these distances the clamp is inactive.
    EXPECT_NEAR(src.power_at_distance(d), model.rf_at_distance(d), 1e-9);
  }
}

TEST(ChargingModel, ParamValidation) {
  ChargingModelParams p;
  p.source_power = 0.0;
  EXPECT_THROW(ChargingModel{p}, ConfigError);
  p = ChargingModelParams{};
  p.dock_distance = 100.0;  // beyond max_range
  EXPECT_THROW(ChargingModel{p}, ConfigError);
  p = ChargingModelParams{};
  p.beta = 0.0;
  EXPECT_THROW(ChargingModel{p}, ConfigError);
}

TEST(Spoofing, IdealCancellationYieldsZeroDc) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  const SpoofOutcome out =
      emitter.configure({0.0, 0.0}, {0.3, 0.0}, /*rng=*/nullptr);
  EXPECT_NEAR(out.rf_at_target, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(out.dc_at_target, 0.0);
  EXPECT_GT(out.dc_benign_equiv, 1.0);  // a benign charger would deliver watts
  EXPECT_GE(out.suppression_db, 100.0);
}

TEST(Spoofing, JitteredCancellationStaysBelowSensitivity) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  Rng rng(77);
  int exact_zero = 0;
  for (int i = 0; i < 200; ++i) {
    const SpoofOutcome out = emitter.configure({0.0, 0.0}, {0.3, 0.0}, &rng);
    // Residual RF from jitter/imbalance typically lands under the rectifier
    // threshold (zero harvest); rare outliers may leak, but the harvested
    // power must stay negligible against the benign service either way.
    EXPECT_LT(out.dc_at_target, 1e-3 * out.dc_benign_equiv);
    if (out.dc_at_target == 0.0) ++exact_zero;
  }
  EXPECT_GE(exact_zero, 180);  // >= 90 % of sessions harvest exactly nothing
}

TEST(Spoofing, FieldRemainsStrongAwayFromNull) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  const Vec2 target{0.3, 0.0};
  const SpoofOutcome out = emitter.configure({0.0, 0.0}, target, nullptr);
  // A probe half a wavelength off the rectenna sees substantial RF: the
  // null is local, which is how the attack fools RSSI checks nearby.
  const Vec2 probe = target + Vec2{0.0, constants::kDefaultWavelength / 2.0};
  const Watts at_probe = emitter.rf_at_probe(out, probe);
  EXPECT_GT(at_probe, 0.05 * out.rf_benign_equiv);
}

TEST(Spoofing, TotalRadiatedPowerMatchesBenign) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  const SpoofOutcome out = emitter.configure({0.0, 0.0}, {0.3, 0.0}, nullptr);
  // The two antenna alphas sum to the benign alpha: depot-side energy
  // accounting cannot distinguish the spoof.
  EXPECT_NEAR(out.sources[0].alpha + out.sources[1].alpha, model.alpha(),
              1e-12);
}

TEST(Spoofing, CoLocatedChargerAndTargetThrows) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  EXPECT_THROW(emitter.configure({1.0, 1.0}, {1.0, 1.0}, nullptr),
               PreconditionError);
}

TEST(Spoofing, ParamValidation) {
  ChargingModel model;
  SpoofingParams p;
  p.antenna_separation = 0.0;
  EXPECT_THROW(SpoofingEmitter(model, p), ConfigError);
  p = SpoofingParams{};
  p.amplitude_imbalance = 1.0;
  EXPECT_THROW(SpoofingEmitter(model, p), ConfigError);
  p = SpoofingParams{};
  p.phase_jitter_sigma = -0.1;
  EXPECT_THROW(SpoofingEmitter(model, p), ConfigError);
}

TEST(Spoofing, PartialCancelHitsRequestedDc) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  const Vec2 charger{0.0, 0.0};
  const Vec2 target{0.3, 0.0};
  const Watts full = model.dc_at_distance(0.3);
  for (const double fraction : {0.1, 0.3, 0.5, 0.8}) {
    const Watts desired = fraction * full;
    const SpoofOutcome out =
        emitter.configure_partial(charger, target, desired, nullptr);
    EXPECT_NEAR(out.dc_at_target, desired, 0.02 * full + 1e-6)
        << "fraction " << fraction;
  }
}

TEST(Spoofing, PartialCancelZeroDesiredEqualsFullCancel) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  const SpoofOutcome out =
      emitter.configure_partial({0.0, 0.0}, {0.3, 0.0}, 0.0, nullptr);
  EXPECT_NEAR(out.rf_at_target, 0.0, 1e-12);
}

TEST(Spoofing, PartialCancelClampsToConstructiveMax) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  const SpoofOutcome out =
      emitter.configure_partial({0.0, 0.0}, {0.3, 0.0}, 1e9, nullptr);
  // At full detune the pair is in phase: up to 2x the benign RF.
  EXPECT_GE(out.rf_at_target, out.rf_benign_equiv * 0.9);
  EXPECT_THROW(emitter.configure_partial({0, 0}, {0.3, 0.0}, -1.0, nullptr),
               PreconditionError);
}

TEST(Spoofing, PartialCancelMonotoneInDesired) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  Watts prev = -1.0;
  for (double desired = 0.0; desired <= 2.0; desired += 0.25) {
    const SpoofOutcome out =
        emitter.configure_partial({0.0, 0.0}, {0.3, 0.0}, desired, nullptr);
    EXPECT_GE(out.dc_at_target, prev - 1e-9);
    prev = out.dc_at_target;
  }
}

// Spoof cancellation must hold wherever the target is relative to the
// charger (the geometry solves the phase for each line of sight).
class SpoofGeometry : public ::testing::TestWithParam<int> {};

TEST_P(SpoofGeometry, CancelsAtAllBearings) {
  ChargingModel model;
  SpoofingEmitter emitter(model, SpoofingParams{});
  const double angle = GetParam() * constants::kTwoPi / 12.0;
  const Vec2 target{0.4 * std::cos(angle), 0.4 * std::sin(angle)};
  const SpoofOutcome out = emitter.configure({0.0, 0.0}, target, nullptr);
  EXPECT_NEAR(out.rf_at_target, 0.0, 1e-12) << "bearing " << angle;
}

INSTANTIATE_TEST_SUITE_P(Bearings, SpoofGeometry, ::testing::Range(0, 12));

}  // namespace
}  // namespace wrsn::wpt
