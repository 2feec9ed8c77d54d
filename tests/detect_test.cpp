// Tests for the detector suite: each defense must fire on the misbehaviour
// it models and stay silent on benign-shaped traces (false-positive checks).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "analysis/config_io.hpp"
#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "detect/detectors.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "wpt/charging_model.hpp"

namespace wrsn::detect {
namespace {

net::Network tiny_network() {
  std::vector<net::SensorSpec> nodes(3);
  for (net::NodeId i = 0; i < 3; ++i) {
    nodes[i].id = i;
    nodes[i].position = {10.0 * double(i + 1), 0.0};
    nodes[i].data_rate_bps = 100.0;
    nodes[i].battery_capacity = 10'800.0;
  }
  return net::Network(std::move(nodes), {0.0, 0.0}, 15.0);
}

struct Fixture {
  net::Network network = tiny_network();
  wpt::ChargingModel model;
  DetectorContext ctx;

  Fixture() {
    ctx.network = &network;
    ctx.charging_model = &model;
    ctx.nominal_dc = model.docked_dc_power();
    ctx.benign_gain_mean = 0.85;
    ctx.benign_gain_cv = 0.2;
    ctx.horizon = 100'000.0;
  }

  /// A plausible honest session: strong RF, delivered == expected.
  sim::SessionRecord benign_session(net::NodeId node, Seconds start,
                                    Joules expected = 5'000.0) const {
    sim::SessionRecord s;
    s.node = node;
    s.start = start;
    s.end = start + 1'000.0;
    s.kind = sim::SessionKind::Genuine;
    s.expected_gain = expected;
    s.delivered = expected;
    s.rf_observed = model.rf_at_distance(model.params().dock_distance);
    s.rf_neighbor_probe = model.rf_at_distance(10.0);
    s.nearest_probe_distance = 10.0;
    s.radiated = model.params().source_power * 1'000.0;
    return s;
  }

  /// A CSA phase-cancel session: strong RF at the comm antenna, zero harvest.
  sim::SessionRecord spoofed_session(net::NodeId node, Seconds start) const {
    sim::SessionRecord s = benign_session(node, start);
    s.kind = sim::SessionKind::Spoofed;
    s.delivered = 0.0;
    return s;
  }
};

TEST(RssiPresence, SilentOnStrongCarrier) {
  Fixture f;
  sim::Trace trace;
  trace.sessions.push_back(f.benign_session(0, 100.0));
  trace.sessions.push_back(f.spoofed_session(1, 2'000.0));  // carrier present
  RssiPresenceDetector detector;
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(RssiPresence, FiresOnMissingCarrier) {
  Fixture f;
  sim::Trace trace;
  sim::SessionRecord lazy = f.spoofed_session(0, 100.0);
  lazy.rf_observed = 0.0;  // silent-skip attacker radiates nothing
  trace.sessions.push_back(lazy);
  RssiPresenceDetector detector;
  const auto detection = detector.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->node, 0u);
  EXPECT_DOUBLE_EQ(detection->time, lazy.end);
}

TEST(NeighborVoting, RequiresMultipleVotes) {
  Fixture f;
  sim::Trace trace;
  sim::SessionRecord s = f.benign_session(0, 100.0);
  s.rf_neighbor_probe = 0.0;
  s.nearest_probe_distance = 5.0;
  trace.sessions.push_back(s);
  NeighborVotingDetector detector(8.0, 0.25, 2);
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
  sim::SessionRecord s2 = s;
  s2.start += 1'000.0;
  s2.end += 1'000.0;
  trace.sessions.push_back(s2);
  EXPECT_TRUE(detector.analyze(trace, f.ctx).has_value());
}

TEST(NeighborVoting, IgnoresOutOfRangeProbes) {
  Fixture f;
  sim::Trace trace;
  sim::SessionRecord s = f.benign_session(0, 100.0);
  s.rf_neighbor_probe = 0.0;
  s.nearest_probe_distance = 50.0;  // beyond the 8 m probe range
  trace.sessions.push_back(s);
  trace.sessions.push_back(s);
  trace.sessions.push_back(s);
  NeighborVotingDetector detector;
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(ServiceAudit, EscalationBudget) {
  Fixture f;
  sim::Trace trace;
  ServiceAuditDetector detector(/*escalation_limit=*/3);
  trace.escalations.push_back({100.0, 0});
  trace.escalations.push_back({200.0, 1});
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
  trace.escalations.push_back({300.0, 2});
  const auto detection = detector.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_DOUBLE_EQ(detection->time, 300.0);
}

TEST(ServiceAudit, DiedWaitingNeedsRepetition) {
  Fixture f;
  sim::Trace trace;
  ServiceAuditDetector detector(8, 3, /*died_waiting_limit=*/2);
  trace.deaths.push_back({500.0, 0, /*request_outstanding=*/true});
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
  trace.deaths.push_back({900.0, 1, true});
  const auto detection = detector.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_DOUBLE_EQ(detection->time, 900.0);
}

TEST(ServiceAudit, SilentDeathsDoNotFire) {
  Fixture f;
  sim::Trace trace;
  for (int i = 0; i < 3; ++i) {
    trace.deaths.push_back({100.0 * (i + 1), static_cast<net::NodeId>(i),
                            /*request_outstanding=*/false});
  }
  ServiceAuditDetector detector;
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(ServiceAudit, RepeatedEmergencies) {
  Fixture f;
  sim::Trace trace;
  ServiceAuditDetector detector(8, /*emergency_limit=*/3);
  for (int i = 0; i < 3; ++i) {
    trace.requests.push_back(
        {100.0 * (i + 1), 0, 500.0, /*emergency=*/true});
  }
  const auto detection = detector.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->node, 0u);
}

TEST(ServiceAudit, EmergenciesSpreadAcrossNodesDoNotFire) {
  Fixture f;
  sim::Trace trace;
  ServiceAuditDetector detector(8, 3);
  for (net::NodeId i = 0; i < 3; ++i) {
    trace.requests.push_back({100.0 * (i + 1), i % 3, 500.0, true});
  }
  // Wait: all three land on nodes 0,1,2 -> one each, below the limit.
  trace.requests[1].node = 1;
  trace.requests[2].node = 2;
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(DeathRate, FiresOnClusterWithinWindow) {
  Fixture f;
  sim::Trace trace;
  DeathRateDetector detector(/*death_threshold=*/3, /*window=*/1'000.0);
  trace.deaths.push_back({100.0, 0, false});
  trace.deaths.push_back({500.0, 1, false});
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
  trace.deaths.push_back({900.0, 2, false});
  const auto detection = detector.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_DOUBLE_EQ(detection->time, 900.0);
}

TEST(DeathRate, SpreadDeathsStayUnderThreshold) {
  Fixture f;
  sim::Trace trace;
  DeathRateDetector detector(3, 1'000.0);
  trace.deaths.push_back({100.0, 0, false});
  trace.deaths.push_back({1'500.0, 1, false});
  trace.deaths.push_back({3'000.0, 2, false});
  trace.deaths.push_back({4'500.0, 0, false});
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(DeathRate, WindowBoundaryIsOpen) {
  // The sliding window is (t - window, t]: a death exactly `window` old has
  // aged out and must NOT count.  The eviction used `<` instead of `<=`,
  // keeping the boundary death and firing one death early — calibration
  // sizes the threshold assuming the open window, so the off-by-one
  // inflated the false-positive rate on benign missions.
  Fixture f;
  DeathRateDetector detector(/*death_threshold=*/3, /*window=*/1'000.0);

  // Deaths at 0 and 400; the third lands exactly at window age of the
  // first.  Open window: {400, 1000} -> only 2 in window, no detection.
  sim::Trace boundary;
  boundary.deaths.push_back({0.0, 0, false});
  boundary.deaths.push_back({400.0, 1, false});
  boundary.deaths.push_back({1'000.0, 2, false});
  EXPECT_FALSE(detector.analyze(boundary, f.ctx).has_value());

  // One tick inside the window and the cluster is real: fires.
  sim::Trace inside;
  inside.deaths.push_back({0.0, 0, false});
  inside.deaths.push_back({400.0, 1, false});
  inside.deaths.push_back({999.999, 2, false});
  const auto detection = detector.analyze(inside, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_DOUBLE_EQ(detection->time, 999.999);
}

TEST(EnergyDelta, FiresOnSpoofedSession) {
  Fixture f;
  sim::Trace trace;
  trace.sessions.push_back(f.spoofed_session(0, 100.0));
  EnergyDeltaDetector detector(/*audit_fraction=*/1.0);
  const auto detection = detector.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->node, 0u);
}

TEST(EnergyDelta, SilentOnHonestSessions) {
  Fixture f;
  sim::Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.sessions.push_back(
        f.benign_session(static_cast<net::NodeId>(i % 3), 100.0 * i));
  }
  EnergyDeltaDetector detector(1.0);
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(EnergyDelta, IgnoresTinySessions) {
  Fixture f;
  sim::Trace trace;
  sim::SessionRecord s = f.spoofed_session(0, 100.0);
  s.expected_gain = 100.0;  // below min_expected: too small to judge
  trace.sessions.push_back(s);
  EnergyDeltaDetector detector(1.0, 0.3, /*min_expected=*/500.0);
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(EnergyDelta, AuditFractionZeroSeesNothing) {
  Fixture f;
  sim::Trace trace;
  trace.sessions.push_back(f.spoofed_session(0, 100.0));
  EnergyDeltaDetector detector(/*audit_fraction=*/0.0);
  EXPECT_FALSE(detector.analyze(trace, f.ctx).has_value());
}

TEST(Cusum, AccumulatesAcrossSessions) {
  Fixture f;
  sim::Trace trace;
  // Mild shortfalls that the single-session test would tolerate: each
  // session delivers 60 % of expectation.
  for (int i = 0; i < 10; ++i) {
    sim::SessionRecord s = f.benign_session(0, 1'000.0 * i);
    s.delivered = 0.6 * s.expected_gain;
    trace.sessions.push_back(s);
  }
  EnergyDeltaDetector single(1.0);
  EXPECT_FALSE(single.analyze(trace, f.ctx).has_value());
  CusumShortfallDetector cusum(1.0);
  EXPECT_TRUE(cusum.analyze(trace, f.ctx).has_value());
}

TEST(Cusum, SilentOnHonestTraffic) {
  Fixture f;
  sim::Trace trace;
  wrsn::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    sim::SessionRecord s =
        f.benign_session(static_cast<net::NodeId>(i % 3), 500.0 * i);
    // Honest service with calibrated expectation: ratio ~ N(1, 0.2).
    s.delivered = s.expected_gain * rng.normal(1.0, 0.2);
    if (s.delivered < 0.0) s.delivered = 0.0;
    trace.sessions.push_back(s);
  }
  CusumShortfallDetector cusum(1.0);
  EXPECT_FALSE(cusum.analyze(trace, f.ctx).has_value());
}

TEST(Suite, DeployedAndHardenedComposition) {
  const DetectorSuite deployed = make_deployed_suite();
  const DetectorSuite hardened = make_hardened_suite();
  EXPECT_EQ(deployed.size(), 4u);
  EXPECT_EQ(hardened.size(), 7u);
}

TEST(FleetCusum, CatchesOncePerVictimLeaks) {
  // Per-node CUSUM cannot accumulate a single short session per node;
  // the fleet-level statistic can.
  Fixture f;
  sim::Trace trace;
  for (int i = 0; i < 10; ++i) {
    sim::SessionRecord s =
        f.benign_session(static_cast<net::NodeId>(i % 3), 1'000.0 * i);
    s.node = static_cast<net::NodeId>(i % 3);
    s.delivered = 0.45 * s.expected_gain;
    trace.sessions.push_back(s);
  }
  CusumShortfallDetector per_node(1.0);
  FleetCusumDetector fleet(1.0);
  // 3 nodes rotate, so per-node statistics get 3-4 samples each at
  // increment 2.25 - they do eventually fire; rebuild with unique nodes.
  sim::Trace unique_trace;
  for (int i = 0; i < 10; ++i) {
    sim::SessionRecord s = trace.sessions[static_cast<std::size_t>(i)];
    // Node ids 0, 1, 2 exist in the tiny fixture network; reuse them but
    // give each node exactly ONE session by truncating to 3 sessions.
    if (i < 3) unique_trace.sessions.push_back(s);
  }
  EXPECT_FALSE(per_node.analyze(unique_trace, f.ctx).has_value());
  // Three once-per-victim shortfalls: fleet statistic = 3 * 2.25 = 6.75,
  // under the default h = 8; with ten it fires.
  EXPECT_TRUE(fleet.analyze(trace, f.ctx).has_value());
}

TEST(FleetCusum, SilentOnHonestTraffic) {
  Fixture f;
  sim::Trace trace;
  wrsn::Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    sim::SessionRecord s =
        f.benign_session(static_cast<net::NodeId>(i % 3), 500.0 * i);
    s.delivered = std::max(0.0, s.expected_gain * rng.normal(1.0, 0.2));
    trace.sessions.push_back(s);
  }
  FleetCusumDetector fleet(1.0);
  EXPECT_FALSE(fleet.analyze(trace, f.ctx).has_value());
}

TEST(Suite, EarliestPicksMinimumTime) {
  std::vector<SuiteResult> results;
  results.push_back({"a", Detection{500.0, 1, "x"}});
  results.push_back({"b", std::nullopt});
  results.push_back({"c", Detection{200.0, 2, "y"}});
  const auto earliest = DetectorSuite::earliest(results);
  ASSERT_TRUE(earliest.has_value());
  EXPECT_DOUBLE_EQ(earliest->time, 200.0);
  EXPECT_EQ(earliest->node, 2u);
}

TEST(Suite, RunsAllDetectorsOnCleanTrace) {
  Fixture f;
  sim::Trace trace;
  trace.sessions.push_back(f.benign_session(0, 100.0));
  const DetectorSuite suite = make_hardened_suite();
  const auto results = suite.run(trace, f.ctx);
  EXPECT_EQ(results.size(), 7u);
  for (const SuiteResult& r : results) {
    EXPECT_FALSE(r.detection.has_value()) << r.detector;
  }
}

TEST(Suite, DeterministicAcrossRuns) {
  Fixture f;
  sim::Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.sessions.push_back(
        f.benign_session(static_cast<net::NodeId>(i % 3), 500.0 * i));
  }
  trace.sessions.push_back(f.spoofed_session(1, 99'000.0));
  const DetectorSuite suite = make_hardened_suite();
  const auto r1 = suite.run(trace, f.ctx);
  const auto r2 = suite.run(trace, f.ctx);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].detection.has_value(), r2[i].detection.has_value());
    if (r1[i].detection.has_value()) {
      EXPECT_DOUBLE_EQ(r1[i].detection->time, r2[i].detection->time);
    }
  }
}

// Parameterized threshold sweep: a spoofed session fires iff the audit
// threshold exceeds the (noisy) measured/expected ratio of ~0.
class EnergyDeltaThreshold : public ::testing::TestWithParam<double> {};

TEST_P(EnergyDeltaThreshold, SpoofAlwaysCaughtAboveNoiseFloor) {
  Fixture f;
  sim::Trace trace;
  trace.sessions.push_back(f.spoofed_session(0, 100.0));
  EnergyDeltaDetector detector(1.0, GetParam());
  EXPECT_TRUE(detector.analyze(trace, f.ctx).has_value())
      << "threshold " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Thresholds, EnergyDeltaThreshold,
                         ::testing::Values(0.15, 0.2, 0.3, 0.4, 0.5));

// Regression: the SoC-gauge noise draw for a session must be keyed by
// (node, per-node session ordinal), not by the session's global index in
// the trace.  A node's gauge cannot know how many sessions OTHER nodes had,
// so inserting unrelated traffic earlier in the trace must not perturb its
// noise stream.  Under the old global-index keying, prepending one benign
// session on node 2 shifted every later draw and flipped borderline
// verdicts; these traces are built borderline on purpose.
TEST(MeteredNoise, UnrelatedEarlierSessionsDoNotPerturbVerdicts) {
  Fixture f;
  // Node 0: moderate shortfall sessions (CUSUM climbs ~2.0/session against
  // h=4 and h=8, so the crossing time hinges on the exact noise draws),
  // then one session sitting exactly at the EnergyDelta ratio threshold
  // (the noise sign alone decides the verdict).
  sim::Trace base;
  for (int i = 0; i < 6; ++i) {
    sim::SessionRecord s = f.benign_session(0, 1'000.0 * (i + 1));
    s.delivered = 0.5 * s.expected_gain;
    base.sessions.push_back(s);
  }
  sim::SessionRecord edge = f.benign_session(0, 10'000.0);
  edge.delivered = 0.30 * edge.expected_gain;
  base.sessions.push_back(edge);

  sim::Trace prepended = base;
  prepended.sessions.insert(prepended.sessions.begin(),
                            f.benign_session(2, 10.0));

  const EnergyDeltaDetector energy_delta;
  const CusumShortfallDetector cusum;
  const FleetCusumDetector fleet;
  for (const Detector* detector :
       {static_cast<const Detector*>(&energy_delta),
        static_cast<const Detector*>(&cusum),
        static_cast<const Detector*>(&fleet)}) {
    const auto before = detector->analyze(base, f.ctx);
    const auto after = detector->analyze(prepended, f.ctx);
    ASSERT_EQ(before.has_value(), after.has_value()) << detector->name();
    if (before.has_value()) {
      EXPECT_DOUBLE_EQ(before->time, after->time) << detector->name();
      EXPECT_EQ(before->node, after->node) << detector->name();
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive (threshold-re-tuning) detectors — the defender half of the
// policy seam (detect/detectors.hpp, DESIGN.md §15).
// ---------------------------------------------------------------------------

policy::DefenderPolicyParams tuning(Seconds window, double quantile = 3.0,
                                    std::size_t min_samples = 2) {
  policy::DefenderPolicyParams params;
  params.kind = policy::DefenderPolicyKind::Adaptive;
  params.window = window;
  params.quantile = quantile;
  params.min_samples = min_samples;
  return params;
}

TEST(AdaptiveDeathRate, MatchesStaticBeforeAnyWindowCompletes) {
  // With no completed tuning windows the adaptive threshold IS the static
  // one: a first-window death cluster fires both, at the same instant.
  Fixture f;
  sim::Trace trace;
  trace.deaths.push_back({100.0, 0, false});
  trace.deaths.push_back({500.0, 1, false});
  trace.deaths.push_back({900.0, 2, false});
  const DeathRateDetector static_detector(3, 1'000.0);
  const DeathRateDetector adaptive(3, /*window=*/1'000.0, tuning(5'000.0));
  const auto s = static_detector.analyze(trace, f.ctx);
  const auto a = adaptive.analyze(trace, f.ctx);
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a->time, s->time);
  EXPECT_EQ(a->node, s->node);
}

TEST(AdaptiveDeathRate, LearnedBackgroundRateAbsorbsFaultBursts) {
  // Steady background of 2 deaths per 1000 s window for six windows (the
  // standing-fault signature of PR 5), then a 3-death burst.  The static
  // detector at threshold 3 fires on the burst; the adaptive one has
  // re-tuned its bound from the observed rate and stays silent — the
  // false positive the static calibration cannot avoid without knowing the
  // environmental failure rate (EXPERIMENTS.md, fig6 fault study).
  Fixture f;
  sim::Trace trace;
  net::NodeId id = 0;
  for (int w = 0; w < 6; ++w) {
    trace.deaths.push_back({1'000.0 * w + 100.0, id++, false});
    trace.deaths.push_back({1'000.0 * w + 600.0, id++, false});
  }
  trace.deaths.push_back({6'050.0, id++, false});
  trace.deaths.push_back({6'150.0, id++, false});
  trace.deaths.push_back({6'250.0, id++, false});

  const DeathRateDetector static_detector(3, 1'000.0);
  ASSERT_TRUE(static_detector.analyze(trace, f.ctx).has_value());

  const DeathRateDetector adaptive(3, /*window=*/1'000.0, tuning(1'000.0));
  EXPECT_FALSE(adaptive.analyze(trace, f.ctx).has_value());
}

TEST(AdaptiveDeathRate, FloorGuaranteesFiringSubsetOfStatic) {
  // The adaptive threshold never drops below the static one, so wherever
  // the adaptive detector fires, the static detector fired at or before
  // that time.  Exercise both a firing and a silent trace.
  Fixture f;
  const DeathRateDetector static_detector(3, 1'000.0);
  const DeathRateDetector adaptive(3, 1'000.0, tuning(1'000.0));

  sim::Trace storm;  // dense cluster mid-mission, after quiet windows
  storm.deaths.push_back({4'100.0, 0, false});
  storm.deaths.push_back({4'200.0, 1, false});
  storm.deaths.push_back({4'300.0, 2, false});
  storm.deaths.push_back({4'400.0, 3, false});
  sim::Trace quiet;
  quiet.deaths.push_back({500.0, 0, false});
  quiet.deaths.push_back({2'500.0, 1, false});

  for (const sim::Trace* trace : {&storm, &quiet}) {
    const auto a = adaptive.analyze(*trace, f.ctx);
    const auto s = static_detector.analyze(*trace, f.ctx);
    if (a.has_value()) {
      ASSERT_TRUE(s.has_value());
      EXPECT_LE(s->time, a->time);
    }
  }
  // The storm trace must actually exercise the firing branch.
  EXPECT_TRUE(adaptive.analyze(storm, f.ctx).has_value());
}

TEST(AdaptiveServiceAudit, BudgetGrowsWithObservedEscalationRate) {
  Fixture f;
  SuiteCalibration cal;
  cal.escalation_limit = 3;

  // A steady drip of one escalation per window: the static budget of 3
  // trips on the third, the adaptive budget has learned the rate by then.
  sim::Trace drip;
  for (int w = 0; w < 5; ++w) {
    drip.escalations.push_back({1'000.0 * w + 100.0, net::NodeId(w)});
  }
  const ServiceAuditDetector static_detector(cal.escalation_limit);
  ASSERT_TRUE(static_detector.analyze(drip, f.ctx).has_value());
  const ServiceAuditDetector adaptive(cal.escalation_limit, 3,
                                      cal.died_waiting_limit, tuning(1'000.0));
  EXPECT_FALSE(adaptive.analyze(drip, f.ctx).has_value());

  // An attack-like first-window storm has no benign history to hide in:
  // the adaptive budget is still the static one and fires.
  sim::Trace storm;
  for (int i = 0; i < 4; ++i) {
    storm.escalations.push_back({100.0 * (i + 1), net::NodeId(i)});
  }
  EXPECT_TRUE(adaptive.analyze(storm, f.ctx).has_value());
}

TEST(AdaptiveServiceAudit, DiedWaitingRuleStaysStatic) {
  Fixture f;
  SuiteCalibration cal;
  cal.died_waiting_limit = 2;
  const ServiceAuditDetector adaptive(cal.escalation_limit, 3,
                                      cal.died_waiting_limit, tuning(1'000.0));
  sim::Trace trace;
  trace.deaths.push_back({500.0, 0, /*request_outstanding=*/true});
  EXPECT_FALSE(adaptive.analyze(trace, f.ctx).has_value());
  trace.deaths.push_back({900.0, 1, true});
  const auto detection = adaptive.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_DOUBLE_EQ(detection->time, 900.0);
}

TEST(AdaptiveEnergyDelta, TightensAgainstPartialCancelLeaks) {
  // Two windows of honest sessions (ratio ~1.0) let the detector re-tune
  // its threshold well above the static 0.30: a partial-cancel session
  // leaking 45 % then trips the adaptive audit where the static one is
  // blind (the PR-7 partial-leak evasion).
  Fixture f;
  f.ctx.benign_gain_cv = 0.1;
  sim::Trace trace;
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 4; ++i) {
      trace.sessions.push_back(
          f.benign_session(net::NodeId(i % 3), 5'000.0 * w + 1'100.0 * i));
    }
  }
  sim::SessionRecord leak = f.benign_session(1, 11'000.0);
  leak.kind = sim::SessionKind::Spoofed;
  leak.delivered = 0.45 * leak.expected_gain;
  trace.sessions.push_back(leak);

  const EnergyDeltaDetector static_detector;
  EXPECT_FALSE(static_detector.analyze(trace, f.ctx).has_value());
  const EnergyDeltaDetector adaptive({}, 0.30, 500.0,
                                     tuning(5'000.0, /*quantile=*/2.0));
  const auto detection = adaptive.analyze(trace, f.ctx);
  ASSERT_TRUE(detection.has_value());
  EXPECT_EQ(detection->node, 1u);
}

TEST(AdaptiveEnergyDelta, SilentOnHonestSessionsAndCatchesFullSpoof) {
  Fixture f;
  sim::Trace honest;
  for (int i = 0; i < 12; ++i) {
    honest.sessions.push_back(
        f.benign_session(net::NodeId(i % 3), 1'100.0 * i));
  }
  const EnergyDeltaDetector adaptive({}, 0.30, 500.0, tuning(5'000.0));
  EXPECT_FALSE(adaptive.analyze(honest, f.ctx).has_value());

  // A zero-harvest phase-cancel session is below any threshold >= 0.30.
  sim::Trace spoofed = honest;
  spoofed.sessions.push_back(f.spoofed_session(0, 20'000.0));
  EXPECT_TRUE(adaptive.analyze(spoofed, f.ctx).has_value());
}

TEST(AdaptiveSuite, MirrorsStaticComposition) {
  const SuiteCalibration cal;
  const policy::DefenderPolicyParams params = tuning(7'200.0);
  EXPECT_EQ(make_deployed_suite(cal, params).size(), 4u);
  EXPECT_EQ(make_hardened_suite(cal, params).size(), 7u);
}

#if WRSN_OBS
TEST(AdaptiveSuite, CountsTheSameAuditedSessionsAsStatic) {
  // Every metered detector reads sessions through one walk, so the adaptive
  // energy-delta audit counts detect.sessions_audited like the static one.
  Fixture f;
  sim::Trace honest;
  for (int i = 0; i < 12; ++i) {
    honest.sessions.push_back(
        f.benign_session(net::NodeId(i % 3), 1'100.0 * i));
  }
  const auto audited = [&](const DetectorSuite& suite) {
    obs::MetricRegistry registry;
    const obs::ScopedRegistry scope(&registry);
    for (const SuiteResult& r : suite.run(honest, f.ctx)) {
      EXPECT_FALSE(r.detection.has_value()) << r.detector;
    }
    return registry.value(obs::Metric::kDetectSessionsAudited);
  };
  const double static_count = audited(make_hardened_suite());
  EXPECT_EQ(static_count, 3.0 * 12.0);  // three metered detectors
  EXPECT_EQ(audited(make_hardened_suite({}, tuning(5'000.0))), static_count);
}
#endif

// ---------------------------------------------------------------------------
// Mission-level FP regression: the PR 5 finding and its adaptive remedy.
// ---------------------------------------------------------------------------

/// Activity-dense mission with a standing benign fault load (node-failure
/// bursts + battery drift): the mix EXPERIMENTS.md's fig6 fault study shows
/// firing the static death-rate monitor on benign missions.
analysis::ScenarioConfig fault_laden_config(std::uint64_t seed) {
  const auto [cfg, mode] = analysis::resolve_overrides(analysis::parse_repro(
      "mode=benign;seed=1;topology.node_count=36;topology.region_size=240;"
      "horizon=43200;topology.battery_capacity=2500;world.sensing_power=0.05;"
      "world.initial_level_min=0.4;world.initial_level_max=0.55;"
      "world.patience=5400;attack.key_count=6;faults.node_burst_mtbf=6000;"
      "faults.node_burst_size=3;faults.battery_drift_mtbf=20000;"
      "faults.battery_drift_power=0.015"));
  (void)mode;
  analysis::ScenarioConfig out = cfg;
  out.seed = seed;
  return out;
}

bool detector_fired(const analysis::ScenarioResult& result,
                    std::string_view name) {
  for (const auto& v : result.detections) {
    if (v.detector == name) return v.detection.has_value();
  }
  ADD_FAILURE() << "suite did not run detector " << name;
  return false;
}

analysis::ScenarioConfig with_adaptive_defender(analysis::ScenarioConfig cfg) {
  cfg.policy.defender.kind = policy::DefenderPolicyKind::Adaptive;
  cfg.policy.defender.window = 7'200.0;
  return cfg;
}

TEST(AdaptiveDefender, ReducesDeathRateFalsePositivesOnBenignFaultMissions) {
  constexpr std::uint64_t kSeeds = 10;
  std::size_t static_fp = 0;
  std::size_t adaptive_fp = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const analysis::ScenarioConfig cfg = fault_laden_config(seed);
    const analysis::ScenarioResult s =
        analysis::run_mission(cfg, analysis::ChargerMode::Benign);
    const analysis::ScenarioResult a = analysis::run_mission(
        with_adaptive_defender(cfg), analysis::ChargerMode::Benign);
    const bool s_fired = detector_fired(s, "death-rate");
    const bool a_fired = detector_fired(a, "death-rate-adaptive");
    if (s_fired) ++static_fp;
    if (a_fired) ++adaptive_fp;
    // Subset guarantee from the static-threshold floor: the adaptive
    // monitor never fires on a mission the static one cleared.
    if (a_fired) {
      EXPECT_TRUE(s_fired) << "seed " << seed;
    }
  }
  // The PR 5 finding must reproduce: the fault mix makes the static
  // death-rate monitor a false-positive machine on honest missions...
  EXPECT_GE(static_fp, kSeeds / 2) << "fault mix no longer trips the static "
                                      "death-rate monitor; FP regression "
                                      "baseline lost";
  // ...and the threshold-adapting defender strictly reduces it.
  EXPECT_LT(adaptive_fp, static_fp);
}

TEST(AdaptiveDefender, StillCatchesTheBaselineAttackSuite) {
  // Re-tuned thresholds must not buy the FP reduction by going blind: on
  // the fault-free baseline attack missions, every mission the static
  // deployed suite detects stays detected under the adaptive suite.
  constexpr std::uint64_t kSeeds = 10;
  std::size_t static_detected = 0;
  std::size_t adaptive_detected = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    analysis::ScenarioConfig cfg = fault_laden_config(seed);
    cfg.faults = {};  // baseline attack: no environmental faults
    const analysis::ScenarioResult s =
        analysis::run_mission(cfg, analysis::ChargerMode::Attack);
    const analysis::ScenarioResult a = analysis::run_mission(
        with_adaptive_defender(cfg), analysis::ChargerMode::Attack);
    if (s.report.detected) ++static_detected;
    if (a.report.detected) ++adaptive_detected;
  }
  EXPECT_GT(static_detected, 0u);
  EXPECT_GE(adaptive_detected, static_detected);
}

// ---------------------------------------------------------------------------
// Verdict pins: the full suite result list — name, fired, node, time and
// reason — for {static, adaptive} x {deployed, hardened} on three short
// missions (a phase-cancel attack, a partial-cancel attack and a benign
// mission with standing faults).  digest_result folds names, nodes and
// times but not reasons; this pin also holds the reason strings.
// ---------------------------------------------------------------------------

std::string format_verdicts(const std::vector<SuiteResult>& results) {
  std::string out;
  for (const SuiteResult& r : results) {
    out += r.detector;
    if (r.detection.has_value()) {
      char time[32];
      std::snprintf(time, sizeof time, "%.17g", r.detection->time);
      out += " fired node=" + std::to_string(r.detection->node) + " t=" +
             time + " " + r.detection->reason;
    } else {
      out += " silent";
    }
    out += '\n';
  }
  return out;
}

TEST(SuiteVerdicts, PinnedPerMissionAndDefender) {
  struct Mission {
    const char* label;
    analysis::ChargerMode mode;
    const char* spoof_mode;
  };
  constexpr Mission kMissions[] = {
      {"attack", analysis::ChargerMode::Attack, "phase-cancel"},
      {"partial", analysis::ChargerMode::Attack, "partial-cancel"},
      {"benign-faults", analysis::ChargerMode::Benign, nullptr},  // faults on
  };
  const std::map<std::string, std::string> kPinned = {
      {"attack/static/deployed",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate fired node=10 t=18403.374861199183 "
       "death rate exceeds calibrated bound\n"},
      {"attack/static/hardened",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate fired node=10 t=18403.374861199183 "
       "death rate exceeds calibrated bound\n"
       "energy-delta fired node=10 t=10431.202942179414 "
       "metered harvest far below session expectation\n"
       "cusum-shortfall fired node=10 t=10431.202942179414 "
       "sequential harvest shortfall exceeds CUSUM bound\n"
       "fleet-cusum fired node=4294967295 t=11158.737017936654 "
       "fleet-wide harvest shortfall exceeds CUSUM bound\n"},
      {"attack/adaptive/deployed",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit-adaptive fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate-adaptive silent\n"},
      {"attack/adaptive/hardened",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit-adaptive fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate-adaptive silent\n"
       "energy-delta-adaptive fired node=10 t=10431.202942179414 "
       "metered harvest below adaptively re-tuned bound\n"
       "cusum-shortfall fired node=10 t=10431.202942179414 "
       "sequential harvest shortfall exceeds CUSUM bound\n"
       "fleet-cusum fired node=4294967295 t=11158.737017936654 "
       "fleet-wide harvest shortfall exceeds CUSUM bound\n"},
      {"partial/static/deployed",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate fired node=30 t=20563.634552815729 "
       "death rate exceeds calibrated bound\n"},
      {"partial/static/hardened",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate fired node=30 t=20563.634552815729 "
       "death rate exceeds calibrated bound\n"
       "energy-delta silent\n"
       "cusum-shortfall silent\n"
       "fleet-cusum silent\n"},
      {"partial/adaptive/deployed",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit-adaptive fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate-adaptive silent\n"},
      {"partial/adaptive/hardened",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit-adaptive fired node=23 t=15714.119953517595 "
       "nodes keep dying with requests outstanding\n"
       "death-rate-adaptive silent\n"
       "energy-delta-adaptive silent\n"
       "cusum-shortfall silent\n"
       "fleet-cusum silent\n"},
      {"benign-faults/static/deployed",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit fired node=11 t=13676.815032236396 "
       "escalation count exceeds calibrated budget\n"
       "death-rate fired node=19 t=23836.833728810809 "
       "death rate exceeds calibrated bound\n"},
      {"benign-faults/static/hardened",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit fired node=11 t=13676.815032236396 "
       "escalation count exceeds calibrated budget\n"
       "death-rate fired node=19 t=23836.833728810809 "
       "death rate exceeds calibrated bound\n"
       "energy-delta silent\n"
       "cusum-shortfall silent\n"
       "fleet-cusum silent\n"},
      {"benign-faults/adaptive/deployed",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit-adaptive fired node=1 t=14303.748356551489 "
       "escalation count exceeds adaptively re-tuned budget\n"
       "death-rate-adaptive fired node=19 t=23836.833728810809 "
       "death rate exceeds adaptively re-tuned bound\n"},
      {"benign-faults/adaptive/hardened",
       "rssi-presence silent\n"
       "neighbor-voting silent\n"
       "service-audit-adaptive fired node=1 t=14303.748356551489 "
       "escalation count exceeds adaptively re-tuned budget\n"
       "death-rate-adaptive fired node=19 t=23836.833728810809 "
       "death rate exceeds adaptively re-tuned bound\n"
       "energy-delta-adaptive silent\n"
       "cusum-shortfall silent\n"
       "fleet-cusum silent\n"},
  };
  for (const Mission& mission : kMissions) {
    analysis::ScenarioConfig base = fault_laden_config(10);
    if (mission.spoof_mode != nullptr) {
      base = analysis::apply_config(
          base, {{"attack.spoof_mode", mission.spoof_mode}});
      base.faults = {};
    }
    for (const bool adaptive : {false, true}) {
      for (const bool hardened : {false, true}) {
        analysis::ScenarioConfig cfg =
            adaptive ? with_adaptive_defender(base) : base;
        cfg.hardened_detectors = hardened;
        const std::string label = std::string(mission.label) +
                                  (adaptive ? "/adaptive" : "/static") +
                                  (hardened ? "/hardened" : "/deployed");
        const std::string got = format_verdicts(
            analysis::run_mission(cfg, mission.mode).detections);
        const auto it = kPinned.find(label);
        if (it == kPinned.end()) {
          ADD_FAILURE() << "no pin for " << label << ":\n" << got;
          continue;
        }
        EXPECT_EQ(got, it->second) << label;
      }
    }
  }
}

}  // namespace
}  // namespace wrsn::detect
