// Tests for the deterministic metrics/tracing layer (src/obs/) and its
// runner integration: registry semantics, histogram bucket edges, merge
// order, JSON shape, and the headline determinism contract — metric output
// bit-identical across WRSN_THREADS = 1/2/8 on a fig5-style sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/metrics_io.hpp"
#include "analysis/scenario.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runner/runner.hpp"

namespace wrsn::obs {
namespace {

TEST(MetricRegistry, CountersGaugesAndNamed) {
  MetricRegistry reg;
  reg.add(Metric::kWorldDeaths);
  reg.add(Metric::kWorldDeaths, 2.0);
  reg.add(Metric::kMcTravelJ, 12.5);
  reg.gauge_max(Metric::kSimHeapPeak, 10.0);
  reg.gauge_max(Metric::kSimHeapPeak, 4.0);  // lower: ignored
  reg.add_named("custom.counter", 3.0);
  EXPECT_DOUBLE_EQ(reg.value(Metric::kWorldDeaths), 3.0);
  EXPECT_DOUBLE_EQ(reg.value(Metric::kMcTravelJ), 12.5);
  EXPECT_DOUBLE_EQ(reg.value(Metric::kSimHeapPeak), 10.0);

  const std::vector<MetricRow> rows = reg.rows();
  ASSERT_EQ(rows.size(), kMetricCount + 1);  // fixed metrics + 1 named
  EXPECT_EQ(rows.back().name, "custom.counter");
  EXPECT_DOUBLE_EQ(rows.back().value, 3.0);
}

TEST(Histogram, BucketBoundariesAndOverflow) {
  // Linear layout [0, 1] with 4 buckets: edges at 0.25/0.5/0.75/1.0.
  MetricDef def;
  def.kind = MetricKind::kHistogram;
  def.lo = 0.0;
  def.hi = 1.0;
  def.buckets = 4;
  def.log_spaced = false;
  Histogram hist(def);
  ASSERT_EQ(hist.bounds().size(), 4u);
  EXPECT_DOUBLE_EQ(hist.bounds()[0], 0.25);
  EXPECT_DOUBLE_EQ(hist.bounds()[3], 1.0);
  ASSERT_EQ(hist.counts().size(), 5u);  // finite buckets + overflow

  hist.observe(0.1);    // bucket 0
  hist.observe(0.25);   // exact upper edge: inclusive, still bucket 0
  hist.observe(0.26);   // just past the edge: bucket 1
  hist.observe(-5.0);   // below lo folds into bucket 0
  hist.observe(1.0);    // hi lands in the last finite bucket
  hist.observe(1.0001); // past hi: overflow bucket
  EXPECT_EQ(hist.counts()[0], 3u);
  EXPECT_EQ(hist.counts()[1], 1u);
  EXPECT_EQ(hist.counts()[2], 0u);
  EXPECT_EQ(hist.counts()[3], 1u);
  EXPECT_EQ(hist.counts()[4], 1u);  // overflow
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_DOUBLE_EQ(hist.min(), -5.0);
  EXPECT_DOUBLE_EQ(hist.max(), 1.0001);
}

TEST(Histogram, LogSpacedLayoutCoversRangeExactly) {
  const MetricDef& def = metric_def(Metric::kMcSessionEnergyJ);
  ASSERT_EQ(def.kind, MetricKind::kHistogram);
  Histogram hist(def);
  ASSERT_EQ(hist.bounds().size(), def.buckets);
  // Bounds ascend and the last edge is exactly `hi` (no pow round-off).
  for (std::size_t i = 1; i < hist.bounds().size(); ++i) {
    EXPECT_LT(hist.bounds()[i - 1], hist.bounds()[i]);
  }
  EXPECT_DOUBLE_EQ(hist.bounds().back(), def.hi);
  hist.observe(def.hi);
  EXPECT_EQ(hist.counts()[def.buckets - 1], 1u);  // hi is not overflow
  EXPECT_EQ(hist.counts()[def.buckets], 0u);
}

TEST(MetricRegistry, MergeAddsCountersMaxesGaugesAndFoldsHistograms) {
  MetricRegistry a, b;
  a.add(Metric::kWorldDeaths, 2.0);
  b.add(Metric::kWorldDeaths, 5.0);
  a.gauge_max(Metric::kSimHeapPeak, 7.0);
  b.gauge_max(Metric::kSimHeapPeak, 3.0);
  a.observe(Metric::kNetRepairAffectedFraction, 0.1);
  b.observe(Metric::kNetRepairAffectedFraction, 0.9);
  b.add_named("only.in.b", 1.0);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value(Metric::kWorldDeaths), 7.0);
  EXPECT_DOUBLE_EQ(a.value(Metric::kSimHeapPeak), 7.0);
  const Histogram& hist = a.histogram(Metric::kNetRepairAffectedFraction);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.1);
  EXPECT_DOUBLE_EQ(hist.max(), 0.9);
  EXPECT_EQ(a.rows().size(), kMetricCount + 1);
}

TEST(ScopedRegistry, InstallsAndRestoresIncludingNull) {
  EXPECT_EQ(current(), nullptr);
  MetricRegistry outer_reg;
  {
    ScopedRegistry outer(&outer_reg);
    EXPECT_EQ(current(), &outer_reg);
    {
      ScopedRegistry inner(nullptr);  // runner semantics: explicitly none
      EXPECT_EQ(current(), nullptr);
      count(Metric::kWorldDeaths);  // no registry: must be a no-op
    }
    EXPECT_EQ(current(), &outer_reg);
    count(Metric::kWorldDeaths);
  }
  EXPECT_EQ(current(), nullptr);
  EXPECT_DOUBLE_EQ(outer_reg.value(Metric::kWorldDeaths), 1.0);
}

#if WRSN_OBS
TEST(Macros, WriteToInstalledRegistry) {
  MetricRegistry reg;
  {
    ScopedRegistry scope(&reg);
    WRSN_OBS_COUNT(kWorldDeaths);
    WRSN_OBS_ADD(kMcTravelJ, 2.5);
    WRSN_OBS_GAUGE_MAX(kSimHeapPeak, 42.0);
    WRSN_OBS_OBSERVE(kNetRepairAffectedFraction, 0.5);
    { WRSN_OBS_SPAN(kCsaPlanNs); }
    { WRSN_OBS_SPAN_NAMED(std::string("detect.test.analyze_ns")); }
  }
  EXPECT_DOUBLE_EQ(reg.value(Metric::kWorldDeaths), 1.0);
  EXPECT_DOUBLE_EQ(reg.value(Metric::kMcTravelJ), 2.5);
  EXPECT_DOUBLE_EQ(reg.value(Metric::kSimHeapPeak), 42.0);
  EXPECT_EQ(reg.histogram(Metric::kNetRepairAffectedFraction).count(), 1u);
  EXPECT_EQ(reg.histogram(Metric::kCsaPlanNs).count(), 1u);
  const std::vector<MetricRow> rows = reg.rows();
  ASSERT_EQ(rows.size(), kMetricCount + 1);
  EXPECT_EQ(rows.back().name, "detect.test.analyze_ns");
  EXPECT_TRUE(rows.back().timing);
}
#else
TEST(Macros, CompileOutToNoOps) {
  MetricRegistry reg;
  {
    ScopedRegistry scope(&reg);
    WRSN_OBS_COUNT(kWorldDeaths);
    WRSN_OBS_SPAN(kCsaPlanNs);
  }
  EXPECT_DOUBLE_EQ(reg.value(Metric::kWorldDeaths), 0.0);
  EXPECT_EQ(reg.histogram(Metric::kCsaPlanNs).count(), 0u);
}
#endif

TEST(Json, SchemaShapeAndDeterministicSection) {
  MetricRegistry reg;
  reg.add(Metric::kWorldDeaths, 3.0);
  reg.observe_named_ns("detect.rssi.analyze_ns", 120.0);
  const std::string full = to_json(reg);
  EXPECT_NE(full.find("\"schema\": \"wrsn-metrics-v1\""), std::string::npos);
  EXPECT_NE(full.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(full.find("\"timing\""), std::string::npos);
  EXPECT_NE(full.find("\"world.deaths\": 3"), std::string::npos);
  EXPECT_NE(full.find("detect.rssi.analyze_ns"), std::string::npos);

  const std::string det = to_json(reg, {.include_timing = false});
  EXPECT_EQ(det.find("\"timing\""), std::string::npos);
  EXPECT_EQ(det.find("analyze_ns"), std::string::npos);  // timing excluded
  EXPECT_EQ(det.find("runner.trial_ns"), std::string::npos);
}

TEST(MetricDefs, ServiceMetricsAreTimingScoped) {
  // The mission-server tallies depend on request arrival order and cache
  // state (load, not simulated work), so every svc.* metric must live in
  // the timing section — the deterministic section stays a pure function
  // of the missions executed.
  const struct {
    Metric metric;
    std::string_view name;
    MetricKind kind;
  } expected[] = {
      {Metric::kSvcRequests, "svc.requests", MetricKind::kCounter},
      {Metric::kSvcExecutions, "svc.executions", MetricKind::kCounter},
      {Metric::kSvcCacheHits, "svc.cache_hits", MetricKind::kCounter},
      {Metric::kSvcCacheMisses, "svc.cache_misses", MetricKind::kCounter},
      {Metric::kSvcCacheEvictions, "svc.cache_evictions",
       MetricKind::kCounter},
      {Metric::kSvcCoalesced, "svc.coalesced", MetricKind::kCounter},
      {Metric::kSvcShed, "svc.shed", MetricKind::kCounter},
      {Metric::kSvcQueuePeak, "svc.queue_peak", MetricKind::kGaugeMax},
      {Metric::kSvcRequestNs, "svc.request_ns", MetricKind::kHistogram},
  };
  for (const auto& row : expected) {
    const MetricDef& def = metric_def(row.metric);
    EXPECT_EQ(def.name, row.name);
    EXPECT_EQ(def.kind, row.kind);
    EXPECT_TRUE(def.timing) << row.name << " must be timing-scoped";
  }

  // And therefore none of them may appear in a deterministic-only export.
  MetricRegistry reg;
  reg.add(Metric::kSvcRequests, 5.0);
  reg.gauge_max(Metric::kSvcQueuePeak, 3.0);
  const std::string det = to_json(reg, {.include_timing = false});
  EXPECT_EQ(det.find("svc."), std::string::npos);
}

TEST(Json, NumberFormattingRoundTrips) {
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(-17.0), "-17");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(0.5), "0.5");
  // %.17g survives a double round-trip.
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
}

TEST(MetricsTable, SplitsDeterministicAndTimingRows) {
  MetricRegistry reg;
  reg.add(Metric::kWorldDeaths, 3.0);
  const analysis::Table deterministic = analysis::metrics_table(reg);
  const analysis::Table timing = analysis::timing_metrics_table(reg);
  // Every metric lands in exactly one of the two tables.
  EXPECT_EQ(deterministic.row_count() + timing.row_count(),
            reg.rows().size());
  EXPECT_GT(deterministic.row_count(), 0u);
  EXPECT_GT(timing.row_count(), 0u);  // kCsaPlanNs et al. are timing spans
}

// The headline contract on a fig5-style sweep: the merged registry handed
// back by run_trials is bit-identical at 1, 2, and 8 threads.  Mirrors
// runner_test's result-determinism pin, but for metrics.
TEST(RunnerMetrics, BitIdenticalAcrossThreadCounts) {
  const auto sweep = [](std::size_t threads) {
    analysis::ScenarioConfig cfg = analysis::default_scenario();
    cfg.topology.node_count = 50;
    cfg.topology.comm_range = 65.0 * std::sqrt(2.0);
    cfg.horizon = 12.0 * 3600.0;

    MetricRegistry metrics;
    runner::run_trials(
        std::size_t(4),
        [&cfg](std::size_t index, Rng&) {
          analysis::ScenarioConfig trial_cfg = cfg;
          trial_cfg.seed = index + 1;
          const analysis::ScenarioResult result = analysis::run_mission(
              trial_cfg, index % 2 == 0 ? analysis::ChargerMode::Attack
                                        : analysis::ChargerMode::Benign);
          return result.alive_at_end;
        },
        {.threads = threads, .label = "obs-sweep", .metrics = &metrics});
    return to_json(metrics, {.include_timing = false});
  };

  const std::string at1 = sweep(1);
  const std::string at2 = sweep(2);
  const std::string at8 = sweep(8);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
#if WRSN_OBS
  // The sweep actually exercised the instrumentation.
  EXPECT_NE(at1.find("\"runner.trials\": 4"), std::string::npos);
  EXPECT_EQ(at1.find("\"sim.events_fired\": 0,"), std::string::npos);
#endif
}

// Trials must not leak metrics into (or read them from) the caller's
// registry: run_trials installs its own shard — or explicitly none.
TEST(RunnerMetrics, TrialsDoNotWriteToCallersRegistry) {
  MetricRegistry ambient;
  ScopedRegistry scope(&ambient);
  runner::run_trials(
      std::size_t(2),
      [](std::size_t, Rng&) {
        count(Metric::kWorldDeaths);  // would hit `ambient` if leaked
        return 0;
      },
      {.threads = 1, .label = "no-leak"});
  EXPECT_DOUBLE_EQ(ambient.value(Metric::kWorldDeaths), 0.0);
}

}  // namespace
}  // namespace wrsn::obs
