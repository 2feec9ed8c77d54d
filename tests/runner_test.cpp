// Tests for the deterministic parallel experiment runner: the thread pool,
// submission-order aggregation, per-trial Rng forking, and — the load-bearing
// guarantee — bit-identical results at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "common/check.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"

namespace wrsn::runner {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), PreconditionError);
}

TEST(RunTrials, ReturnsResultsInSubmissionOrder) {
  const std::vector<int> configs{5, 3, 8, 1, 9, 2, 7};
  const auto results = run_trials(
      std::span<const int>(configs),
      [](const int& c, Rng&) { return c * 10; }, {.threads = 4});
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i], configs[i] * 10);
  }
}

TEST(RunTrials, PerTrialRngDependsOnlyOnIndexAndSeed) {
  // The stream handed to trial i must be a pure function of (seed, label, i):
  // identical across thread counts and across runs, distinct across trials.
  const auto draw = [](std::size_t count, std::size_t threads) {
    return run_trials(
        count, [](std::size_t, Rng& rng) { return rng.uniform(); },
        {.threads = threads, .seed = 42, .label = "t"});
  };
  const auto serial = draw(16, 1);
  const auto parallel = draw(16, 8);
  EXPECT_EQ(serial, parallel);  // bit-identical, not approximately equal
  EXPECT_EQ(std::set<double>(serial.begin(), serial.end()).size(),
            serial.size());  // streams are distinct per trial

  const auto reseeded = run_trials(
      16, [](std::size_t, Rng& rng) { return rng.uniform(); },
      {.threads = 8, .seed = 43, .label = "t"});
  EXPECT_NE(serial, reseeded);
}

TEST(RunTrials, RethrowsFirstTrialErrorInSubmissionOrder) {
  const std::vector<int> configs{0, 1, 2, 3};
  EXPECT_THROW(
      run_trials(
          std::span<const int>(configs),
          [](const int& c, Rng&) -> int {
            if (c >= 2) throw std::runtime_error("trial " + std::to_string(c));
            return c;
          },
          {.threads = 4}),
      std::runtime_error);
}

TEST(RunTrials, FillsRunStats) {
  RunStats stats;
  run_trials(
      8, [](std::size_t i, Rng&) { return i; }, {.threads = 2}, &stats);
  EXPECT_EQ(stats.trials, 8u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_EQ(stats.trial_seconds.size(), 8u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.speedup(), 0.0);
  EXPECT_GT(stats.throughput(), 0.0);
}

TEST(RunTrials, ConfiguredThreadsHonorsEnvVar) {
  ::setenv("WRSN_THREADS", "3", 1);
  EXPECT_EQ(configured_threads(), 3u);
  ::setenv("WRSN_THREADS", "not-a-number", 1);
  EXPECT_GE(configured_threads(), 1u);  // falls back to hardware_concurrency
  ::unsetenv("WRSN_THREADS");
  EXPECT_GE(configured_threads(), 1u);
}

// The determinism guarantee end-to-end: a full scenario sweep produces
// bit-identical reports at 1, 2, and 8 threads.
TEST(RunTrials, ScenarioSweepIsBitIdenticalAcrossThreadCounts) {
  struct Digest {
    double exhaustion;
    double utility;
    std::uint64_t plans;
    std::size_t deaths;
    bool detected;

    bool operator==(const Digest&) const = default;
  };
  const auto sweep = [](std::size_t threads) {
    return run_trials(
        4,
        [](std::size_t i, Rng&) {
          analysis::ScenarioConfig cfg = analysis::default_scenario();
          cfg.seed = i + 1;
          // Keep the test fast: a small (still connected) deployment and a
          // short horizon.
          cfg.topology.node_count = 50;
          cfg.topology.comm_range = 65.0 * std::sqrt(2.0);
          cfg.horizon = 12 * 3'600.0;
          const analysis::ScenarioResult r =
              analysis::run_mission(cfg, analysis::ChargerMode::Attack);
          return Digest{r.report.exhaustion_ratio,
                        r.report.utility_delivered, r.plans_computed,
                        r.trace.deaths.size(), r.report.detected};
        },
        {.threads = threads, .label = "sweep"});
  };
  const auto at1 = sweep(1);
  const auto at2 = sweep(2);
  const auto at8 = sweep(8);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
}

TEST(PerfTable, SummarizesStats) {
  RunStats stats;
  stats.trials = 4;
  stats.threads = 2;
  stats.wall_seconds = 2.0;
  stats.trial_seconds = {1.0, 1.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(stats.trial_seconds_total(), 3.0);
  EXPECT_DOUBLE_EQ(stats.throughput(), 2.0);
  EXPECT_DOUBLE_EQ(stats.speedup(), 1.5);
  const analysis::Table table = analysis::perf_table(stats, "perf");
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(PerfTable, PhasedStatsKeepsPhasesAndCombinesHonestly) {
  analysis::PhasedStats perf;
  // Phase A: 4 trials of 1 s on 1 thread -> speedup 1.
  RunStats* a = perf.phase("serial");
  a->trials = 4;
  a->threads = 1;
  a->wall_seconds = 4.0;
  a->trial_seconds = {1.0, 1.0, 1.0, 1.0};
  // Phase B: 8 trials of 1 s on 8 threads -> speedup 8.
  RunStats* b = perf.phase("parallel");
  b->trials = 8;
  b->threads = 8;
  b->wall_seconds = 1.0;
  b->trial_seconds = std::vector<double>(8, 1.0);

  EXPECT_EQ(perf.phase_count(), 2u);
  EXPECT_DOUBLE_EQ(perf.phase_stats(0).speedup(), 1.0);
  EXPECT_DOUBLE_EQ(perf.phase_stats(1).speedup(), 8.0);

  const RunStats combined = perf.combined();
  EXPECT_EQ(combined.trials, 12u);
  EXPECT_DOUBLE_EQ(combined.wall_seconds, 5.0);
  EXPECT_EQ(combined.trial_seconds.size(), 12u);
  // Sigma(trial-seconds) / Sigma(wall) = 12 / 5; the old merge_stats would
  // have reported this row under threads = max(1, 8) = 8, implying the
  // combined run scaled 8x when it spent 80 % of its wall clock serial.
  EXPECT_DOUBLE_EQ(combined.speedup(), 2.4);
  EXPECT_EQ(combined.threads, 0u);  // mixed thread counts

  // Same thread count in all phases is reported as that count.
  analysis::PhasedStats uniform;
  *uniform.phase("x") = *a;
  RunStats a2 = *a;
  *uniform.phase("y") = std::move(a2);
  EXPECT_EQ(uniform.combined().threads, 1u);

  // Per-phase rows + combined row.
  EXPECT_EQ(perf.table("perf").row_count(), 3u);
}

}  // namespace
}  // namespace wrsn::runner
