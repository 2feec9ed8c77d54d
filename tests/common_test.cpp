// Tests for the common substrate: checking macros, units, RNG determinism
// and distribution sanity, and the logger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/indexed_heap.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace wrsn {
namespace {

TEST(Check, RequirePassesOnTrue) {
  EXPECT_NO_THROW(WRSN_REQUIRE(1 + 1 == 2, "math works"));
}

TEST(Check, RequireThrowsPreconditionError) {
  EXPECT_THROW(WRSN_REQUIRE(false, "always fails"), PreconditionError);
}

TEST(Check, RequireMessageContainsExpressionAndContext) {
  try {
    WRSN_REQUIRE(2 < 1, "impossible ordering");
    FAIL() << "expected throw";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("2 < 1"), std::string::npos);
    EXPECT_NE(message.find("impossible ordering"), std::string::npos);
  }
}

TEST(Check, ErrorHierarchy) {
  // Both precondition and config errors should be catchable as
  // invalid_argument, simulation errors as runtime_error.
  EXPECT_THROW(throw ConfigError("bad"), std::invalid_argument);
  EXPECT_THROW(throw PreconditionError("bad"), std::invalid_argument);
  EXPECT_THROW(throw SimulationError("bad"), std::runtime_error);
}

TEST(Units, WavelengthMatchesCarrier) {
  EXPECT_NEAR(constants::kDefaultWavelength, 0.3276, 1e-3);
}

TEST(Units, DbmConversionRoundTrip) {
  for (const double dbm : {-30.0, -11.5, 0.0, 10.0, 36.0}) {
    EXPECT_NEAR(watts_to_dbm(dbm_to_watts(dbm)), dbm, 1e-9);
  }
}

TEST(Units, KnownDbmValues) {
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-9);
  EXPECT_NEAR(watts_to_dbm(1e-3), 0.0, 1e-9);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministicAndLabelSensitive) {
  Rng parent(7);
  Rng c1 = parent.fork("alpha");
  Rng c2 = Rng(7).fork("alpha");
  Rng c3 = parent.fork("beta");
  EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  // Different labels should produce different streams.
  Rng d1 = Rng(7).fork("alpha");
  Rng d2 = Rng(7).fork("beta");
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (d1.uniform() == d2.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
  (void)c3;
}

TEST(Rng, ForkDoesNotPerturbParentStream) {
  Rng a(99);
  Rng b(99);
  (void)a.fork("child");  // forking must not consume parent entropy
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformDegenerateRange) {
  Rng rng(3);
  EXPECT_DOUBLE_EQ(rng.uniform(4.0, 4.0), 4.0);
}

TEST(Rng, UniformInvertedRangeThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(5.0, 2.0), PreconditionError);
  EXPECT_THROW(rng.uniform_int(5, 2), PreconditionError);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(1, 6));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, ss = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    ss += v * v;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, NormalZeroSigmaIsMean) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.normal(3.5, 0.0), 3.5);
}

TEST(Rng, NormalNegativeSigmaThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ExponentialNonPositiveRateThrows) {
  Rng rng(6);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.exponential(-1.0), PreconditionError);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(10);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(Log, LevelFilterSuppressesBelow) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  log(LogLevel::Debug) << "should not crash or emit";
  set_log_level(saved);
}

TEST(IndexedHeap, MatchesAnOrderedSetUnderUpdateEraseAndPop) {
  // Random updates in both directions, erases and pops, checked op by op
  // against a std::set ordered by (key, id).  Keys come from a small
  // integer grid, so exact-key ties, which the id must break, are common.
  constexpr std::uint32_t kIds = 200;
  Rng rng(11);
  IndexedHeap<double> heap;
  for (int round = 0; round < 3; ++round) {
    // Later rounds reset a heap the previous round left non-empty, and
    // start from a bulk load.
    heap.reset(kIds);
    std::set<std::pair<double, std::uint32_t>> model;
    std::vector<double> queued(kIds, -1.0);  // -1: not queued
    for (std::uint32_t id = 0; id < kIds; id += 3) {
      const double key = double(rng.uniform_int(0, 40));
      heap.append_unordered(id, key);
      queued[id] = key;
      model.insert({key, id});
    }
    heap.heapify();
    for (int op = 0; op < 6'000; ++op) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1));
      const double roll = rng.uniform();
      if (roll < 0.25 && !model.empty()) {
        const IndexedHeap<double>::Entry top = heap.pop();
        ASSERT_EQ(std::make_pair(top.key, top.id), *model.begin());
        queued[top.id] = -1.0;
        model.erase(model.begin());
      } else if (roll < 0.4) {
        heap.erase(id);  // a no-op when `id` is not queued
        if (queued[id] >= 0.0) model.erase({queued[id], id});
        queued[id] = -1.0;
      } else if (roll < 0.5 && queued[id] > 0.0) {
        const double key = double(rng.uniform_int(0, int(queued[id]) - 1));
        heap.push_or_decrease(id, key);
        model.erase({queued[id], id});
        queued[id] = key;
        model.insert({key, id});
      } else {
        const double key = double(rng.uniform_int(0, 40));
        heap.update(id, key);
        if (queued[id] >= 0.0) model.erase({queued[id], id});
        queued[id] = key;
        model.insert({key, id});
      }
      ASSERT_EQ(heap.size(), model.size());
      ASSERT_EQ(heap.contains(id), queued[id] >= 0.0);
      if (!model.empty()) {
        ASSERT_EQ(std::make_pair(heap.top().key, heap.top().id),
                  *model.begin());
      }
    }
    if (round == 2) {
      std::vector<std::pair<double, std::uint32_t>> popped;
      while (!heap.empty()) {
        const IndexedHeap<double>::Entry top = heap.pop();
        popped.emplace_back(top.key, top.id);
      }
      EXPECT_TRUE(std::equal(popped.begin(), popped.end(), model.begin(),
                             model.end()));
    }
  }
}

}  // namespace
}  // namespace wrsn
