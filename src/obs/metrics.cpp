#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace wrsn::obs {

namespace detail {

constinit thread_local MetricRegistry* g_current = nullptr;

#if defined(__x86_64__) || defined(_M_X64)
double span_ns_per_tick() {
  // One calibration per process: spin ~200 us against steady_clock, long
  // enough to swamp the clock-read latency at both ends.  Assumes an
  // invariant (constant-rate) TSC, standard on every x86-64 part this
  // project targets.
  static const double ns_per_tick = [] {
    const auto w0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = __rdtsc();
    auto w1 = w0;
    do {
      w1 = std::chrono::steady_clock::now();
    } while (w1 - w0 < std::chrono::microseconds(200));
    const std::uint64_t c1 = __rdtsc();
    const double ns = std::chrono::duration<double, std::nano>(w1 - w0).count();
    return c1 > c0 ? ns / double(c1 - c0) : 1.0;
  }();
  return ns_per_tick;
}
#endif

}  // namespace detail

namespace {

constexpr std::uint32_t kNoHistogram = std::numeric_limits<std::uint32_t>::max();

}  // namespace

Histogram::Histogram(const MetricDef& def) {
  WRSN_REQUIRE(def.buckets > 0, "histogram needs at least one bucket");
  WRSN_REQUIRE(def.hi > def.lo, "histogram needs hi > lo");
  bounds_.reserve(def.buckets);
  for (std::uint32_t i = 0; i < def.buckets; ++i) {
    const double frac = double(i + 1) / double(def.buckets);
    bounds_.push_back(def.log_spaced
                          ? def.lo * std::pow(def.hi / def.lo, frac)
                          : def.lo + (def.hi - def.lo) * frac);
  }
  bounds_.back() = def.hi;  // exact upper edge, no pow round-off
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[std::size_t(it - bounds_.begin())]++;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  WRSN_ASSERT(bounds_.size() == other.bounds_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

MetricRegistry::MetricRegistry() {
  hist_index_.fill(kNoHistogram);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& d = detail::kDefTable[i];
    if (d.kind == MetricKind::kHistogram) {
      hist_index_[i] = std::uint32_t(hists_.size());
      hists_.emplace_back(d);
    }
  }
}

void MetricRegistry::observe(Metric m, double value) {
  const std::uint32_t index = hist_index_[std::size_t(m)];
  WRSN_ASSERT(index != kNoHistogram);
  hists_[index].observe(value);
}

const Histogram& MetricRegistry::histogram(Metric m) const {
  const std::uint32_t index = hist_index_[std::size_t(m)];
  WRSN_REQUIRE(index != kNoHistogram, "metric is not a histogram");
  return hists_[index];
}

MetricRegistry::NamedMetric& MetricRegistry::named_slot(std::string_view name,
                                                        MetricKind kind,
                                                        bool timing) {
  for (NamedMetric& named : named_) {
    if (named.name == name) {
      WRSN_ASSERT(named.kind == kind);
      return named;
    }
  }
  NamedMetric& named = named_.emplace_back();
  named.name = std::string(name);
  named.kind = kind;
  named.timing = timing;
  if (kind == MetricKind::kHistogram) {
    MetricDef layout = detail::timing_ns(name);
    layout.timing = timing;
    named.hist = Histogram(layout);
  }
  return named;
}

void MetricRegistry::add_named(std::string_view name, double amount) {
  named_slot(name, MetricKind::kCounter, /*timing=*/false).value += amount;
}

void MetricRegistry::observe_named_ns(std::string_view name,
                                      double nanoseconds) {
  named_slot(name, MetricKind::kHistogram, /*timing=*/true)
      .hist.observe(nanoseconds);
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& d = detail::kDefTable[i];
    switch (d.kind) {
      case MetricKind::kCounter:
        scalars_[i] += other.scalars_[i];
        break;
      case MetricKind::kGaugeMax:
        scalars_[i] = std::max(scalars_[i], other.scalars_[i]);
        break;
      case MetricKind::kHistogram:
        hists_[hist_index_[i]].merge(other.hists_[other.hist_index_[i]]);
        break;
    }
  }
  for (const NamedMetric& theirs : other.named_) {
    NamedMetric& ours = named_slot(theirs.name, theirs.kind, theirs.timing);
    if (theirs.kind == MetricKind::kHistogram) {
      ours.hist.merge(theirs.hist);
    } else {
      ours.value += theirs.value;
    }
  }
}

std::vector<MetricRow> MetricRegistry::rows() const {
  std::vector<MetricRow> out;
  out.reserve(kMetricCount + named_.size());
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& d = detail::kDefTable[i];
    MetricRow row;
    row.name = d.name;
    row.kind = d.kind;
    row.timing = d.timing;
    if (d.kind == MetricKind::kHistogram) {
      row.hist = &hists_[hist_index_[i]];
    } else {
      row.value = scalars_[i];
    }
    out.push_back(row);
  }
  for (const NamedMetric& named : named_) {
    MetricRow row;
    row.name = named.name;
    row.kind = named.kind;
    row.timing = named.timing;
    if (named.kind == MetricKind::kHistogram) {
      row.hist = &named.hist;
    } else {
      row.value = named.value;
    }
    out.push_back(row);
  }
  return out;
}

}  // namespace wrsn::obs
