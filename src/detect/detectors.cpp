#include "detect/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "detect/metered.hpp"
#include "obs/metrics.hpp"

namespace wrsn::detect {

namespace {

/// Deterministic per-(seed, node, per-node ordinal) gauge noise draw.  The
/// ordinal counts the node's *own* sessions in trace order, so a node's
/// noise stream is a pure function of its own session history — an
/// unrelated session elsewhere in the trace cannot shift the draws and flip
/// detection outcomes between otherwise-identical scenarios.  (The old key
/// was the global session index, which did exactly that.)
double session_noise(const DetectorContext& ctx, net::NodeId node,
                     std::uint64_t ordinal, Joules capacity) {
  Rng rng(ctx.noise_seed);
  return rng.fork("soc-noise")
      .fork(std::to_string(node))
      .fork(std::to_string(ordinal))
      .normal(0.0, ctx.soc_noise_fraction * capacity);
}

/// The calibration rule mean + q*sqrt(mean) + 1, rounded up, with no floor:
/// calibrated_death_threshold floors it at 5, the adaptive thresholds at
/// their static value.
std::size_t recalibrated_bound(double expected, double quantile) {
  WRSN_ASSERT(expected >= 0.0);
  const double bound = expected + quantile * std::sqrt(expected) + 1.0;
  return static_cast<std::size_t>(std::ceil(bound));
}

/// Deterministic median: middle element of the sorted copy (upper-middle on
/// even counts) — no averaging, so the estimate is always a sample value.
double median_of(std::vector<double> values) {
  WRSN_ASSERT(!values.empty());
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + std::ptrdiff_t(mid),
                   values.end());
  return values[mid];
}

}  // namespace

void MeterReadings::index_sessions() {
  if (!slots_.empty() || trace_.sessions.empty()) return;
  slots_.resize(trace_.sessions.size());
  std::map<net::NodeId, std::pair<std::uint64_t, std::size_t>> seen;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const auto [it, fresh] =
        seen.try_emplace(trace_.sessions[i].node, std::uint64_t{0}, i);
    slots_[i].ordinal = it->second.first++;
    slots_[i].first = it->second.second;
  }
}

bool MeterReadings::audited(const MeterPlacement& placement,
                            std::size_t index) {
  const net::NodeId node = trace_.sessions[index].node;
  if (placement.nodes().has_value()) return placement.nodes()->count(node) > 0;
  index_sessions();
  std::optional<double>& equip = slots_[slots_[index].first].equip;
  if (!equip.has_value()) {
    // One draw per (seed, node): every detector meters the same nodes.
    Rng rng(ctx_.noise_seed);
    equip = rng.fork("coulomb-equip").fork(std::to_string(node)).uniform();
  }
  return *equip < placement.fraction();
}

Joules MeterReadings::noise(std::size_t index) {
  index_sessions();
  Slot& slot = slots_[index];
  if (!slot.noise.has_value()) {
    const net::NodeId node = trace_.sessions[index].node;
    slot.noise = session_noise(ctx_, node, slot.ordinal,
                               ctx_.network->node(node).battery_capacity);
  }
  return *slot.noise;
}

std::optional<Detection> for_each_metered_session(
    const sim::Trace& trace, const DetectorContext& ctx,
    const MeterPlacement& placement, Joules min_expected,
    const MeteredVisit& visit) {
  WRSN_REQUIRE(ctx.network != nullptr, "context missing network");
  std::optional<MeterReadings> own;
  MeterReadings* readings = ctx.meter_readings;
  if (readings == nullptr) readings = &own.emplace(trace, ctx);
  WRSN_REQUIRE(&readings->trace() == &trace,
               "shared meter readings belong to another trace");
  for (std::size_t i = 0; i < trace.sessions.size(); ++i) {
    const sim::SessionRecord& s = trace.sessions[i];
    if (s.expected_gain < min_expected || s.expected_gain <= 0.0) continue;
    if (!readings->audited(placement, i)) continue;
    WRSN_OBS_COUNT(kDetectSessionsAudited);
    const Joules measured = std::max(0.0, s.delivered + readings->noise(i));
    if (auto detection = visit(s, measured / s.expected_gain)) {
      return detection;
    }
  }
  return std::nullopt;
}

void DetectorSuite::add(std::unique_ptr<Detector> detector) {
  WRSN_REQUIRE(detector != nullptr, "null detector");
  detectors_.push_back(std::move(detector));
}

std::vector<SuiteResult> DetectorSuite::run(const sim::Trace& trace,
                                            const DetectorContext& ctx) const {
  std::vector<SuiteResult> results;
  results.reserve(detectors_.size());
  WRSN_OBS_COUNT(kDetectSuiteRuns);
  // Every metered detector of this run reads one table of gauge draws.
  MeterReadings readings(trace, ctx);
  DetectorContext shared = ctx;
  shared.meter_readings = &readings;
  for (const auto& detector : detectors_) {
    std::optional<Detection> detection;
    {
      WRSN_OBS_SPAN_NAMED("detect." + std::string(detector->name()) +
                          ".analyze_ns");
      detection = detector->analyze(trace, shared);
    }
    if (detection.has_value()) WRSN_OBS_COUNT(kDetectDetections);
    results.push_back({std::string(detector->name()), std::move(detection)});
  }
  return results;
}

std::optional<Detection> DetectorSuite::earliest(
    const std::vector<SuiteResult>& results) {
  std::optional<Detection> best;
  for (const SuiteResult& result : results) {
    if (!result.detection.has_value()) continue;
    if (!best.has_value() || result.detection->time < best->time) {
      best = result.detection;
    }
  }
  return best;
}

std::optional<Detection> RssiPresenceDetector::analyze(
    const sim::Trace& trace, const DetectorContext& ctx) const {
  WRSN_REQUIRE(ctx.charging_model != nullptr, "context missing charging model");
  const Watts nominal_rf = ctx.charging_model->rf_at_distance(
      ctx.charging_model->params().dock_distance);
  for (const sim::SessionRecord& s : trace.sessions) {
    if (s.rf_observed < rssi_fraction_ * nominal_rf) {
      return Detection{s.end, s.node,
                       "no carrier observed during claimed charging session"};
    }
  }
  return std::nullopt;
}

std::optional<Detection> NeighborVotingDetector::analyze(
    const sim::Trace& trace, const DetectorContext& ctx) const {
  WRSN_REQUIRE(ctx.charging_model != nullptr, "context missing charging model");
  std::size_t votes = 0;
  for (const sim::SessionRecord& s : trace.sessions) {
    if (!(s.nearest_probe_distance <= probe_range_)) continue;  // inf-safe
    const Watts expected =
        ctx.charging_model->rf_at_distance(s.nearest_probe_distance);
    if (expected <= 0.0) continue;
    if (s.rf_neighbor_probe < expected_fraction_ * expected) {
      ++votes;
      if (votes >= votes_to_fire_) {
        return Detection{s.end, s.node,
                         "neighbours report missing charger field"};
      }
    }
  }
  return std::nullopt;
}

std::optional<Detection> ServiceAuditDetector::analyze(
    const sim::Trace& trace, const DetectorContext& ctx) const {
  std::optional<Detection> best;
  const auto consider = [&best](Seconds time, net::NodeId node,
                                std::string reason) {
    if (!best.has_value() || time < best->time) {
      best = Detection{time, node, std::move(reason)};
    }
  };

  // Escalation budget.  Adaptive: the cumulative count is tested against
  // expected-so-far + q*sigma + 1 under the estimated benign escalation
  // rate, never below the static budget.  The estimate only uses COMPLETED
  // windows; its prior spreads the static budget over the horizon.
  const bool adaptive = policy_.adaptive();
  const Seconds tune = policy_.window;
  const double prior_per_window =
      ctx.horizon > 0.0 ? double(escalation_limit_) * tune / ctx.horizon
                        : 0.0;
  const double pseudo = double(policy_.min_samples);
  Seconds tune_end = tune;
  std::size_t completed = 0;
  double rate = prior_per_window;  // per tuning window
  for (std::size_t i = 0; i < trace.escalations.size(); ++i) {
    const sim::EscalationRecord& e = trace.escalations[i];
    std::size_t budget = escalation_limit_;
    if (adaptive) {
      while (tune_end <= e.time) {
        ++completed;
        if (completed >= policy_.min_samples) {
          rate = (prior_per_window * pseudo + double(i)) /
                 (pseudo + double(completed));
        }
        tune_end += tune;
      }
      const double expected_so_far = rate * (e.time / tune);
      budget = std::max(budget,
                        recalibrated_bound(expected_so_far, policy_.quantile));
    }
    if (i + 1 >= budget) {
      consider(e.time, e.node,
               adaptive ? "escalation count exceeds adaptively re-tuned budget"
                        : "escalation count exceeds calibrated budget");
      break;  // escalations are time-ordered; first breach is earliest
    }
  }
  // A single died-while-waiting event is ambiguous (a hardware failure can
  // strike a queued node); repeated ones implicate the charging service.
  std::size_t died_waiting = 0;
  for (const sim::DeathRecord& d : trace.deaths) {
    if (d.request_outstanding && ++died_waiting >= died_waiting_limit_) {
      consider(d.time, d.node, "nodes keep dying with requests outstanding");
      break;  // deaths are time-ordered
    }
  }
  std::map<net::NodeId, std::size_t> emergency_counts;
  for (const sim::RequestRecord& r : trace.requests) {
    if (!r.emergency) continue;
    if (++emergency_counts[r.node] >= emergency_limit_) {
      consider(r.time, r.node, "repeated emergency requests from one node");
      break;  // requests are time-ordered; first node to hit limit is earliest
    }
  }
  return best;
}

std::optional<Detection> DeathRateDetector::analyze(
    const sim::Trace& trace, const DetectorContext& ctx) const {
  // Adaptive: shrink the observed rate toward the deployment prior (the
  // context's expected background deaths per monitoring window) with
  // min_samples pseudo-windows of weight, so one quiet or stormy early
  // window cannot whipsaw the bound.
  const bool adaptive = policy_.adaptive();
  const Seconds tune = policy_.window;
  const double prior = ctx.expected_deaths_per_window;
  const double pseudo = double(policy_.min_samples);
  Seconds tune_end = tune;
  std::size_t completed = 0;
  std::size_t threshold = death_threshold_;
  std::deque<Seconds> window_deaths;
  for (std::size_t i = 0; i < trace.deaths.size(); ++i) {
    const sim::DeathRecord& d = trace.deaths[i];
    while (adaptive && tune_end <= d.time) {
      ++completed;
      if (completed >= policy_.min_samples) {
        // `i` deaths fell inside the completed tuning windows.
        const double observed_rate =
            double(i) / double(completed) * (window_ / tune);
        const double rate = (prior * pseudo + observed_rate * completed) /
                            (pseudo + double(completed));
        threshold = std::max(death_threshold_,
                             recalibrated_bound(rate, policy_.quantile));
      }
      tune_end += tune;
    }
    window_deaths.push_back(d.time);
    // The monitoring window is OPEN at its left edge, (t - window_, t]: a
    // death exactly window_ seconds old has aged out, matching the
    // calibration's expected-deaths-per-window model.  (The old `<`
    // eviction kept that boundary death, silently firing on threshold
    // deaths spanning a closed window of length window_.)
    while (!window_deaths.empty() &&
           window_deaths.front() <= d.time - window_) {
      window_deaths.pop_front();
    }
    if (window_deaths.size() >= threshold) {
      return Detection{d.time, d.node,
                       adaptive ? "death rate exceeds adaptively re-tuned bound"
                                : "death rate exceeds calibrated bound"};
    }
  }
  return std::nullopt;
}

std::optional<Detection> EnergyDeltaDetector::analyze(
    const sim::Trace& trace, const DetectorContext& ctx) const {
  // Adaptive: each session is judged by the threshold tuned on PRIOR
  // windows only, then joins the estimation sample.  Sessions are recorded
  // at their end, so `end` never decreases along the walk and windows close
  // at the audited sessions exactly as at every session.
  const bool adaptive = policy_.adaptive();
  const Seconds tune = policy_.window;
  const double cv = std::max(1e-9, ctx.benign_gain_cv);
  std::vector<double> window_ratios;
  std::vector<double> window_medians;
  Seconds tune_end = tune;
  double threshold = ratio_threshold_;
  return for_each_metered_session(
      trace, ctx, placement_, min_expected_,
      [&](const sim::SessionRecord& s,
          double ratio) -> std::optional<Detection> {
        while (adaptive && tune_end <= s.end) {
          // Windows with too few audited samples do not contribute a
          // median — an empty window says nothing about the benign ratio
          // distribution.
          if (window_ratios.size() >= 3) {
            window_medians.push_back(median_of(std::move(window_ratios)));
            window_ratios.clear();
            if (window_medians.size() >= policy_.min_samples) {
              const double m = median_of(window_medians);
              threshold = std::clamp(m - policy_.quantile * cv * m,
                                     ratio_threshold_, 0.9);
            }
          }
          tune_end += tune;
        }
        if (ratio < threshold) {
          return Detection{
              s.end, s.node,
              adaptive ? "metered harvest below adaptively re-tuned bound"
                       : "metered harvest far below session expectation"};
        }
        if (adaptive) window_ratios.push_back(ratio);
        return std::nullopt;
      });
}

std::optional<Detection> CusumShortfallDetector::analyze(
    const sim::Trace& trace, const DetectorContext& ctx) const {
  // Expectations are fleet-calibrated: benign measured/expected averages 1
  // with standard deviation ~= the benign gain CV.
  const double sigma = std::max(1e-9, ctx.benign_gain_cv);
  std::map<net::NodeId, double> stat;
  return for_each_metered_session(
      trace, ctx, placement_, /*min_expected=*/0.0,
      [&](const sim::SessionRecord& s,
          double ratio) -> std::optional<Detection> {
        double& value = stat[s.node];
        value = std::max(0.0, value + (1.0 - ratio) / sigma - k_);
        if (value > h_) {
          return Detection{s.end, s.node,
                           "sequential harvest shortfall exceeds CUSUM bound"};
        }
        return std::nullopt;
      });
}

std::optional<Detection> FleetCusumDetector::analyze(
    const sim::Trace& trace, const DetectorContext& ctx) const {
  const double sigma = std::max(1e-9, ctx.benign_gain_cv);
  double stat = 0.0;
  return for_each_metered_session(
      trace, ctx, placement_, /*min_expected=*/0.0,
      [&](const sim::SessionRecord& s,
          double ratio) -> std::optional<Detection> {
        stat = std::max(0.0, stat + (1.0 - ratio) / sigma - k_);
        if (stat > h_) {
          return Detection{s.end, net::kInvalidNode,
                           "fleet-wide harvest shortfall exceeds CUSUM bound"};
        }
        return std::nullopt;
      });
}

std::size_t calibrated_death_threshold(double expected_deaths_per_window) {
  WRSN_REQUIRE(expected_deaths_per_window >= 0.0, "negative rate");
  return std::max<std::size_t>(
      5, recalibrated_bound(expected_deaths_per_window, 3.0));
}

SuiteCalibration SuiteCalibration::for_deployment(
    std::size_t node_count, double expected_deaths_per_window) {
  SuiteCalibration cal;
  cal.death_threshold = calibrated_death_threshold(expected_deaths_per_window);
  // Escalation counts and died-while-waiting incidents both scale with the
  // number of sessions a mission generates, i.e. with node count.
  cal.escalation_limit = std::max<std::size_t>(8, node_count / 12);
  cal.died_waiting_limit = std::max<std::size_t>(2, 1 + node_count / 150);
  return cal;
}

DetectorSuite make_deployed_suite(const SuiteCalibration& cal,
                                  const policy::DefenderPolicyParams& policy) {
  policy.validate();
  DetectorSuite suite;
  suite.add(std::make_unique<RssiPresenceDetector>());
  suite.add(std::make_unique<NeighborVotingDetector>());
  suite.add(std::make_unique<ServiceAuditDetector>(
      cal.escalation_limit, 3, cal.died_waiting_limit, policy));
  suite.add(std::make_unique<DeathRateDetector>(cal.death_threshold,
                                                86'400.0, policy));
  return suite;
}

DetectorSuite make_hardened_suite(const SuiteCalibration& cal,
                                  const policy::DefenderPolicyParams& policy) {
  DetectorSuite suite = make_deployed_suite(cal, policy);
  suite.add(std::make_unique<EnergyDeltaDetector>(MeterPlacement{}, 0.30,
                                                  500.0, policy));
  suite.add(std::make_unique<CusumShortfallDetector>());
  suite.add(std::make_unique<FleetCusumDetector>());
  return suite;
}

}  // namespace wrsn::detect
