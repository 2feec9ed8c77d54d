// Attack-detection framework.
//
// Detectors analyze the observable projection of a simulation trace — they
// must never read `SessionRecord::kind` (the ground truth).  Each detector
// models one defense the network operator could deploy; the fig6 bench runs
// the whole suite against every attack strategy and against benign traces
// (to report false positives).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"
#include "sim/trace.hpp"
#include "wpt/charging_model.hpp"

namespace wrsn::detect {

class MeterReadings;

/// Everything a deployed detector may legitimately know about the system.
struct DetectorContext {
  const net::Network* network = nullptr;
  const wpt::ChargingModel* charging_model = nullptr;
  /// Nominal DC harvest rate of a docked session [W].
  Watts nominal_dc = 0.0;
  /// Calibrated benign session-gain distribution (mean/cv of
  /// delivered/expected on honest sessions).
  double benign_gain_mean = 0.85;
  double benign_gain_cv = 0.20;
  /// Sigma of a node's per-session energy measurement, as a fraction of its
  /// battery capacity (commodity SoC gauge noise).
  double soc_noise_fraction = 0.02;
  /// Seed for the deterministic measurement-noise stream.
  std::uint64_t noise_seed = 0x5eed;
  /// Mission end [s] (analysis horizon).
  Seconds horizon = 0.0;
  /// Deployment prior for threshold-adapting detectors: expected background
  /// deaths per death-rate monitoring window (what the static calibration
  /// was computed from; 0 = unknown).
  double expected_deaths_per_window = 0.0;
  /// Gauge draws of the trace being analysed, shared by the metered
  /// detectors of one DetectorSuite::run (null: each draws its own).
  MeterReadings* meter_readings = nullptr;
};

/// A detector verdict: the first moment the defense fires.
struct Detection {
  Seconds time = 0.0;
  net::NodeId node = net::kInvalidNode;  ///< offending node, if localized
  std::string reason;
};

/// Offline trace analyzer modeling one deployable defense.
class Detector {
 public:
  virtual ~Detector() = default;
  virtual std::string_view name() const = 0;
  /// Returns the earliest detection, or nullopt if the trace looks benign.
  virtual std::optional<Detection> analyze(
      const sim::Trace& trace, const DetectorContext& ctx) const = 0;
};

/// Runs a set of detectors and reports each verdict.
struct SuiteResult {
  std::string detector;
  std::optional<Detection> detection;
};

class DetectorSuite {
 public:
  void add(std::unique_ptr<Detector> detector);
  /// Runs all detectors.
  std::vector<SuiteResult> run(const sim::Trace& trace,
                               const DetectorContext& ctx) const;
  /// Earliest detection across all detectors, if any.
  static std::optional<Detection> earliest(
      const std::vector<SuiteResult>& results);
  std::size_t size() const { return detectors_.size(); }

 private:
  std::vector<std::unique_ptr<Detector>> detectors_;
};

}  // namespace wrsn::detect
