// Coulomb-counter metering shared by every metered-node detector.
//
// A metered detector sees the trace only through `for_each_metered_session`:
// one walk decides hardware placement, reads the gauge noise keyed by the
// node's own session ordinal, and counts `detect.sessions_audited`.  The
// ordinal keying is a pinned regression (detect_test), and two detectors
// disagreeing on placement or noise would make their verdicts incomparable,
// so there is no second way to read a measurement.  The draws behind it
// live in one MeterReadings per trace, which a suite run shares across its
// metered detectors, so each draw is made once however many detectors read
// it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "detect/detector.hpp"

namespace wrsn::detect {

/// Which nodes carry coulomb-counter hardware: a deterministic fraction of
/// the fleet (each node drawn once per noise seed), or an explicit node set
/// (see detect/audit_planner.hpp for budgeted placement strategies).
class MeterPlacement {
 public:
  MeterPlacement(double fraction = 1.0) : fraction_(fraction) {}
  MeterPlacement(const std::vector<net::NodeId>& nodes)
      : nodes_(std::in_place, nodes.begin(), nodes.end()) {}

  /// The explicit node set, if this placement has one.
  const std::optional<std::set<net::NodeId>>& nodes() const { return nodes_; }
  /// Fraction of nodes metered when there is no node set.
  double fraction() const { return fraction_; }

 private:
  double fraction_ = 0.0;                       ///< read without a node set
  std::optional<std::set<net::NodeId>> nodes_;  ///< the metered nodes, if set
};

/// One trace's gauge draws, each made at most once: a node's equip draw
/// (does it carry a meter under a fraction placement) and each session's
/// noise.  Both are pure functions of (noise seed, node, the node's session
/// ordinal), so a shared table reads exactly what fresh draws would.
/// Filled lazily, so a detector that audits few sessions pays for those.
class MeterReadings {
 public:
  MeterReadings(const sim::Trace& trace, const DetectorContext& ctx)
      : trace_(trace), ctx_(ctx) {}
  MeterReadings(const MeterReadings&) = delete;
  MeterReadings& operator=(const MeterReadings&) = delete;

  const sim::Trace& trace() const { return trace_; }
  /// Whether `placement` meters the node of `trace.sessions[index]`.
  bool audited(const MeterPlacement& placement, std::size_t index);
  /// Gauge noise of `trace.sessions[index]` [J].
  Joules noise(std::size_t index);

 private:
  struct Slot {
    std::uint64_t ordinal = 0;  ///< the node's own session ordinal
    std::size_t first = 0;      ///< index of the node's first session
    std::optional<double> equip;  ///< set on the node's first session only
    std::optional<Joules> noise;
  };
  /// Sizes the table and fills ordinals on first use.
  void index_sessions();

  const sim::Trace& trace_;
  const DetectorContext& ctx_;
  std::vector<Slot> slots_;
};

/// Called with an audited session and its noisy measured/expected harvest;
/// a returned detection ends the walk.
using MeteredVisit = std::function<std::optional<Detection>(
    const sim::SessionRecord& session, double ratio)>;

/// Walks `trace.sessions` in order and visits each session a meter audits:
/// the node carries hardware under `placement`, and the expected gain is
/// positive and at least `min_expected`.  Every session advances its node's
/// noise ordinal, audited or not, so a node's draws are a pure function of
/// its own session history and do not depend on a detector's filter.  The
/// measurement is the delivered energy plus gauge noise, clamped at 0.
/// Returns the first detection `visit` returns.  Reads the draws from
/// `ctx.meter_readings` when a suite run shares one for `trace`, else from
/// a table of its own.
std::optional<Detection> for_each_metered_session(
    const sim::Trace& trace, const DetectorContext& ctx,
    const MeterPlacement& placement, Joules min_expected,
    const MeteredVisit& visit);

}  // namespace wrsn::detect
