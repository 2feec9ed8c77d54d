// Coulomb-counter metering shared by every metered-node detector.
//
// A metered detector sees the trace only through `for_each_metered_session`:
// one walk decides hardware placement, draws the gauge noise keyed by the
// node's own session ordinal, and counts `detect.sessions_audited`.  The
// ordinal keying is a pinned regression (detect_test), and two detectors
// disagreeing on placement or noise would make their verdicts incomparable,
// so there is no second way to read a measurement.
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

  bool audited(std::uint64_t seed, net::NodeId node) const;

 private:
  double fraction_ = 0.0;                       ///< read without a node set
  std::optional<std::set<net::NodeId>> nodes_;  ///< the metered nodes, if set
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
/// Returns the first detection `visit` returns.
std::optional<Detection> for_each_metered_session(
    const sim::Trace& trace, const DetectorContext& ctx,
    const MeterPlacement& placement, Joules min_expected,
    const MeteredVisit& visit);

}  // namespace wrsn::detect
