#include "core/report.hpp"

#include <numeric>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "common/check.hpp"

namespace wrsn::csa {
namespace {

// The time of the earliest death after which some alive node cannot reach
// the sink.  Connectivity is not monotone in the deaths (a later death can
// remove the only stranded node), so every prefix is decided, in one
// reverse sweep: start from the final alive set, add the deaths back latest
// first, and keep a union-find over the alive nodes plus the sink (vertex
// n) whose sink component's size says whether the graph is one piece.
std::optional<Seconds> partition_time(const net::Network& network,
                                      std::span<const sim::DeathRecord> deaths) {
  const std::size_t n = network.size();
  const std::size_t sink = n;
  // A node re-enters at its first death (later records of it are no-ops).
  std::vector<std::size_t> first_death(n, deaths.size());
  for (std::size_t k = deaths.size(); k-- > 0;) {
    WRSN_REQUIRE(deaths[k].node < n, "death record names an unknown node");
    first_death[deaths[k].node] = k;
  }

  std::vector<std::size_t> parent(n + 1);
  std::vector<std::size_t> nodes(n + 1, 0);  // alive nodes per root
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (nodes[a] < nodes[b]) std::swap(a, b);
    parent[b] = a;
    nodes[a] += nodes[b];
  };
  Bitmap alive(n, true);
  for (const sim::DeathRecord& death : deaths) alive.reset(death.node);
  const auto connect = [&](net::NodeId v) {
    for (const net::NodeId u : network.neighbors(v)) {
      if (alive.test(u)) unite(v, u);
    }
    if (network.sink_reachable(v)) unite(v, sink);
  };
  std::size_t alive_count = 0;
  alive.for_each_set([&](std::size_t v) {
    nodes[v] = 1;
    ++alive_count;
  });
  alive.for_each_set(
      [&](std::size_t v) { connect(static_cast<net::NodeId>(v)); });

  std::optional<Seconds> earliest;
  for (std::size_t k = deaths.size(); k-- > 0;) {
    // State: every death up to and including k has happened.
    if (nodes[find(sink)] != alive_count) earliest = deaths[k].time;
    const net::NodeId v = deaths[k].node;
    if (first_death[v] != k) continue;
    alive.set(v);
    nodes[v] = 1;
    ++alive_count;
    connect(v);
  }
  return earliest;
}

}  // namespace

AttackReport build_report(const net::Network& network, const sim::Trace& trace,
                          std::span<const net::NodeId> keys,
                          std::span<const detect::SuiteResult> suite_results) {
  AttackReport report;
  report.keys_total = keys.size();
  const std::unordered_set<net::NodeId> key_set(keys.begin(), keys.end());

  const std::optional<detect::Detection> earliest =
      detect::DetectorSuite::earliest(
          {suite_results.begin(), suite_results.end()});
  if (earliest.has_value()) {
    report.detected = true;
    report.detection_time = earliest->time;
    for (const detect::SuiteResult& result : suite_results) {
      if (result.detection.has_value() &&
          result.detection->time == earliest->time) {
        report.detector_name = result.detector;
        break;
      }
    }
  }

  report.deaths_total = trace.deaths.size();
  report.escalations = trace.escalations.size();

  for (const sim::DeathRecord& death : trace.deaths) {
    if (key_set.count(death.node) > 0) {
      ++report.keys_dead;
      if (!report.detected || death.time <= report.detection_time) {
        ++report.keys_dead_before_detection;
      }
    }
  }
  report.partition_time = partition_time(network, trace.deaths);
  if (report.keys_total > 0) {
    report.exhaustion_ratio =
        double(report.keys_dead) / double(report.keys_total);
    report.undetected_exhaustion_ratio =
        double(report.keys_dead_before_detection) / double(report.keys_total);
  }

  for (const sim::SessionRecord& session : trace.sessions) {
    if (session.kind == sim::SessionKind::Spoofed) {
      ++report.sessions_spoofed;
      report.spoof_delivered += session.delivered;
    } else {
      ++report.sessions_genuine;
      if (key_set.count(session.node) == 0) {
        report.utility_delivered += session.delivered;
      }
    }
  }
  return report;
}

}  // namespace wrsn::csa
