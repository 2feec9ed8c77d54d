#include "analysis/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "analysis/config_io.hpp"
#include "common/check.hpp"
#include "common/fnv.hpp"
#include "core/reference_planner.hpp"
#include "runner/runner.hpp"

namespace wrsn::analysis {
namespace {

// World-equivalence tolerances (tests/world_equivalence_test.cpp): Reference
// resyncs every node at every death, folding floating-point error slightly
// differently from Fast, so bitwise-equal times are unattainable by design.
constexpr Seconds kTimeTol = 1e-5;
constexpr Joules kEnergyTol = 1e-3;
constexpr double kRfTol = 1e-9;
/// Detector verdict times derive from trace times; give them headroom.
constexpr Seconds kDetectTimeTol = 1e-3;
/// Cap on recorded violations per trial — one broken invariant tends to
/// cascade, and the repro line is what matters.
constexpr std::size_t kMaxFailuresPerTrial = 12;

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string fmt(std::size_t value) { return std::to_string(value); }

void fail(std::vector<std::string>& failures, std::string message) {
  if (failures.size() < kMaxFailuresPerTrial) {
    failures.push_back(std::move(message));
  }
}

// ---------------------------------------------------------------------------
// Oracle 1: differential — production (Fast + CsaPlanner) vs executable
// specification (Reference + NaiveCsaPlanner).
// ---------------------------------------------------------------------------

bool near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

void check_differential(const ScenarioResult& fast, const ScenarioResult& ref,
                        std::vector<std::string>& failures) {
  const auto diff = [&](const std::string& what) {
    fail(failures, "differential: " + what);
  };

  const sim::Trace& ft = fast.trace;
  const sim::Trace& rt = ref.trace;

  if (ft.requests.size() != rt.requests.size()) {
    diff("request count " + fmt(ft.requests.size()) + " != " +
         fmt(rt.requests.size()));
  } else {
    for (std::size_t i = 0; i < rt.requests.size(); ++i) {
      const auto& f = ft.requests[i];
      const auto& r = rt.requests[i];
      if (f.node != r.node || f.emergency != r.emergency ||
          !near(f.time, r.time, kTimeTol) ||
          !near(f.level_at_request, r.level_at_request, kEnergyTol)) {
        diff("request #" + fmt(i) + " node " + fmt(std::size_t(f.node)) +
             " vs " + fmt(std::size_t(r.node)) + " t " + fmt(f.time) +
             " vs " + fmt(r.time));
        break;
      }
    }
  }

  if (ft.sessions.size() != rt.sessions.size()) {
    diff("session count " + fmt(ft.sessions.size()) + " != " +
         fmt(rt.sessions.size()));
  } else {
    for (std::size_t i = 0; i < rt.sessions.size(); ++i) {
      const auto& f = ft.sessions[i];
      const auto& r = rt.sessions[i];
      if (f.node != r.node || f.kind != r.kind ||
          !near(f.start, r.start, kTimeTol) || !near(f.end, r.end, kTimeTol) ||
          !near(f.expected_gain, r.expected_gain, kEnergyTol) ||
          !near(f.delivered, r.delivered, kEnergyTol) ||
          !near(f.rf_observed, r.rf_observed, kRfTol)) {
        diff("session #" + fmt(i) + " node " + fmt(std::size_t(f.node)) +
             " vs " + fmt(std::size_t(r.node)) + " start " + fmt(f.start) +
             " vs " + fmt(r.start));
        break;
      }
    }
  }

  if (ft.deaths.size() != rt.deaths.size()) {
    diff("death count " + fmt(ft.deaths.size()) + " != " +
         fmt(rt.deaths.size()));
  } else {
    for (std::size_t i = 0; i < rt.deaths.size(); ++i) {
      const auto& f = ft.deaths[i];
      const auto& r = rt.deaths[i];
      if (f.node != r.node ||
          f.request_outstanding != r.request_outstanding ||
          !near(f.time, r.time, kTimeTol)) {
        diff("death #" + fmt(i) + " node " + fmt(std::size_t(f.node)) +
             " vs " + fmt(std::size_t(r.node)) + " t " + fmt(f.time) +
             " vs " + fmt(r.time));
        break;
      }
    }
  }

  if (ft.escalations.size() != rt.escalations.size()) {
    diff("escalation count " + fmt(ft.escalations.size()) + " != " +
         fmt(rt.escalations.size()));
  } else {
    for (std::size_t i = 0; i < rt.escalations.size(); ++i) {
      const auto& f = ft.escalations[i];
      const auto& r = rt.escalations[i];
      if (f.node != r.node || !near(f.time, r.time, kTimeTol)) {
        diff("escalation #" + fmt(i) + " node " + fmt(std::size_t(f.node)) +
             " vs " + fmt(std::size_t(r.node)));
        break;
      }
    }
  }

  if (fast.keys != ref.keys) diff("key-target sets differ");
  if (fast.plans_computed != ref.plans_computed) {
    diff("plans_computed " + fmt(fast.plans_computed) + " != " +
         fmt(ref.plans_computed));
  }
  if (fast.alive_at_end != ref.alive_at_end) {
    diff("alive_at_end " + fmt(fast.alive_at_end) + " != " +
         fmt(ref.alive_at_end));
  }
  if (fast.sink_connected_at_end != ref.sink_connected_at_end) {
    diff("sink_connected_at_end " + fmt(fast.sink_connected_at_end) +
         " != " + fmt(ref.sink_connected_at_end));
  }

  const fault::FaultStats& ff = fast.fault_stats;
  const fault::FaultStats& rf = ref.fault_stats;
  if (ff.mc_breakdowns != rf.mc_breakdowns || ff.mc_repairs != rf.mc_repairs ||
      ff.node_burst_kills != rf.node_burst_kills ||
      ff.phase_noise_windows != rf.phase_noise_windows ||
      ff.escalations_dropped != rf.escalations_dropped ||
      ff.escalations_delayed != rf.escalations_delayed ||
      ff.drift_nodes != rf.drift_nodes || ff.absorbed != rf.absorbed ||
      ff.mc_handoffs != rf.mc_handoffs) {
    diff("fault tallies differ (injected " + fmt(ff.injected_total()) +
         " vs " + fmt(rf.injected_total()) + ")");
  }

  if (fast.detections.size() != ref.detections.size()) {
    diff("detector count differs");
  } else {
    for (std::size_t i = 0; i < ref.detections.size(); ++i) {
      const auto& f = fast.detections[i];
      const auto& r = ref.detections[i];
      if (f.detector != r.detector ||
          f.detection.has_value() != r.detection.has_value() ||
          (f.detection.has_value() &&
           (f.detection->node != r.detection->node ||
            !near(f.detection->time, r.detection->time, kDetectTimeTol)))) {
        diff("detector '" + f.detector + "' verdict differs");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle 2: invariants on a single run's trace and accounting.
// ---------------------------------------------------------------------------

void check_invariants(const ScenarioConfig& cfg, const ScenarioResult& result,
                      const std::string& tag,
                      std::vector<std::string>& failures) {
  const auto bad = [&](const std::string& what) {
    fail(failures, "invariant[" + tag + "]: " + what);
  };
  const sim::Trace& trace = result.trace;
  // Heterogeneous classes scale individual capacities by up to the class
  // ratio; the level bound must cover the largest class, not the base value.
  const double capacity = cfg.topology.battery_capacity *
                          std::max(1.0, cfg.topology.class_capacity_ratio);
  const Seconds horizon = cfg.horizon;

  std::unordered_map<net::NodeId, Seconds> death_time;
  Seconds prev = 0.0;
  for (std::size_t i = 0; i < trace.deaths.size(); ++i) {
    const auto& d = trace.deaths[i];
    if (d.time < prev - 1e-9) bad("deaths out of order at #" + fmt(i));
    if (d.time < -1e-9 || d.time > horizon + 1e-6) {
      bad("death time " + fmt(d.time) + " outside horizon");
    }
    if (!death_time.emplace(d.node, d.time).second) {
      bad("node " + fmt(std::size_t(d.node)) + " died twice");
    }
    prev = d.time;
  }
  const auto died_before = [&](net::NodeId node, Seconds t) {
    const auto it = death_time.find(node);
    return it != death_time.end() && t > it->second + 1e-6;
  };

  prev = 0.0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const auto& r = trace.requests[i];
    if (r.time < prev - 1e-9) bad("requests out of order at #" + fmt(i));
    if (r.time < -1e-9 || r.time > horizon + 1e-6) {
      bad("request time " + fmt(r.time) + " outside horizon");
    }
    if (r.level_at_request < -1e-6 ||
        r.level_at_request > capacity + kEnergyTol) {
      bad("request level " + fmt(r.level_at_request) + " outside [0, " +
          fmt(capacity) + "]");
    }
    if (died_before(r.node, r.time)) {
      bad("request from dead node " + fmt(std::size_t(r.node)));
    }
    prev = r.time;
  }

  std::unordered_map<net::NodeId, std::vector<std::pair<Seconds, Seconds>>>
      node_sessions;
  Joules radiated_sum = 0.0;
  for (std::size_t i = 0; i < trace.sessions.size(); ++i) {
    const auto& s = trace.sessions[i];
    if (s.start < -1e-9 || s.end > horizon + 1e-6 || s.start > s.end + 1e-9) {
      bad("session #" + fmt(i) + " times [" + fmt(s.start) + ", " +
          fmt(s.end) + "] malformed");
    }
    if (s.delivered < -1e-9 || s.radiated < -1e-9 || s.expected_gain < -1e-9) {
      bad("session #" + fmt(i) + " negative energy");
    }
    if (s.delivered > s.radiated + kEnergyTol) {
      bad("session #" + fmt(i) + " delivered " + fmt(s.delivered) +
          " J exceeds radiated " + fmt(s.radiated) + " J");
    }
    if (died_before(s.node, s.start)) {
      bad("session started on dead node " + fmt(std::size_t(s.node)));
    }
    node_sessions[s.node].emplace_back(s.start, s.end);
    radiated_sum += s.radiated;
  }
  for (auto& [node, spans] : node_sessions) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].first < spans[i - 1].second - 1e-6) {
        bad("overlapping sessions on node " + fmt(std::size_t(node)));
        break;
      }
    }
  }

  prev = 0.0;
  for (std::size_t i = 0; i < trace.escalations.size(); ++i) {
    const auto& e = trace.escalations[i];
    if (e.time < prev - 1e-9) bad("escalations out of order at #" + fmt(i));
    if (e.time < -1e-9 || e.time > horizon + 1e-6) {
      bad("escalation time " + fmt(e.time) + " outside horizon");
    }
    if (died_before(e.node, e.time)) {
      bad("escalation for dead node " + fmt(std::size_t(e.node)));
    }
    prev = e.time;
  }

  // Energy conservation against the depot ledgers (summed across the fleet:
  // the trace interleaves every vehicle's sessions).  The trace only records
  // completed sessions (one may be in flight at the horizon) and breakdown
  // damage is deliberately off-ledger, so the checks are one-sided.
  const mc::EnergyLedger& ledger = result.fleet_ledger;
  if (radiated_sum > ledger.radiated_total() + kEnergyTol +
                         1e-9 * std::abs(radiated_sum)) {
    bad("trace radiation " + fmt(radiated_sum) +
        " J exceeds ledger total " + fmt(ledger.radiated_total()) + " J");
  }
  if (ledger.radiated_total() > ledger.drawn_for_radiation + kEnergyTol) {
    bad("ledger radiated " + fmt(ledger.radiated_total()) +
        " J exceeds battery draw " + fmt(ledger.drawn_for_radiation) + " J");
  }

  if (result.min_final_level_fraction < -1e-9 ||
      result.max_final_level_fraction > 1.0 + 1e-9) {
    bad("final battery fraction outside [0, 1]: min " +
        fmt(result.min_final_level_fraction) + " max " +
        fmt(result.max_final_level_fraction));
  }
  if (result.alive_at_end > 0 &&
      result.min_final_level_fraction > result.max_final_level_fraction) {
    bad("min final fraction exceeds max");
  }
}

// ---------------------------------------------------------------------------
// Oracle 3: liveness — bounded event count, no starved requests.
// ---------------------------------------------------------------------------

void check_liveness(const ScenarioConfig& cfg, const ScenarioResult& result,
                    std::vector<std::string>& failures) {
  const auto bad = [&](const std::string& what) {
    fail(failures, "liveness: " + what);
  };

  // Generous per-mission bound; a kernel spin (events rescheduling each
  // other without advancing the protocol) blows far past it.
  const std::uint64_t bound = 2'000'000 + 20'000 * result.node_count;
  if (result.events_executed > bound) {
    bad("event kernel executed " + fmt(result.events_executed) +
        " events (bound " + fmt(bound) + ")");
  }

  // Starvation: unless escalation reports can be dropped by a fault, every
  // request CYCLE old enough must be answered by a session, an escalation,
  // or the node's death — even when the charger broke down permanently.
  // The grouping into cycles matters: an emergency upgrade of a
  // still-pending request re-logs a trace request, and the node
  // deliberately does not re-escalate when the cycle's escalation already
  // fired (see World::fire_emergency), so the guarantee attaches to the
  // first request of a pending cycle, not to every trace entry.
  if (cfg.faults.escalation_drop_prob > 0.0) return;
  const Seconds slack =
      cfg.world.patience + cfg.faults.escalation_delay_max + 3'600.0;

  // kind order breaks time ties so a same-instant answer satisfies the
  // request it answers; requests sort 1e-6 early to keep the old tolerance.
  enum Kind { kRequest = 0, kEscalation = 1, kClose = 2 };
  struct NodeEvent {
    Seconds time;
    int kind;
  };
  std::unordered_map<net::NodeId, std::vector<NodeEvent>> timelines;
  for (const auto& r : result.trace.requests) {
    timelines[r.node].push_back({r.time - 1e-6, kRequest});
  }
  for (const auto& e : result.trace.escalations) {
    timelines[e.node].push_back({e.time, kEscalation});
  }
  for (const auto& s : result.trace.sessions) {
    timelines[s.node].push_back({s.start, kClose});
  }
  for (const auto& d : result.trace.deaths) {
    timelines[d.node].push_back({d.time, kClose});
  }
  std::vector<std::pair<Seconds, net::NodeId>> starved;
  for (auto& [node, events] : timelines) {
    std::sort(events.begin(), events.end(),
              [](const NodeEvent& a, const NodeEvent& b) {
                return a.time != b.time ? a.time < b.time : a.kind < b.kind;
              });
    Seconds cycle_start = -1.0;  // < 0: no open cycle
    bool answered = false;
    for (const NodeEvent& event : events) {
      if (event.kind == kRequest) {
        if (cycle_start < 0.0) {
          cycle_start = event.time + 1e-6;
          answered = false;
        }
      } else if (event.kind == kEscalation) {
        answered = true;  // cycle stays pending but the sink was told
      } else {
        cycle_start = -1.0;  // session start / death closes the cycle
      }
    }
    if (cycle_start >= 0.0 && !answered && cycle_start + slack < cfg.horizon) {
      starved.push_back({cycle_start, node});
    }
  }
  if (!starved.empty()) {
    const auto worst = *std::min_element(starved.begin(), starved.end());
    bad("request from node " + fmt(std::size_t(worst.second)) + " at t=" +
        fmt(worst.first) + " never answered (starved protocol)");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Digest of the production run — bit-identical across thread counts.
// ---------------------------------------------------------------------------

std::uint64_t digest_result(const ScenarioResult& result) {
  Fnv fnv;
  const sim::Trace& t = result.trace;
  fnv.mix(std::uint64_t{t.requests.size()});
  for (const auto& r : t.requests) {
    fnv.mix(std::uint64_t{r.node});
    fnv.mix(r.time);
    fnv.mix(r.level_at_request);
    fnv.mix(std::uint64_t{r.emergency ? 1u : 0u});
  }
  fnv.mix(std::uint64_t{t.sessions.size()});
  for (const auto& s : t.sessions) {
    fnv.mix(std::uint64_t{s.node});
    fnv.mix(std::uint64_t(s.kind));
    fnv.mix(s.start);
    fnv.mix(s.end);
    fnv.mix(s.delivered);
    fnv.mix(s.radiated);
    fnv.mix(s.rf_observed);
  }
  fnv.mix(std::uint64_t{t.deaths.size()});
  for (const auto& d : t.deaths) {
    fnv.mix(std::uint64_t{d.node});
    fnv.mix(d.time);
    fnv.mix(std::uint64_t{d.request_outstanding ? 1u : 0u});
  }
  fnv.mix(std::uint64_t{t.escalations.size()});
  for (const auto& e : t.escalations) {
    fnv.mix(std::uint64_t{e.node});
    fnv.mix(e.time);
  }
  fnv.mix(std::uint64_t{result.detections.size()});
  for (const auto& d : result.detections) {
    fnv.mix(d.detector);
    fnv.mix(std::uint64_t{d.detection.has_value() ? 1u : 0u});
    if (d.detection.has_value()) {
      fnv.mix(std::uint64_t{d.detection->node});
      fnv.mix(d.detection->time);
    }
  }
  fnv.mix(std::uint64_t{result.keys.size()});
  for (const net::NodeId id : result.keys) fnv.mix(std::uint64_t{id});
  const fault::FaultStats& fs = result.fault_stats;
  fnv.mix(fs.mc_breakdowns);
  fnv.mix(fs.mc_repairs);
  fnv.mix(fs.node_burst_kills);
  fnv.mix(fs.phase_noise_windows);
  fnv.mix(fs.escalations_dropped);
  fnv.mix(fs.escalations_delayed);
  fnv.mix(fs.drift_nodes);
  fnv.mix(fs.absorbed);
  fnv.mix(fs.mc_handoffs);
  fnv.mix(std::uint64_t{result.alive_at_end});
  fnv.mix(result.plans_computed);
  fnv.mix(result.events_executed);
  return fnv.hash();
}

std::pair<ScenarioConfig, ChargerMode> resolve_overrides(
    const FuzzOverrides& overrides) {
  return resolve_overrides(default_scenario(), overrides);
}

std::pair<ScenarioConfig, ChargerMode> resolve_overrides(
    const ScenarioConfig& base, const FuzzOverrides& overrides) {
  ChargerMode mode = ChargerMode::Attack;
  const auto mode_entry = overrides.find("mode");
  if (mode_entry != overrides.end()) {
    const std::string& value = mode_entry->second;
    if (value == "benign") {
      mode = ChargerMode::Benign;
    } else if (value != "attack") {
      throw ConfigError("config key 'mode': expected attack|benign, got '" +
                        value + "'");
    }
  }
  return {apply_config(base, overrides, mode_entry), mode};
}

csa::Plan BuggyPlanner::plan(const csa::TideInstance& instance,
                             Rng& rng) const {
  csa::Plan plan = inner_.plan(instance, rng);
  if (plan.visits.size() >= 2) std::swap(plan.visits[0], plan.visits[1]);
  return plan;
}

FuzzOverrides generate_fuzz_overrides(Rng& rng) {
  FuzzOverrides o;

  const bool attack = rng.uniform() < 2.0 / 3.0;
  o["mode"] = attack ? "attack" : "benign";
  o["seed"] = fmt(std::size_t(rng.uniform_int(1, 1'000'000'000)));

  const std::size_t nodes = std::size_t(rng.uniform_int(16, 49));
  o["topology.node_count"] = fmt(nodes);
  // Hold the calibrated density (100 nodes on 400 m x 400 m).
  o["topology.region_size"] = fmt(40.0 * std::sqrt(double(nodes)));

  const double horizon = rng.uniform(0.25, 1.0) * 86'400.0;
  o["horizon"] = fmt(horizon);

  // Activity-dense missions: small batteries, an elevated sensing floor,
  // and initial charge just above the request threshold, so requests,
  // sessions, escalations, and exhaustion deaths all fit inside a short
  // horizon (defaults would leave a sub-day trace empty and every oracle
  // vacuous).
  o["topology.battery_capacity"] = fmt(rng.uniform(1'500.0, 4'000.0));
  o["world.sensing_power"] = fmt(rng.uniform(0.02, 0.08));
  const double level_min = rng.uniform(0.32, 0.5);
  o["world.initial_level_min"] = fmt(level_min);
  o["world.initial_level_max"] =
      fmt(std::min(1.0, level_min + rng.uniform(0.05, 0.3)));
  o["world.patience"] = fmt(rng.uniform(1'800.0, 10'800.0));

  // Scenario-frontier families: deployment shape, heterogeneous classes,
  // waypoint mobility, and k-coverage utility — each drawn independently so
  // plain, single-family, and compound missions all appear.
  if (rng.bernoulli(0.25)) {
    o["topology.deployment"] = "corridor";
    // 1-3 corridors always pass through the centered sink, so the network
    // stays connected without retrying topology generation.
    o["topology.corridor_count"] = fmt(std::size_t(rng.uniform_int(1, 3)));
  }
  if (rng.bernoulli(0.35)) {
    o["topology.class_count"] = fmt(std::size_t(rng.uniform_int(2, 4)));
    o["topology.class_capacity_ratio"] = fmt(rng.uniform(1.2, 3.0));
    o["topology.class_rate_ratio"] = fmt(rng.uniform(1.0, 2.5));
  }
  if (rng.bernoulli(0.35)) {
    o["mobility.fraction"] = fmt(rng.uniform(0.05, 0.3));
    o["mobility.interval"] = fmt(rng.uniform(600.0, 3'600.0));
    o["mobility.speed_min"] = fmt(rng.uniform(0.3, 1.0));
    o["mobility.speed_max"] = fmt(rng.uniform(1.0, 2.5));
    o["mobility.pause_max"] = fmt(rng.uniform(0.0, 1'200.0));
  }
  if (rng.bernoulli(0.35)) {
    o["coverage.k"] = fmt(std::size_t(rng.uniform_int(1, 4)));
    o["coverage.bonus"] = fmt(rng.uniform(0.2, 2.0));
    if (rng.bernoulli(0.5)) o["coverage.radius"] = fmt(rng.uniform(40.0, 90.0));
  }

  o["world.emergency_enabled"] = rng.bernoulli(0.5) ? "true" : "false";
  o["world.hardware_mtbf"] =
      rng.bernoulli(0.5) ? fmt(rng.uniform(5.0, 20.0) * 86'400.0) : "0";
  if (rng.bernoulli(0.3)) o["hardened_detectors"] = "true";

  if (attack) {
    o["attack.key_count"] = fmt(std::size_t(rng.uniform_int(4, 8)));
    static constexpr const char* kSpoofModes[] = {
        "phase-cancel", "partial-cancel", "silent-skip", "no-service"};
    o["attack.spoof_mode"] = kSpoofModes[rng.uniform_int(0, 3)];
  }

  // Policy family (DESIGN.md §15): adaptive attacker spoof-scheduling and
  // defender threshold re-tuning, so the differential oracle exercises the
  // bandit epoch arithmetic and the adaptive suite in both world modes.
  if (attack && rng.bernoulli(0.35)) {
    o["policy.attacker"] = rng.bernoulli(0.5) ? "eps-greedy" : "ucb";
    o["policy.epsilon"] = fmt(rng.uniform(0.0, 0.4));
    o["policy.ucb_c"] = fmt(rng.uniform(0.5, 3.0));
    o["policy.epoch"] = fmt(rng.uniform(0.1, 0.5) * horizon);
    o["policy.risk_weight"] = fmt(rng.uniform(0.0, 5.0));
    o["policy.risk_budget"] = fmt(std::size_t(rng.uniform_int(0, 6)));
  }
  if (rng.bernoulli(0.35)) {
    o["policy.defender"] = "adaptive";
    o["policy.defender_window"] = fmt(rng.uniform(0.1, 0.4) * horizon);
    o["policy.defender_quantile"] = fmt(rng.uniform(1.0, 4.0));
    o["policy.defender_min_samples"] = fmt(std::size_t(rng.uniform_int(1, 4)));
  }

  // Fleet mix: a quarter of missions run 2-3 territory-partitioned
  // chargers, so the differential and liveness oracles cover the fleet
  // planner, the per-cell agents, and (combined with the permanent-loss
  // fault below) the charger handoff path.
  if (rng.bernoulli(0.25)) {
    const std::size_t fleet = std::size_t(rng.uniform_int(2, 3));
    o["fleet.size"] = fmt(fleet);
    if (attack) {
      o["fleet.compromised"] =
          fmt(std::size_t(rng.uniform_int(0, std::int64_t(fleet) - 1)));
    }
  }

  // Fault mix: each kind independently enabled so single-fault and
  // compound-fault missions both appear.
  if (rng.bernoulli(0.6)) {
    o["faults.mc_breakdown_mtbf"] = fmt(rng.uniform(0.2, 1.5) * horizon);
    o["faults.mc_repair_mean"] = fmt(rng.uniform(600.0, 7'200.0));
    o["faults.mc_budget_loss"] = fmt(rng.uniform(0.0, 0.2));
    if (rng.bernoulli(0.3)) {
      o["faults.mc_permanent_at"] = fmt(rng.uniform(0.3, 0.9) * horizon);
    }
  }
  if (rng.bernoulli(0.5)) {
    o["faults.node_burst_mtbf"] = fmt(rng.uniform(0.3, 2.0) * horizon);
    o["faults.node_burst_size"] = fmt(std::size_t(rng.uniform_int(1, 4)));
  }
  if (rng.bernoulli(0.4)) {
    o["faults.phase_noise_mtbf"] = fmt(rng.uniform(0.3, 2.0) * horizon);
    o["faults.phase_noise_duration"] = fmt(rng.uniform(600.0, 7'200.0));
    o["faults.phase_noise_scale"] = fmt(rng.uniform(2.0, 50.0));
  }
  const double drop = rng.bernoulli(0.4) ? rng.uniform(0.0, 0.5) : 0.0;
  const double delay = rng.bernoulli(0.4) ? rng.uniform(0.0, 0.5) : 0.0;
  if (drop > 0.0) o["faults.escalation_drop_prob"] = fmt(drop);
  if (delay > 0.0) {
    o["faults.escalation_delay_prob"] = fmt(delay);
    o["faults.escalation_delay_max"] = fmt(rng.uniform(300.0, 3'600.0));
  }
  if (rng.bernoulli(0.4)) {
    o["faults.battery_drift_mtbf"] = fmt(rng.uniform(0.3, 2.0) * horizon);
    o["faults.battery_drift_power"] = fmt(rng.uniform(1e-3, 2e-2));
    if (rng.bernoulli(0.5)) {
      o["faults.battery_drift_duration"] = fmt(rng.uniform(1'800.0, 14'400.0));
    }
  }
  return o;
}

FuzzVerdict run_fuzz_trial(const FuzzOverrides& overrides,
                           bool inject_divergence) {
  FuzzVerdict verdict;
  try {
    const auto [cfg, mode] = resolve_overrides(overrides);

    const csa::CsaPlanner fast_planner;
    const BuggyPlanner buggy_planner;
    const csa::reference::NaiveCsaPlanner ref_planner;

    ScenarioConfig fast_cfg = cfg;
    fast_cfg.world.update_mode = sim::WorldUpdateMode::Fast;
    const csa::Planner* production =
        inject_divergence ? static_cast<const csa::Planner*>(&buggy_planner)
                          : &fast_planner;

    ScenarioConfig ref_cfg = cfg;
    ref_cfg.world.update_mode = sim::WorldUpdateMode::Reference;

    // run_mission owns the fleet routing and the attack-mode clamp of the
    // compromised index, so a fuzz replay, a CLI replay, and a service
    // request of the same overrides bind the attacker identically.
    const ScenarioResult fast = run_mission(fast_cfg, mode, production);
    const ScenarioResult ref = run_mission(ref_cfg, mode, &ref_planner);

    check_differential(fast, ref, verdict.failures);
    check_invariants(cfg, fast, "fast", verdict.failures);
    check_invariants(cfg, ref, "reference", verdict.failures);
    check_liveness(cfg, fast, verdict.failures);
    verdict.digest = digest_result(fast);
  } catch (const std::exception& e) {
    // A crash is a finding, not a campaign abort — the repro line survives.
    verdict.failures.clear();
    verdict.failures.push_back(std::string("exception: ") + e.what());
  }
  return verdict;
}

std::string format_repro(const FuzzOverrides& overrides) {
  std::string line;
  for (const auto& [key, value] : overrides) {
    if (!line.empty()) line += ';';
    line += key;
    line += '=';
    line += value;
  }
  return line;
}

FuzzOverrides parse_repro(const std::string& line) {
  FuzzOverrides overrides;
  const std::string_view text(line);
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(';', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = text.substr(begin, end - begin);
    if (!token.empty()) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 >= token.size()) {
        throw ConfigError("repro token '" + std::string(token) +
                          "': expected 'key=value'");
      }
      const auto [it, fresh] = overrides.try_emplace(
          std::string(token.substr(0, eq)), token.substr(eq + 1));
      if (!fresh) {
        throw ConfigError("repro line: duplicate key '" + it->first + "'");
      }
    }
    begin = end + 1;
  }
  if (overrides.empty()) throw ConfigError("repro line is empty");
  return overrides;
}

FuzzReport run_fuzz_campaign(std::size_t trials, std::uint64_t seed,
                             std::size_t threads, bool inject_divergence,
                             std::size_t max_failures) {
  // Trial generation is sequential from a fixed fork, so the campaign is a
  // pure function of (trials, seed) regardless of thread count.
  Rng gen = Rng(seed).fork("fuzz-gen");
  std::vector<FuzzOverrides> configs;
  configs.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    configs.push_back(generate_fuzz_overrides(gen));
  }

  runner::TrialOptions options;
  options.threads = threads;
  options.seed = seed;
  options.label = "fuzz";
  const std::vector<FuzzVerdict> verdicts = runner::run_trials(
      std::span<const FuzzOverrides>(configs),
      [inject_divergence](const FuzzOverrides& overrides, Rng&) {
        return run_fuzz_trial(overrides, inject_divergence);
      },
      options);

  FuzzReport report;
  report.trials = trials;
  Fnv fold;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    fold.mix(verdicts[i].digest);
    if (verdicts[i].ok()) continue;
    ++report.failed_trials;
    if (report.repro_lines.size() < max_failures) {
      report.repro_lines.push_back(format_repro(configs[i]));
      report.first_failures.push_back(verdicts[i].failures.front());
    }
  }
  report.digest = fold.hash();
  return report;
}

}  // namespace wrsn::analysis
