#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace wrsn::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Slack applied when validating analytically-scheduled crossings, to absorb
// floating-point drift between the scheduled time and the extrapolated level.
constexpr Joules kLevelEpsilon = 1e-6;

// Kernel events a world keeps pending besides its node timers: a few per
// vehicle, the fault plan's outages and events, and one mobility epoch.
constexpr std::size_t kKernelEventReserve = 64;

}  // namespace

void WorldParams::validate() const {
  // Checked first: an infinite or NaN value passes the ordered comparisons
  // below (NaN fails none of them).
  const std::pair<const char*, double> reals[] = {
      {"request_threshold", request_threshold},
      {"min_request_gap", min_request_gap},
      {"patience", patience},
      {"charge_target_fraction", charge_target_fraction},
      {"benign_gain_mean", benign_gain_mean},
      {"benign_gain_cv", benign_gain_cv},
      {"initial_level_min", initial_level_min},
      {"initial_level_max", initial_level_max},
      {"emergency_fraction", emergency_fraction},
      {"emergency_patience", emergency_patience},
      {"hardware_mtbf", hardware_mtbf},
      {"routing.hop_cost", routing.hop_cost},
  };
  for (const auto& [name, value] : reals) {
    if (!std::isfinite(value)) {
      throw ConfigError(std::string("world ") + name + " must be finite");
    }
  }
  if (request_threshold <= 0.0 || request_threshold >= 1.0) {
    throw ConfigError("request_threshold must be in (0, 1)");
  }
  if (min_request_gap < 0.0) throw ConfigError("min_request_gap < 0");
  if (patience <= 0.0) throw ConfigError("patience must be > 0");
  if (charge_target_fraction <= request_threshold ||
      charge_target_fraction > 1.0) {
    throw ConfigError(
        "charge_target_fraction must be in (request_threshold, 1]");
  }
  if (benign_gain_mean <= 0.0 || benign_gain_mean > 1.0) {
    throw ConfigError("benign_gain_mean must be in (0, 1]");
  }
  if (benign_gain_cv < 0.0) throw ConfigError("benign_gain_cv < 0");
  if (initial_level_min <= 0.0 || initial_level_max > 1.0 ||
      initial_level_min > initial_level_max) {
    throw ConfigError("initial level range must satisfy 0 < min <= max <= 1");
  }
  if (emergency_fraction <= 0.0 || emergency_fraction >= request_threshold) {
    throw ConfigError(
        "emergency_fraction must be in (0, request_threshold)");
  }
  if (emergency_patience <= 0.0) throw ConfigError("emergency_patience <= 0");
  if (hardware_mtbf < 0.0) throw ConfigError("hardware_mtbf < 0");
  if (routing.hop_cost <= 0.0) {
    throw ConfigError("routing.hop_cost must be > 0");
  }
  charging.validate();
  drain.radio.validate();
  mobility.validate();
  coverage.validate();
}

World::~World() {
  WRSN_OBS_ADD(kWorldDeaths, double(deaths_tally_));
  WRSN_OBS_ADD(kWorldRequests, double(requests_tally_));
  WRSN_OBS_ADD(kWorldEscalations, double(escalations_tally_));
  WRSN_OBS_ADD(kNetRoutingRepairs, double(update_stats_.repairs));
  WRSN_OBS_ADD(kNetRoutingRebuilds, double(update_stats_.rebuilds));
  WRSN_OBS_ADD(kNetDrainReschedules, double(update_stats_.reschedules));
}

World::World(Simulator& sim, net::Network network, const WorldParams& params,
             Rng rng)
    : sim_(sim),
      network_(std::move(network)),
      params_(params),
      charging_model_(params.charging),
      nominal_dc_(charging_model_.docked_dc_power()),
      rng_(std::move(rng)),
      timers_([this](net::NodeId id, NodeTimer kind) { fire_timer(id, kind); }),
      timer_attachment_(sim, timers_) {
  params_.validate();

  const std::size_t n = network_.size();
  Rng init_rng = rng_.fork("init-levels");
  level_.reserve(n);
  capacity_.reserve(n);
  believed_.reserve(n);
  for (const net::SensorSpec& spec : network_.nodes()) {
    WRSN_REQUIRE(spec.battery_capacity > 0.0,
                 "battery capacity must be positive");
    const double frac =
        init_rng.uniform(params_.initial_level_min, params_.initial_level_max);
    capacity_.push_back(spec.battery_capacity);
    level_.push_back(frac * spec.battery_capacity);
    believed_.push_back(frac * spec.battery_capacity);
  }
  sync_time_.assign(n, sim_.now());
  drain_.assign(n, 0.0);
  charge_.assign(n, 0.0);
  self_discharge_.assign(n, 0.0);
  cold_.assign(n, NodeCold{});
  alive_count_ = n;
  alive_mask_.assign(n, true);
  pending_ids_.reserve(n);

  // Size the node timer queue, the routing scratch, and the persistent
  // buffers so the steady-state death path never allocates.  The kernel's
  // own heap holds only what is not a node's: vehicle, fault and mobility
  // events.
  timers_.reset(n);
  scratch_.reserve(n);
  sim_.reserve(kKernelEventReserve);
  drains_.reserve(n);

  // Background hardware failures: each node draws an exponential lifetime,
  // bulk-loaded in node order with one heapify.
  if (params_.hardware_mtbf > 0.0) {
    Rng failure_rng = rng_.fork("hardware-failures");
    std::vector<Seconds> failure_at(n);
    for (Seconds& at : failure_at) {
      at = sim_.now() + failure_rng.exponential(1.0 / params_.hardware_mtbf);
    }
    sim_.load_timers(NodeTimer::Hardware, failure_at);
  }

  // k-coverage utility: count each node's alive coverers up front; deaths
  // decrement incrementally, mobility epochs rebuild.
  if (params_.coverage.k > 0) {
    coverage_radius_ = params_.coverage.radius > 0.0 ? params_.coverage.radius
                                                     : network_.comm_range();
    coverage_.build(network_, alive_mask_, coverage_radius_);
  }

  // Waypoint mobility: forked streams (fork does not perturb the parent, so
  // the init-levels / hardware-failures sequences above are unchanged when
  // mobility is off OR on), epochs batched on the event kernel.
  if (params_.mobility.fraction > 0.0) {
    mobility_ = MobilityModel(params_.mobility, network_, rng_.fork("mobility"));
    if (mobility_.enabled()) {
      sim_.schedule_at(sim_.now() + params_.mobility.interval,
                       [this] { fire_mobility_epoch(); });
    }
  }

  recompute_routing();
}

World::NodeCold& World::cold(net::NodeId id) {
  WRSN_REQUIRE(id < cold_.size(), "node id out of range");
  return cold_[id];
}

const World::NodeCold& World::cold(net::NodeId id) const {
  WRSN_REQUIRE(id < cold_.size(), "node id out of range");
  return cold_[id];
}

bool World::alive(net::NodeId id) const {
  WRSN_REQUIRE(id < cold_.size(), "node id out of range");
  return alive_mask_.test(id);
}

Joules World::level(net::NodeId id) const {
  if (!alive(id)) return 0.0;
  const Seconds dt = sim_.now() - sync_time_[id];
  const Joules delta = net_drain(id) * dt;
  return std::clamp(level_[id] - delta, 0.0, capacity_[id]);
}

double World::level_fraction(net::NodeId id) const {
  return level(id) / capacity_[id];
}

Joules World::believed_level(net::NodeId id) const {
  if (!alive(id)) return 0.0;
  const Seconds dt = sim_.now() - sync_time_[id];
  return std::clamp(believed_[id] - drain_[id] * dt, 0.0, capacity_[id]);
}

Watts World::drain_rate(net::NodeId id) const {
  WRSN_REQUIRE(id < drain_.size(), "node id out of range");
  return drain_[id];
}

Watts World::charge_rate(net::NodeId id) const {
  WRSN_REQUIRE(id < charge_.size(), "node id out of range");
  return charge_[id];
}

Seconds World::predicted_death(net::NodeId id) const {
  if (!alive(id)) return sim_.now();
  const Watts net = net_drain(id);
  if (net <= 0.0) return kInf;
  return sim_.now() + level(id) / net;
}

Seconds World::predicted_request(net::NodeId id) const {
  const NodeCold& c = cold(id);
  if (!alive_mask_.test(id) || c.pending || c.in_service) return kInf;
  const Joules threshold = params_.request_threshold * capacity_[id];
  const Joules believed = believed_level(id);
  if (believed <= threshold) {
    return std::max(sim_.now(), c.cooldown_until);
  }
  // The believed level declines at the node's measured consumption rate
  // (harvest is only credited at service end).
  if (drain_[id] <= 0.0) return kInf;
  const Seconds crossing = sim_.now() + (believed - threshold) / drain_[id];
  return std::max(crossing, c.cooldown_until);
}

bool World::has_pending_request(net::NodeId id) const {
  return cold(id).pending;
}

PendingRequest World::pending_request(net::NodeId id) const {
  const NodeCold& c = cold(id);
  WRSN_REQUIRE(alive_mask_.test(id) && c.pending,
               "node has no pending request");
  return {id, c.requested_at, c.escalation_deadline, c.pending_emergency};
}

std::vector<PendingRequest> World::pending_requests() const {
  std::vector<PendingRequest> pending;
  pending.reserve(pending_ids_.size());
  for (const net::NodeId id : pending_ids_) {
    pending.push_back(pending_request(id));
  }
  return pending;
}

std::size_t World::sink_connected_count() const {
  return net::count_sink_connected(network_, alive_mask_);
}

Seconds World::planned_session_duration(Joules deficit) const {
  WRSN_REQUIRE(deficit >= 0.0, "negative deficit");
  return deficit / (nominal_dc_power() * params_.benign_gain_mean);
}

Joules World::expected_session_gain(Seconds duration) const {
  WRSN_REQUIRE(duration >= 0.0, "negative duration");
  return nominal_dc_power() * params_.benign_gain_mean * duration;
}

double World::draw_genuine_gain_factor() {
  // Clamp bounds sit ~2.6 sigma out, so the draw stays effectively
  // unbiased: E[factor] ~= benign_gain_mean, which is what keeps the
  // fleet-calibrated expectation honest for benign service.  Factors above
  // 1 are good-alignment sessions where harvest beats the mean-calibrated
  // rate; the charger meters its output, so a low factor just means a
  // longer stay, not a short-changed node.
  const double sigma = params_.benign_gain_mean * params_.benign_gain_cv;
  const double factor = rng_.normal(params_.benign_gain_mean, sigma);
  return std::clamp(factor, 0.4, 1.6);
}

bool World::set_charge_input(net::NodeId id, Watts dc) {
  WRSN_REQUIRE(dc >= 0.0, "negative charge input");
  if (!alive(id)) return false;
  resync(id);
  charge_[id] = dc;
  reschedule(id);
  return true;
}

void World::note_service_started(net::NodeId id) {
  NodeCold& c = cold(id);
  if (!alive_mask_.test(id)) return;
  c.in_service = true;
  if (c.pending) {
    c.pending = false;
    c.pending_emergency = false;
    pending_erase(id);
    sim_.disarm_timer(id, NodeTimer::Escalation);
  }
}

void World::note_service_ended(net::NodeId id, Joules expected,
                               Joules delivered) {
  WRSN_REQUIRE(expected >= 0.0 && delivered >= 0.0,
               "negative session energy");
  (void)delivered;  // only the trace sees the truth; the node cannot
  NodeCold& c = cold(id);
  c.in_service = false;
  if (!alive_mask_.test(id)) return;
  c.cooldown_until = sim_.now() + params_.min_request_gap;
  resync(id);
  // The node trusts the service: it credits the fleet-calibrated EXPECTED
  // gain, whatever truly arrived.  Honest service keeps the belief near the
  // truth (expectations are unbiased); a spoofed session inflates it by the
  // whole expected gain — the node then schedules its next request far in
  // the future and dies silently first.
  believed_[id] = std::min(believed_[id] + expected, capacity_[id]);
  reschedule(id);
}

void World::add_request_listener(std::function<void(net::NodeId)> listener) {
  request_listeners_.push_back(std::move(listener));
}

void World::add_death_listener(std::function<void(net::NodeId)> listener) {
  death_listeners_.push_back(std::move(listener));
}

void World::add_escalation_listener(
    std::function<void(net::NodeId)> listener) {
  escalation_listeners_.push_back(std::move(listener));
}

void World::resync(net::NodeId id) {
  const Seconds now = sim_.now();
  const Seconds dt = now - sync_time_[id];
  if (dt > 0.0 && alive_mask_.test(id)) {
    const Joules delta = net_drain(id) * dt;
    if (delta >= 0.0) {
      battery_discharge(id, delta);
    } else {
      battery_charge(id, -delta);  // clamped at capacity
    }
    // The node's own estimate drains at the consumption rate; harvested
    // energy is only credited when a service ends (note_service_ended).
    believed_[id] = std::max(0.0, believed_[id] - drain_[id] * dt);
  }
  sync_time_[id] = now;
}

void World::reschedule(net::NodeId id) {
  const NodeCold& c = cold_[id];
  if (!alive_mask_.test(id)) return;
  WRSN_ASSERT(sync_time_[id] == sim_.now());

  // Each crossing re-keys its timer in place; the arms draw their seqs in
  // the order death, request, emergency.
  const Watts net = net_drain(id);
  if (net > 0.0) {
    sim_.arm_timer(id, NodeTimer::Death, sim_.now() + level_[id] / net);
  } else {
    sim_.disarm_timer(id, NodeTimer::Death);
  }

  // Request-arming crossing (believed level).
  const Seconds req_at = predicted_request(id);
  if (req_at < kInf) {
    sim_.arm_timer(id, NodeTimer::Request, req_at);
  } else {
    sim_.disarm_timer(id, NodeTimer::Request);
  }

  // Hardware low-voltage comparator (true-level crossing).
  if (params_.emergency_enabled) {
    const Joules em_level = params_.emergency_fraction * capacity_[id];
    if (net > 0.0 && level_[id] > em_level) {
      sim_.arm_timer(id, NodeTimer::Emergency,
                     sim_.now() + (level_[id] - em_level) / net);
    } else if (level_[id] <= em_level && !c.pending && !c.in_service) {
      // The comparator output is level-triggered: it (re)asserts as soon as
      // the node may speak again, even straight out of a service cooldown.
      sim_.arm_timer(id, NodeTimer::Emergency,
                     std::max(sim_.now(), c.cooldown_until));
    } else {
      sim_.disarm_timer(id, NodeTimer::Emergency);
    }
  }
}

void World::retire_node(net::NodeId id) {
  charge_[id] = 0.0;
  alive_mask_.reset(id);
  --alive_count_;
  // Nodes the dead one covered lose a coverer.  Exact integer update in
  // death order, so Fast and Reference (identical death sequences) agree.
  if (params_.coverage.k > 0) coverage_.on_death(network_, id);
  if (cold_[id].pending) pending_erase(id);
  // A dead node never fires again.
  sim_.disarm_timers(id);
}

void World::fire_timer(net::NodeId id, NodeTimer kind) {
  switch (kind) {
    case NodeTimer::Death:
      fire_death(id);
      return;
    case NodeTimer::Request:
      fire_request(id);
      return;
    case NodeTimer::Emergency:
      fire_emergency(id);
      return;
    case NodeTimer::Escalation:
      fire_escalation(id);
      return;
    case NodeTimer::Hardware:
      fire_hardware_failure(id);
      return;
  }
}

void World::fire_death(net::NodeId id) {
  const NodeCold& c = cold_[id];
  if (!alive_mask_.test(id)) return;
  resync(id);
  if (level_[id] > kLevelEpsilon) {
    // Rates changed between scheduling and firing; reschedule instead.
    reschedule(id);
    return;
  }

  retire_node(id);
  ++deaths_tally_;
  trace_.deaths.push_back({sim_.now(), id, c.pending});
  WRSN_LOG(Debug) << "node " << id << " died at t=" << sim_.now()
                  << (c.pending ? " (request outstanding)" : "");

  on_topology_change(id);
  for (const auto& listener : death_listeners_) listener(id);
}

void World::fire_hardware_failure(net::NodeId id) {
  if (!alive_mask_.test(id)) return;
  kill_node_hardware(id);
}

void World::kill_node_hardware(net::NodeId id) {
  WRSN_ASSERT(alive_mask_.test(id));
  resync(id);
  battery_discharge(id, level_[id]);  // component fault: node bricks
  retire_node(id);
  ++deaths_tally_;
  trace_.deaths.push_back({sim_.now(), id, cold_[id].pending});
  WRSN_LOG(Debug) << "node " << id << " hardware failure at t=" << sim_.now();
  on_topology_change(id);
  for (const auto& listener : death_listeners_) listener(id);
}

bool World::inject_hardware_failure(net::NodeId id) {
  if (!alive(id)) return false;
  kill_node_hardware(id);
  return true;
}

void World::fire_mobility_epoch() {
  // A dead network has nothing left to route or drain; stop the epoch chain
  // so run_all() terminates on worlds with mobility enabled.
  if (alive_count_ == 0) return;
  mobility_.advance_to(sim_.now(), network_);
  network_.rebuild_adjacency();
  if (params_.coverage.k > 0) {
    coverage_.build(network_, alive_mask_, coverage_radius_);
  }
  // The mode-dispatching seam: Fast rebuilds routing in place and resyncs
  // only bitwise-drain-changed nodes; Reference rebuilds into fresh vectors
  // and resyncs everyone.  Positions, adjacency, and coverage are pure
  // functions of (streams, t) and identical across modes, so the epoch
  // preserves the Fast == Reference equivalence exactly like a death does.
  recompute_routing();
  ++update_stats_.mobility_epochs;
  sim_.schedule_at(sim_.now() + params_.mobility.interval,
                   [this] { fire_mobility_epoch(); });
}

double World::coverage_weight(net::NodeId id) const {
  const std::size_t k = params_.coverage.k;
  if (k == 0) return 1.0;
  const std::size_t covering = coverage_.coverers(id);
  if (covering >= k) return 1.0;
  return 1.0 + params_.coverage.bonus * double(k - covering) / double(k);
}

bool World::set_self_discharge(net::NodeId id, Watts power) {
  WRSN_REQUIRE(power >= 0.0, "negative self-discharge power");
  if (!alive(id)) return false;
  resync(id);
  self_discharge_[id] = power;
  reschedule(id);
  return true;
}

Watts World::self_discharge(net::NodeId id) const {
  WRSN_REQUIRE(id < self_discharge_.size(), "node id out of range");
  return self_discharge_[id];
}

void World::set_escalation_interceptor(
    std::function<EscalationDecision(net::NodeId)> interceptor) {
  escalation_interceptor_ = std::move(interceptor);
}

void World::fire_request(net::NodeId id) {
  const NodeCold& c = cold_[id];
  if (!alive_mask_.test(id) || c.pending || c.in_service) return;
  if (sim_.now() < c.cooldown_until) return;
  resync(id);
  const Joules threshold = params_.request_threshold * capacity_[id];
  if (believed_level(id) > threshold + kLevelEpsilon) {
    reschedule(id);  // level rose (charging) before the event fired
    return;
  }
  issue_request(id, /*emergency=*/false);
}

void World::fire_emergency(net::NodeId id) {
  NodeCold& c = cold_[id];
  if (!alive_mask_.test(id) || c.in_service) return;
  if (sim_.now() < c.cooldown_until) {
    // Re-arm after the rate-limit gap: the comparator output is level-
    // triggered, so it re-asserts as soon as the node may speak again.
    sim_.arm_timer(id, NodeTimer::Emergency, c.cooldown_until);
    return;
  }
  resync(id);
  const Joules em_level = params_.emergency_fraction * capacity_[id];
  if (level_[id] > em_level + kLevelEpsilon) {
    reschedule(id);
    return;
  }
  if (c.pending) {
    // Upgrade the outstanding request to an emergency: tighten escalation.
    if (!c.pending_emergency) {
      c.pending_emergency = true;
      // Only tighten when the emergency deadline is actually earlier; the
      // original deadline may already be in the past (escalation fired long
      // ago on a starved request), and must not be rescheduled.
      const Seconds tightened = sim_.now() + params_.emergency_patience;
      if (tightened < c.escalation_deadline) {
        c.escalation_deadline = tightened;
        sim_.arm_timer(id, NodeTimer::Escalation, c.escalation_deadline);
      }
      ++requests_tally_;
      trace_.requests.push_back(
          {sim_.now(), id, level_[id], /*emergency=*/true});
      for (const auto& listener : request_listeners_) listener(id);
    }
    return;
  }
  issue_request(id, /*emergency=*/true);
}

void World::issue_request(net::NodeId id, bool emergency) {
  NodeCold& c = cold_[id];
  c.pending = true;
  c.pending_emergency = emergency;
  c.escalation_deferred = false;  // the delay-once budget is per request
  c.requested_at = sim_.now();
  pending_insert(id);
  const Seconds patience =
      emergency ? params_.emergency_patience : params_.patience;
  c.escalation_deadline = sim_.now() + patience;
  ++requests_tally_;
  trace_.requests.push_back({sim_.now(), id, level_[id], emergency});
  sim_.arm_timer(id, NodeTimer::Escalation, c.escalation_deadline);

  for (const auto& listener : request_listeners_) listener(id);
}

void World::fire_escalation(net::NodeId id) {
  NodeCold& c = cold_[id];
  if (!alive_mask_.test(id) || !c.pending) return;
  if (escalation_interceptor_ && !c.escalation_deferred) {
    const EscalationDecision decision = escalation_interceptor_(id);
    if (decision.action == EscalationAction::Drop) {
      // Uplink lost the report; the node never re-escalates this request.
      return;
    }
    if (decision.action == EscalationAction::Delay) {
      // Defer the report once.  The node's escalation_deadline is left
      // untouched: the tamper lives in the base-station reporting path, not
      // in the node's protocol state.  Never scheduled into the past.
      c.escalation_deferred = true;
      sim_.arm_timer(id, NodeTimer::Escalation,
                     sim_.now() + std::max(0.0, decision.delay));
      return;
    }
  }
  ++escalations_tally_;
  trace_.escalations.push_back({sim_.now(), id});
  WRSN_LOG(Debug) << "escalation for node " << id << " at t=" << sim_.now();
  for (const auto& listener : escalation_listeners_) listener(id);
}

void World::pending_insert(net::NodeId id) {
  const auto it =
      std::lower_bound(pending_ids_.begin(), pending_ids_.end(), id);
  WRSN_ASSERT(it == pending_ids_.end() || *it != id);
  pending_ids_.insert(it, id);
}

void World::pending_erase(net::NodeId id) {
  const auto it =
      std::lower_bound(pending_ids_.begin(), pending_ids_.end(), id);
  WRSN_ASSERT(it != pending_ids_.end() && *it == id);
  pending_ids_.erase(it);
}

void World::recompute_routing() {
  if (params_.update_mode == WorldUpdateMode::Reference) {
    recompute_routing_reference();
    return;
  }
  net::rebuild_routing_tree(network_, alive_mask_, params_.routing, routing_,
                            scratch_);
  refresh_loads_and_drains();
  apply_drain_changes();
}

void World::on_topology_change(net::NodeId dead) {
  if (params_.update_mode == WorldUpdateMode::Reference) {
    recompute_routing_reference();
    return;
  }
  const std::size_t detached = net::repair_routing_after_death(
      network_, alive_mask_, params_.routing, dead, routing_, scratch_);
  ++update_stats_.repairs;
  WRSN_OBS_OBSERVE(kNetRepairAffectedFraction,
                   double(detached) / double(cold_.size()));
  // An unreachable node routed no traffic, so its death changes no loads
  // and no drains.
  if (detached == 0) return;
  refresh_loads_and_drains();
  apply_drain_changes();
}

void World::refresh_loads_and_drains() {
  net::recompute_loads(network_, routing_, alive_mask_, loads_);
  net::recompute_drain_rates(network_, routing_, loads_, params_.drain,
                             drains_);
}

void World::apply_drain_changes() {
  // Only nodes whose recomputed drain differs get touched.  The comparison
  // is exact (bitwise): unaffected nodes' loads are summed in the same order
  // as a full rebuild (settle-order merge preserves it), so their drains come
  // out bit-identical and their pending events remain valid as-is.
  alive_mask_.for_each_set([&](std::size_t i) {
    const auto id = static_cast<net::NodeId>(i);
    if (drain_[id] == drains_[id]) return;
    resync(id);
    drain_[id] = drains_[id];
    reschedule(id);
    ++update_stats_.reschedules;
  });
}

void World::recompute_routing_reference() {
  // The seed code path, retained as the executable spec for the incremental
  // updater: fresh mask copy, full Dijkstra into fresh vectors, and an
  // unconditional resync+reschedule of every alive node.
  const Bitmap mask = alive_mask_;
  routing_ = net::build_routing_tree(network_, mask, params_.routing);
  loads_ = net::compute_loads(network_, routing_, mask);
  const std::vector<Watts> drains =
      net::compute_drain_rates(network_, routing_, loads_, params_.drain);

  for (net::NodeId id = 0; id < cold_.size(); ++id) {
    if (!mask.test(id)) continue;
    resync(id);
    drain_[id] = drains[id];
    reschedule(id);
    ++update_stats_.reschedules;
  }
  ++update_stats_.rebuilds;
}

}  // namespace wrsn::sim
