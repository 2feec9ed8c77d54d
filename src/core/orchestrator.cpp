#include "core/orchestrator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/theory.hpp"
#include "obs/metrics.hpp"

namespace wrsn::csa {

void AttackParams::validate() const {
  charger.validate();
  spoofing.validate();
  if (window_margin < 0.0) throw ConfigError("window_margin < 0");
  if (lookahead < 0.0) throw ConfigError("lookahead < 0");
  if (comm_antenna_offset <= 0.0) {
    throw ConfigError("comm_antenna_offset must be > 0");
  }
  if (battery_reserve_fraction < 0.0 || battery_reserve_fraction >= 1.0) {
    throw ConfigError("battery_reserve_fraction must be in [0, 1)");
  }
  if (campaign_deadline <= 0.0) throw ConfigError("campaign_deadline <= 0");
  if (partial_leak_ratio < 0.0 || partial_leak_ratio >= 1.0) {
    throw ConfigError("partial_leak_ratio must be in [0, 1)");
  }
  if (campaign_slack <= 0.0 || campaign_slack > 1.0) {
    throw ConfigError("campaign_slack must be in (0, 1]");
  }
}

CsaStrategy::CsaStrategy(sim::World& world, const AttackParams& params,
                         const Planner& planner, Rng rng,
                         const policy::AttackPolicyParams& policy)
    : world_(world),
      params_(params),
      planner_(planner),
      rng_(std::move(rng)) {
  params_.validate();
  emitter_.emplace(world_.charging_model(), params_.spoofing);
  // fork() is const — the policy stream never advances rng_, so the static
  // policy (which consumes nothing) leaves every existing draw sequence,
  // and therefore every pre-policy result, bit-identical.
  policy_ = policy::make_attack_policy(policy, rng_.fork("policy"),
                                       params_.pace_limit,
                                       params_.partial_leak_ratio);
}

CsaStrategy::~CsaStrategy() {
  WRSN_OBS_ADD(kCsaReplans, double(plans_computed_));
}

void CsaStrategy::on_start(mc::Vehicle& vehicle) {
  // Survey the network once and lock in the key-target set (the attacker's
  // reconnaissance phase).  Candidates come ranked by structural impact;
  // the attacker keeps only targets it can actually exhaust before the
  // campaign ends: the node must request (predictable from its drain rate)
  // and then burn through its remaining ~threshold-level charge in time.
  net::KeyNodeConfig wide = params_.key_selection;
  wide.max_count = world_.network().size();
  const std::vector<net::NodeId> candidates =
      net::select_key_nodes(world_.network(), world_.loads(), wide);

  // Taking more targets than the kill-pacing throughput can cover would
  // force the last-chance override constantly and blow the death-rate
  // cover; cap the selection at the stealth throughput.
  const std::size_t target_cap =
      std::min<std::size_t>(params_.key_selection.max_count,
                            theory::max_paced_kills(params_.campaign_deadline,
                                                    params_.pace_limit,
                                                    params_.pace_window));

  const Seconds deadline = params_.campaign_deadline * params_.campaign_slack;
  for (const net::NodeId id : candidates) {
    if (key_targets_.size() >= target_cap) break;
    // Can only spoof nodes it services.
    if (!vehicle.in_territory(id)) continue;
    const Seconds request_at = world_.has_pending_request(id)
                                   ? world_.simulator().now()
                                   : world_.predicted_request(id);
    const Joules level_at_spoof = world_.params().request_threshold *
                                  world_.network().node(id).battery_capacity;
    if (!theory::killable_within(request_at, world_.params().patience,
                                 level_at_spoof, world_.drain_rate(id),
                                 deadline)) {
      continue;  // not exhaustible inside the campaign
    }
    key_targets_.push_back(id);
  }
  if (key_targets_.empty()) {
    // No candidate is cleanly exhaustible inside the campaign; attack the
    // highest-impact ones anyway (partial exhaustion beats no attack).
    for (const net::NodeId id : candidates) {
      if (key_targets_.size() >= std::max<std::size_t>(target_cap, 1)) break;
      if (!vehicle.in_territory(id)) continue;
      key_targets_.push_back(id);
    }
  }
  key_set_.insert(key_targets_.begin(), key_targets_.end());
  log(LogLevel::Info) << "CSA attacker selected " << key_targets_.size()
                      << " key targets";
}

void CsaStrategy::observe_death(net::NodeId id) {
  // Every death is visible in the base-station logs the attacker operates
  // under; deaths it did not schedule (hardware failures, starvation) join
  // the pacing window so kills keep hiding in the total rate.
  const bool own_kill = spoof_killed_.count(id) != 0;
  if (!own_kill) {
    kill_schedule_.push_back(world_.simulator().now());
  }
  policy_->observe_death(world_.simulator().now(), own_kill);
}

void CsaStrategy::fault_phase_noise(double scale) {
  WRSN_REQUIRE(scale > 0.0, "phase noise scale must be > 0");
  wpt::SpoofingParams degraded = params_.spoofing;
  degraded.phase_jitter_sigma *= scale;
  emitter_.emplace(world_.charging_model(), degraded);
}

std::size_t CsaStrategy::kill_window_count(Seconds death_at) const {
  // Simulate the defender's trailing window: after adding this kill, the
  // worst window of length pace_window over deaths (scheduled kills +
  // observed background deaths).  Candidate window ends are the entry times
  // themselves plus the new kill.  The static policy's paced-out verdict is
  // `count > pace_limit` — exactly the pre-policy arithmetic.
  const auto count_in = [&](Seconds end) {
    const Seconds begin = end - params_.pace_window;
    std::size_t n = (death_at >= begin && death_at <= end) ? 1 : 0;
    for (const Seconds t : kill_schedule_) {
      if (t >= begin && t <= end) ++n;
    }
    return n;
  };
  std::size_t worst = count_in(death_at + params_.pace_window);
  worst = std::max(worst, count_in(death_at));
  for (const Seconds t : kill_schedule_) {
    if (t >= death_at && t <= death_at + params_.pace_window) {
      worst = std::max(worst, count_in(t));
    }
  }
  return worst;
}

policy::SpoofDecision CsaStrategy::spoof_decision(net::NodeId id) {
  // Non-targets and NoService campaigns never spoof; both short-circuit
  // before the policy (they are mode structure, not scheduling).
  if (!is_key(id)) return {false, params_.partial_leak_ratio};
  if (params_.spoof_mode == SpoofMode::NoService) {
    return {false, params_.partial_leak_ratio};
  }
  const Watts drain = world_.drain_rate(id);
  // No measurable drain means no death to pace; spoof unconditionally.
  if (drain <= 0.0) return {true, params_.partial_leak_ratio};

  const Seconds now = world_.simulator().now();
  policy::SpoofQuery query;
  query.now = now;
  query.death_at = now + world_.level(id) / drain;
  query.window_deaths = kill_window_count(query.death_at);

  // Deferring means serving genuinely and killing on the node's NEXT
  // request; if that redo cycle no longer fits inside the campaign, this is
  // the last chance and every policy takes the kill.
  const Joules capacity = world_.network().node(id).battery_capacity;
  const Seconds redo_cycle = theory::request_cycle(
      capacity, world_.params().charge_target_fraction,
      world_.params().request_threshold, drain);
  const Seconds kill_time =
      theory::kill_time(world_.params().request_threshold * capacity, drain);
  query.last_chance = now + redo_cycle + kill_time >
                      params_.campaign_deadline * params_.campaign_slack;
  query.keys_killed = spoof_killed_.size();
  query.keys_total = key_targets_.size();
  return policy_->decide(query);
}

void CsaStrategy::build_instance(const mc::Vehicle& vehicle,
                                 TideInstance& instance) const {
  const Seconds now = world_.simulator().now();
  const Watts nominal = world_.nominal_dc_power();
  WRSN_ASSERT(nominal > 0.0);

  instance.start_position = vehicle.position();
  instance.start_time = now;
  instance.speed = vehicle.charger().params().speed;
  instance.stops.clear();

  const auto believed_deficit = [&](net::NodeId id) {
    const Joules capacity = world_.network().node(id).battery_capacity;
    return std::max(
        0.0, world_.params().charge_target_fraction * capacity -
                 world_.believed_level(id));
  };

  // Pending requests: hard-deadline stops.  Key nodes become spoof targets;
  // the rest become genuine-utility stops.
  for (const net::NodeId node : world_.pending_nodes()) {
    if (!vehicle.in_territory(node)) continue;
    if (params_.spoof_mode == SpoofMode::NoService && is_key(node)) {
      continue;  // naive variant: starve key nodes outright
    }
    const sim::PendingRequest req = world_.pending_request(node);
    Stop stop;
    stop.node = node;
    stop.position = world_.network().node(node).position;
    stop.window_open = now;
    stop.window_close =
        std::max(now, req.escalation_deadline - params_.window_margin);
    stop.service_time =
        world_.planned_session_duration(believed_deficit(node));
    stop.is_key = is_key(node);
    // k-coverage utility mode: under-covered nodes are worth more to keep
    // alive, so their genuine-service utility is scaled up (weight 1 when
    // the mode is off).  Key nodes stay utility 0 — they are spoof targets.
    stop.utility = stop.is_key
                       ? 0.0
                       : believed_deficit(node) * world_.coverage_weight(node);
    instance.stops.push_back(stop);
  }

  // Predicted key-node requests inside the lookahead horizon: lets the
  // planner reserve capacity for tight future windows.
  if (params_.spoof_mode == SpoofMode::NoService) return;
  for (const net::NodeId key : key_targets_) {
    if (!world_.alive(key) || world_.has_pending_request(key)) continue;
    const Seconds predicted = world_.predicted_request(key);
    if (!(predicted < now + params_.lookahead)) continue;
    Stop stop;
    stop.node = key;
    stop.position = world_.network().node(key).position;
    stop.window_open = predicted;
    stop.window_close = std::max(
        predicted, predicted + world_.params().patience - params_.window_margin);
    // Expected deficit at request time: believed level hits the threshold.
    const Joules capacity = world_.network().node(key).battery_capacity;
    stop.service_time = world_.planned_session_duration(
        (world_.params().charge_target_fraction -
         world_.params().request_threshold) *
        capacity);
    stop.is_key = true;
    stop.utility = 0.0;
    instance.stops.push_back(stop);
  }
}

void CsaStrategy::plan(mc::Vehicle& vehicle) {
  build_instance(vehicle, plan_instance_);
  if (plan_instance_.stops.empty()) return;  // nothing to do; requests wake us

  planner_.plan_into(plan_instance_, rng_, plan_);
  ++plans_computed_;
  if (plan_.visits.empty()) return;

  const Stop& stop = plan_instance_.stops[plan_.visits.front().stop_index];
  if (world_.has_pending_request(stop.node)) {
    vehicle.travel_to_node(stop.node);
    return;
  }
  // A predicted (future) first stop: pre-position just in time and wait for
  // the request to fire.
  const Seconds now = world_.simulator().now();
  const geom::Vec2 pos = vehicle.position();
  const geom::Vec2 node_pos = world_.network().node(stop.node).position;
  const Seconds depart_at =
      stop.window_open - vehicle.charger().travel_time(pos, node_pos);
  if (depart_at > now + 1.0) {
    vehicle.wake_at(depart_at);  // too early to leave
    return;
  }
  const Meters dock = world_.charging_model().params().dock_distance;
  if (geom::distance(pos, node_pos) > dock + 0.01) {
    vehicle.travel_to_node(stop.node);  // pre-position next to the target
    return;
  }
  // Already adjacent; poll until the predicted request materializes (the
  // request callback usually wakes us first).
  vehicle.wake_at(std::max(stop.window_open, now + 30.0));
}

mc::Session CsaStrategy::begin_session(mc::Vehicle& vehicle, net::NodeId id,
                                       Joules deficit) {
  const policy::SpoofDecision decision = spoof_decision(id);
  if (!decision.spoof) {
    // Genuine service (cover, or a non-target): the honest session, with
    // the neighbour probe read as the session starts.
    mc::Session session = vehicle.genuine_session(deficit);
    session.probe = vehicle.honest_probe(id);
    return session;
  }
  const Seconds now = world_.simulator().now();
  const Watts drain = world_.drain_rate(id);
  kill_schedule_.push_back(drain > 0.0 ? now + world_.level(id) / drain
                                       : now + params_.pace_window);
  spoof_killed_.insert(id);
  return spoofed_session(vehicle, id, deficit, decision);
}

mc::Session CsaStrategy::spoofed_session(
    const mc::Vehicle& vehicle, net::NodeId id, Joules deficit,
    const policy::SpoofDecision& decision) {
  mc::Session session;
  session.spoofed = true;
  session.duration = world_.planned_session_duration(deficit);
  if (params_.spoof_mode == SpoofMode::SilentSkip) {
    // Dock and pretend: no radiation at all.  Free energy for the attacker
    // but the carrier absence is what RSSI checks look for.
    session.probe.emplace(0.0, 0.0);
    return session;
  }
  session.radiated_power = world_.charging_model().params().source_power;

  // RSSI is measured at the node's communication antenna, offset from the
  // nulled rectenna; the emitter keeps the carrier there strong.
  const geom::Vec2 node_pos = world_.network().node(id).position;
  const geom::Vec2 charger_pos = vehicle.position();
  const geom::Vec2 los = (node_pos - charger_pos).normalized();
  const geom::Vec2 perp{-los.y, los.x};
  const geom::Vec2 comm_antenna = node_pos + perp * params_.comm_antenna_offset;

  // Full cancellation kills fastest; partial cancellation leaks exactly
  // enough to slip under single-session energy audits.
  const Watts expected_rate =
      world_.nominal_dc_power() * world_.params().benign_gain_mean;
  const wpt::SpoofOutcome outcome =
      params_.spoof_mode == SpoofMode::PartialCancel
          ? emitter_->configure_partial(charger_pos, node_pos,
                                        decision.leak_ratio * expected_rate,
                                        &rng_, &comm_antenna)
          : emitter_->configure(charger_pos, node_pos, &rng_);
  session.dc = outcome.dc_at_target;

  session.rf_observed = emitter_->rf_at_probe(outcome, comm_antenna);
  // The nearest alive neighbour probes the field too.
  const auto [witness, nearest] = vehicle.nearest_alive_neighbor(id);
  const Watts witness_rf =
      witness == net::kInvalidNode
          ? 0.0
          : emitter_->rf_at_probe(outcome,
                                  world_.network().node(witness).position);
  session.probe.emplace(witness_rf, nearest);
  return session;
}

}  // namespace wrsn::csa
