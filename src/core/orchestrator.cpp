#include "core/orchestrator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/theory.hpp"
#include "obs/metrics.hpp"

namespace wrsn::csa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

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

AttackAgent::AttackAgent(sim::World& world, const AttackParams& params,
                         const Planner& planner, Rng rng,
                         const policy::AttackPolicyParams& policy)
    : world_(world),
      params_(params),
      planner_(planner),
      rng_(std::move(rng)),
      mc_(params.charger) {
  params_.validate();
  territory_.insert(params_.territory.begin(), params_.territory.end());
  emitter_.emplace(world_.charging_model(), params_.spoofing);
  // fork() is const — the policy stream never advances rng_, so the static
  // policy (which consumes nothing) leaves every existing draw sequence,
  // and therefore every pre-policy result, bit-identical.
  policy_ = policy::make_attack_policy(policy, rng_.fork("policy"),
                                       params_.pace_limit,
                                       params_.partial_leak_ratio);
}

AttackAgent::~AttackAgent() {
  WRSN_OBS_ADD(kCsaReplans, double(plans_computed_));
  WRSN_OBS_ADD(kMcSessions, double(sessions_ended_));
  WRSN_OBS_ADD(kMcSessionsSpoofed, double(spoofed_sessions_ended_));
}

void AttackAgent::start() {
  WRSN_REQUIRE(!started_, "attack agent already started");
  started_ = true;

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
    if (!in_territory(id)) continue;  // can only spoof nodes it services
    Seconds request_at = world_.has_pending_request(id)
                             ? world_.simulator().now()
                             : world_.predicted_request(id);
    if (!std::isfinite(request_at)) continue;
    const Watts drain = world_.drain_rate(id);
    if (drain <= 0.0) continue;
    const Joules level_at_spoof = world_.params().request_threshold *
                                  world_.network().node(id).battery_capacity;
    const Seconds kill_time = level_at_spoof / drain;
    if (request_at + world_.params().patience + kill_time > deadline) {
      continue;  // not exhaustible inside the campaign
    }
    key_targets_.push_back(id);
  }
  if (key_targets_.empty()) {
    // No candidate is cleanly exhaustible inside the campaign; attack the
    // highest-impact ones anyway (partial exhaustion beats no attack).
    for (const net::NodeId id : candidates) {
      if (key_targets_.size() >= std::max<std::size_t>(target_cap, 1)) break;
      if (!in_territory(id)) continue;
      key_targets_.push_back(id);
    }
  }
  key_set_.insert(key_targets_.begin(), key_targets_.end());
  log(LogLevel::Info) << "CSA attacker selected " << key_targets_.size()
                      << " key targets";

  world_.add_request_listener([this](net::NodeId id) { on_request(id); });
  world_.add_death_listener([this](net::NodeId id) { on_death(id); });
  if (state_ == State::Idle) replan();
}

void AttackAgent::on_request(net::NodeId id) {
  if (!in_territory(id)) return;
  if (state_ == State::Idle) replan();
  // Travel/charging legs finish first; the fresh request enters the next
  // receding-horizon replan at the coming decision point.
}

void AttackAgent::on_death(net::NodeId id) {
  // Every death is visible in the base-station logs the attacker operates
  // under; deaths it did not schedule (hardware failures, starvation) join
  // the pacing window so kills keep hiding in the total rate.
  const bool own_kill = spoof_killed_.count(id) != 0;
  if (!own_kill) {
    kill_schedule_.push_back(world_.simulator().now());
  }
  policy_->observe_death(world_.simulator().now(), own_kill);
  if (id != target_) return;
  const Seconds now = world_.simulator().now();
  if (state_ == State::Traveling) {
    mc_.halt(now);
    ++event_version_;
    target_ = net::kInvalidNode;
    state_ = State::Idle;
    replan();
  } else if (state_ == State::Charging) {
    ++event_version_;
    end_session(event_version_);
  }
}

void AttackAgent::fault_breakdown(double budget_loss, bool permanent) {
  WRSN_REQUIRE(budget_loss >= 0.0 && budget_loss <= 1.0,
               "budget_loss must be in [0, 1]");
  if (broken_) {
    permanently_broken_ = permanently_broken_ || permanent;
    return;
  }
  broken_ = true;
  permanently_broken_ = permanent;
  const Seconds now = world_.simulator().now();
  switch (state_) {
    case State::Traveling:
    case State::ToDepot:
      mc_.halt(now);
      ++event_version_;  // invalidate the in-flight arrival event
      target_ = net::kInvalidNode;
      break;
    case State::Charging:
      // Truncate the session cleanly (spoofed or genuine); replan at the
      // session tail no-ops on broken_.
      end_session(++event_version_);
      break;
    case State::DepotCharging:
      ++event_version_;  // invalidate the depot-completion event
      break;
    case State::Idle:
    case State::Broken:
      break;
  }
  mc_.damage(budget_loss * mc_.params().battery_capacity);
  state_ = State::Broken;
  WRSN_LOG(Debug) << "attacker vehicle breakdown at t=" << now
                  << (permanent ? " (permanent)" : "");
}

void AttackAgent::fault_repair() {
  if (!broken_ || permanently_broken_) return;
  broken_ = false;
  state_ = State::Idle;
  WRSN_LOG(Debug) << "attacker vehicle repaired at t="
                  << world_.simulator().now();
  if (started_) replan();
}

void AttackAgent::fault_phase_noise(double scale) {
  WRSN_REQUIRE(scale > 0.0, "phase noise scale must be > 0");
  wpt::SpoofingParams degraded = params_.spoofing;
  degraded.phase_jitter_sigma *= scale;
  emitter_.emplace(world_.charging_model(), degraded);
}

void AttackAgent::adopt_territory(std::span<const net::NodeId> nodes) {
  // A whole-network agent (empty territory) already services everything.
  if (territory_.empty()) return;
  territory_.insert(nodes.begin(), nodes.end());
  WRSN_LOG(Debug) << "attacker adopted " << nodes.size() << " nodes at t="
                  << world_.simulator().now();
  if (started_ && !broken_ && state_ == State::Idle) replan();
}

std::size_t AttackAgent::kill_window_count(Seconds death_at) const {
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

policy::SpoofDecision AttackAgent::spoof_decision(net::NodeId id) {
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
  const Seconds redo_cycle =
      (world_.params().charge_target_fraction -
       world_.params().request_threshold) *
      capacity / drain;
  const Seconds kill_time =
      world_.params().request_threshold * capacity / drain;
  query.last_chance = now + redo_cycle + kill_time >
                      params_.campaign_deadline * params_.campaign_slack;
  query.keys_killed = spoof_killed_.size();
  query.keys_total = key_targets_.size();
  return policy_->decide(query);
}

void AttackAgent::build_instance(TideInstance& instance) const {
  const Seconds now = world_.simulator().now();
  const Watts nominal = world_.nominal_dc_power();
  WRSN_ASSERT(nominal > 0.0);

  instance.start_position = mc_.position(now);
  instance.start_time = now;
  instance.speed = mc_.params().speed;
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
    if (!in_territory(node)) continue;
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
  if (params_.spoof_mode == SpoofMode::NoService) {
    prime_travel_matrix(instance);
    return;
  }
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
  prime_travel_matrix(instance);
}

void AttackAgent::prime_travel_matrix(TideInstance& instance) const {
  if (!travel_matrix_) travel_matrix_ = std::make_shared<TravelMatrix>();
  travel_matrix_->rebuild(instance);
  instance.set_travel_matrix(
      std::shared_ptr<const TravelMatrix>(travel_matrix_));
}

void AttackAgent::replan() {
  if (broken_) return;  // a broken vehicle plans nothing until repaired
  WRSN_ASSERT(state_ == State::Idle);
  const Seconds now = world_.simulator().now();

  if (mc_.battery_fraction() < params_.battery_reserve_fraction) {
    go_to_depot();
    return;
  }

  build_instance(plan_instance_);
  if (plan_instance_.stops.empty()) return;  // nothing to do; requests wake us

  planner_.plan_into(plan_instance_, rng_, plan_);
  ++plans_computed_;
  if (plan_.visits.empty()) return;

  const Visit& next = plan_.visits.front();
  const Stop& stop = plan_instance_.stops[next.stop_index];

  // Only execute stops whose request is actually outstanding; a predicted
  // (future) first stop means we pre-position just in time and wait for the
  // request to fire.
  if (!world_.has_pending_request(stop.node)) {
    const geom::Vec2 node_pos = world_.network().node(stop.node).position;
    const Seconds travel = mc_.travel_time(mc_.position(now), node_pos);
    const Seconds depart_at = stop.window_open - travel;
    const std::uint64_t version = ++event_version_;
    if (depart_at > now + 1.0) {
      // Too early to leave; sleep until the departure instant.
      world_.simulator().schedule_at(depart_at,
                                     [this, version] { on_wake(version); });
      return;
    }
    const Meters dock = world_.charging_model().params().dock_distance;
    if (geom::distance(mc_.position(now), node_pos) > dock + 0.01) {
      travel_to_node(stop.node);  // pre-position next to the target
      return;
    }
    // Already adjacent; poll until the predicted request materializes (the
    // request callback usually wakes us first).
    world_.simulator().schedule_at(std::max(stop.window_open, now + 30.0),
                                   [this, version] { on_wake(version); });
    return;
  }
  travel_to_node(stop.node);
}

void AttackAgent::on_wake(std::uint64_t version) {
  if (version != event_version_) return;
  if (state_ != State::Idle) return;
  replan();
}

void AttackAgent::travel_to_node(net::NodeId id) {
  const Seconds now = world_.simulator().now();
  const geom::Vec2 node_pos = world_.network().node(id).position;
  const geom::Vec2 pos = mc_.position(now);
  const Meters dock = world_.charging_model().params().dock_distance;
  const geom::Vec2 approach = (node_pos - pos).normalized();
  const geom::Vec2 dock_pos =
      geom::distance(pos, node_pos) > dock ? node_pos - approach * dock : pos;

  target_ = id;
  state_ = State::Traveling;
  const Seconds arrival = mc_.begin_travel(now, dock_pos);
  const std::uint64_t version = ++event_version_;
  world_.simulator().schedule_at(arrival,
                                 [this, version] { on_arrival(version); });
}

void AttackAgent::go_to_depot() {
  const Seconds now = world_.simulator().now();
  state_ = State::ToDepot;
  target_ = net::kInvalidNode;
  const Seconds arrival = mc_.begin_travel(now, mc_.params().depot);
  const std::uint64_t version = ++event_version_;
  world_.simulator().schedule_at(arrival,
                                 [this, version] { on_arrival(version); });
}

void AttackAgent::on_arrival(std::uint64_t version) {
  if (version != event_version_) return;
  const Seconds now = world_.simulator().now();
  mc_.arrive(now);

  if (state_ == State::ToDepot) {
    state_ = State::DepotCharging;
    const Seconds done = now + mc_.depot_recharge_time();
    const std::uint64_t v = ++event_version_;
    world_.simulator().schedule_at(done, [this, v] {
      if (v != event_version_) return;
      mc_.recharge_full();
      state_ = State::Idle;
      replan();
    });
    return;
  }

  WRSN_ASSERT(state_ == State::Traveling);
  const net::NodeId node = target_;
  if (!world_.alive(node) || !world_.has_pending_request(node)) {
    target_ = net::kInvalidNode;
    state_ = State::Idle;
    replan();
    return;
  }
  start_session(node);
}

void AttackAgent::start_session(net::NodeId id) {
  const Seconds now = world_.simulator().now();
  const Joules capacity = world_.network().node(id).battery_capacity;
  const Joules believed_deficit =
      std::max(0.0, world_.params().charge_target_fraction * capacity -
                        world_.believed_level(id));
  if (believed_deficit <= 0.0) {
    world_.note_service_started(id);
    world_.note_service_ended(id, 0.0, 0.0);
    target_ = net::kInvalidNode;
    state_ = State::Idle;
    replan();
    return;
  }

  const Watts nominal = world_.nominal_dc_power();
  // Spoofed sessions mimic a nominal-rate service; genuine ones stretch to
  // the realized rate (set below).
  session_genuine_duration_ = world_.planned_session_duration(believed_deficit);
  const policy::SpoofDecision decision = spoof_decision(id);
  const bool spoof = decision.spoof;
  if (spoof) {
    const Watts drain = world_.drain_rate(id);
    kill_schedule_.push_back(drain > 0.0
                                 ? now + world_.level(id) / drain
                                 : now + params_.pace_window);
    spoof_killed_.insert(id);
  }

  const geom::Vec2 node_pos = world_.network().node(id).position;
  const geom::Vec2 charger_pos = mc_.position(now);

  if (spoof && params_.spoof_mode == SpoofMode::SilentSkip) {
    // Dock and pretend: no radiation at all.  Free energy for the attacker
    // but the carrier absence is what RSSI checks look for.
    session_dc_ = 0.0;
    session_rf_observed_ = 0.0;
    session_probe_rf_ = 0.0;
    session_probe_distance_ = 0.0;
    ++spoofed_sessions_;
  } else if (spoof) {
    // RSSI is measured at the node's communication antenna, offset from the
    // nulled rectenna; the emitter keeps the carrier there strong.
    const geom::Vec2 los = (node_pos - charger_pos).normalized();
    const geom::Vec2 perp{-los.y, los.x};
    const geom::Vec2 comm_antenna =
        node_pos + perp * params_.comm_antenna_offset;

    // Full cancellation kills fastest; partial cancellation leaks exactly
    // enough to slip under single-session energy audits.
    const Watts expected_rate =
        nominal * world_.params().benign_gain_mean;
    const wpt::SpoofOutcome outcome =
        params_.spoof_mode == SpoofMode::PartialCancel
            ? emitter_->configure_partial(
                  charger_pos, node_pos,
                  decision.leak_ratio * expected_rate, &rng_,
                  &comm_antenna)
            : emitter_->configure(charger_pos, node_pos, &rng_);
    session_dc_ = outcome.dc_at_target;

    // Nearest alive neighbour probes the field too.
    const net::Network& network = world_.network();
    Meters nearest = kInf;
    geom::Vec2 nearest_pos;
    for (const net::NodeId nb : network.neighbors(id)) {
      if (!world_.alive(nb)) continue;
      const Meters d = network.distance(id, nb);
      if (d < nearest) {
        nearest = d;
        nearest_pos = network.node(nb).position;
      }
    }
    session_probe_distance_ = nearest;

    // Comm antenna and neighbour witness share one batched field pass.
    const bool has_witness = std::isfinite(nearest);
    const Meters probe_x[2] = {comm_antenna.x, nearest_pos.x};
    const Meters probe_y[2] = {comm_antenna.y, nearest_pos.y};
    Watts probe_rf[2] = {0.0, 0.0};
    double probe_im[2];
    const std::size_t probes = has_witness ? 2 : 1;
    emitter_->rf_at_probes(outcome, {probe_x, probes}, {probe_y, probes},
                           {probe_rf, probes}, {probe_im, probes});
    session_rf_observed_ = probe_rf[0];
    session_probe_rf_ = has_witness ? probe_rf[1] : 0.0;
    ++spoofed_sessions_;
  } else {
    const double gain = world_.draw_genuine_gain_factor();
    session_dc_ = nominal * gain;
    // Energy-target service: the realized rate stretches the stay.
    session_genuine_duration_ = believed_deficit / session_dc_;
    session_rf_observed_ = world_.charging_model().rf_at_distance(
        world_.charging_model().params().dock_distance);
    const net::Network& network = world_.network();
    Meters nearest = kInf;
    for (const net::NodeId nb : network.neighbors(id)) {
      if (!world_.alive(nb)) continue;
      nearest = std::min(nearest, network.distance(id, nb));
    }
    session_probe_distance_ = nearest;
    session_probe_rf_ = std::isfinite(nearest)
                            ? world_.charging_model().rf_at_distance(nearest)
                            : 0.0;
    ++genuine_sessions_;
  }

  state_ = State::Charging;
  session_spoofed_ = spoof;
  session_radiated_power_ =
      (spoof && params_.spoof_mode == SpoofMode::SilentSkip)
          ? 0.0
          : world_.charging_model().params().source_power;
  session_start_ = now;

  world_.note_service_started(id);
  world_.set_charge_input(id, session_dc_);

  const std::uint64_t version = ++event_version_;
  world_.simulator().schedule_at(now + session_genuine_duration_,
                                 [this, version] { end_session(version); });
}

void AttackAgent::end_session(std::uint64_t version) {
  if (version != event_version_) return;
  WRSN_ASSERT(state_ == State::Charging);
  const Seconds now = world_.simulator().now();
  const net::NodeId node = target_;
  const Seconds duration = now - session_start_;
  const Joules expected = world_.expected_session_gain(duration);
  const Joules delivered = session_dc_ * duration;

  world_.set_charge_input(node, 0.0);
  world_.note_service_ended(node, expected, delivered);

  const Watts source = session_radiated_power_;
  mc_.radiate(source, duration, session_spoofed_);

  sim::SessionRecord record;
  record.node = node;
  record.start = session_start_;
  record.end = now;
  record.kind = session_spoofed_ ? sim::SessionKind::Spoofed
                                 : sim::SessionKind::Genuine;
  record.expected_gain = expected;
  record.delivered = delivered;
  record.rf_observed = session_rf_observed_;
  record.rf_neighbor_probe = session_probe_rf_;
  record.nearest_probe_distance = session_probe_distance_;
  record.radiated = source * duration;
  world_.trace().sessions.push_back(record);
  ++sessions_ended_;
  if (session_spoofed_) ++spoofed_sessions_ended_;
  WRSN_OBS_OBSERVE(kMcSessionEnergyJ, delivered);

  WRSN_LOG(Debug) << (session_spoofed_ ? "SPOOFED" : "genuine")
                  << " session on node " << node << " delivered "
                  << delivered << " J of " << expected << " J expected";

  target_ = net::kInvalidNode;
  state_ = State::Idle;
  replan();
}

}  // namespace wrsn::csa
