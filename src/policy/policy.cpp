#include "policy/policy.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"

namespace wrsn::policy {

void AttackPolicyParams::validate() const {
  if (epsilon < 0.0 || epsilon > 1.0) {
    throw ConfigError("policy.epsilon must be in [0, 1]");
  }
  if (ucb_c < 0.0 || !std::isfinite(ucb_c)) {
    throw ConfigError("policy.ucb_c must be finite and >= 0");
  }
  if (epoch <= 0.0 || !std::isfinite(epoch)) {
    throw ConfigError("policy.epoch must be finite and > 0");
  }
  if (risk_weight < 0.0 || !std::isfinite(risk_weight)) {
    throw ConfigError("policy.risk_weight must be finite and >= 0");
  }
}

void DefenderPolicyParams::validate() const {
  if (window <= 0.0 || !std::isfinite(window)) {
    throw ConfigError("policy.defender_window must be finite and > 0");
  }
  if (quantile < 0.0 || !std::isfinite(quantile)) {
    throw ConfigError("policy.defender_quantile must be finite and >= 0");
  }
  if (min_samples == 0) {
    throw ConfigError("policy.defender_min_samples must be >= 1");
  }
}

void PolicyParams::validate(Seconds horizon) const {
  attacker.validate();
  defender.validate();
  if (horizon / attacker.epoch > kMaxPolicyWindows) {
    throw ConfigError("policy.epoch splits the horizon into more than " +
                      std::to_string(std::size_t(kMaxPolicyWindows)) +
                      " epochs");
  }
  if (horizon / defender.window > kMaxPolicyWindows) {
    throw ConfigError("policy.defender_window splits the horizon into more "
                      "than " +
                      std::to_string(std::size_t(kMaxPolicyWindows)) +
                      " windows");
  }
}

SpoofDecision StaticAttackPolicy::decide(const SpoofQuery& query) {
  const bool paced_out =
      pace_limit_ != 0 && query.window_deaths > pace_limit_;
  return {.spoof = !paced_out || query.last_chance,
          .leak_ratio = leak_ratio_};
}

BanditAttackPolicy::BanditAttackPolicy(const AttackPolicyParams& params,
                                       Rng rng, std::size_t base_pace_limit,
                                       double base_leak_ratio)
    : kind_(params.kind),
      risk_weight_(params.risk_weight),
      risk_budget_(params.risk_budget),
      epoch_length_(params.epoch),
      bandit_(params.kind == AttackPolicyKind::Ucb ? BanditKind::Ucb
                                                   : BanditKind::EpsilonGreedy,
              kArmCount, std::move(rng), params.epsilon, params.ucb_c),
      epoch_end_(params.epoch) {
  params.validate();
  // Arms span cautious -> unpaced around the configured pacing.  A cautious
  // arm leaks more per PartialCancel session (slower kill, safer audits);
  // aggressive arms leak less (faster kill, riskier).  A disabled configured
  // limit (0) anchors the ladder at the deployed-detector default instead.
  const std::size_t base = base_pace_limit != 0 ? base_pace_limit : 3;
  const auto leak = [&](double scale) {
    return std::clamp(base_leak_ratio * scale, 0.0, 0.9);
  };
  arms_[0] = {base > 1 ? base - 1 : 1, leak(1.25)};
  arms_[1] = {base, leak(1.0)};
  arms_[2] = {base + 1, leak(1.0)};
  arms_[3] = {base + 2, leak(0.85)};
  arms_[4] = {SIZE_MAX, leak(0.7)};
  current_arm_ = bandit_.select();
}

void BanditAttackPolicy::roll_epoch(Seconds now) {
  while (now >= epoch_end_) {
    const double overshoot =
        double(epoch_deaths_) - double(risk_budget_);
    const double reward =
        double(epoch_kills_) - risk_weight_ * std::max(0.0, overshoot);
    bandit_.update(current_arm_, reward);
    current_arm_ = bandit_.select();
    epoch_kills_ = 0;
    epoch_deaths_ = 0;
    epoch_end_ += epoch_length_;
    ++epochs_closed_;
  }
}

SpoofDecision BanditAttackPolicy::decide(const SpoofQuery& query) {
  roll_epoch(query.now);
  const Arm& arm = arms_[current_arm_];
  const bool unpaced = arm.pace_limit == SIZE_MAX;
  const bool spoof = unpaced || query.window_deaths <= arm.pace_limit ||
                     query.last_chance;
  if (spoof) ++epoch_kills_;
  return {.spoof = spoof, .leak_ratio = arm.leak_ratio};
}

void BanditAttackPolicy::observe_death(Seconds at, bool own_kill) {
  roll_epoch(at);
  ++epoch_deaths_;
  (void)own_kill;  // kills are tallied at decision time, deaths here
}

std::unique_ptr<AttackPolicy> make_attack_policy(
    const AttackPolicyParams& params, Rng rng, std::size_t base_pace_limit,
    double base_leak_ratio) {
  params.validate();
  if (params.kind == AttackPolicyKind::Static) {
    return std::make_unique<StaticAttackPolicy>(base_pace_limit,
                                                base_leak_ratio);
  }
  return std::make_unique<BanditAttackPolicy>(
      params, std::move(rng), base_pace_limit, base_leak_ratio);
}

}  // namespace wrsn::policy
