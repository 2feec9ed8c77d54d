// The adaptive-policy seam (DESIGN.md §15).
//
// Both sides of the arms race are pluggable, deterministic policies:
//
//   * The ATTACKER's spoof scheduling — when a key-node session is spoofed
//     vs. served genuinely for cover, and how much energy a PartialCancel
//     session leaks — is an `AttackPolicy` the orchestrator consults at
//     every key-node session start.  `AttackPolicyKind::Static` reproduces
//     the pre-policy pacing arithmetic bit-for-bit (it consumes no
//     randomness); the bandit kinds re-select a pacing-aggressiveness arm
//     once per epoch from a stream forked off the agent's own Rng.
//   * The DEFENDER's threshold re-tuning is carried by `DefenderPolicyParams`,
//     which the death-rate, service-audit and energy-delta detectors
//     (detect/detectors.hpp) take: `DefenderPolicyKind::Adaptive` makes them
//     recalibrate their death-rate / audit-budget / gain knobs per trace
//     window, `DefenderPolicyKind::Static` keeps the unchanged PR-4
//     thresholds.
//
// Determinism rules: policies draw randomness only from the Rng handed to
// them at construction (forked with a dedicated label, so the static path
// is bit-identical to the pre-policy code), and they observe only
// quantities the modeled actor could observe — the attacker sees base-
// station death logs and its own kill ledger, never detector internals.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "policy/bandit.hpp"

namespace wrsn::policy {

enum class AttackPolicyKind {
  Static,         ///< the fixed pace_limit/pace_window arithmetic of PR 1-9
  EpsilonGreedy,  ///< bandit over pacing-aggressiveness arms, eps-greedy
  Ucb,            ///< bandit over pacing-aggressiveness arms, UCB1
};

enum class DefenderPolicyKind {
  Static,    ///< deployment-calibrated thresholds, fixed for the mission
  Adaptive,  ///< thresholds re-tuned per trace window (detect/detectors.hpp)
};

/// Stable labels: the config keys' accepted names and the bandit's name();
/// digests stay numeric.
constexpr std::string_view attack_policy_label(AttackPolicyKind kind) {
  switch (kind) {
    case AttackPolicyKind::Static: return "static";
    case AttackPolicyKind::EpsilonGreedy: return "eps-greedy";
    case AttackPolicyKind::Ucb: return "ucb";
  }
  return "static";
}

constexpr std::string_view defender_policy_label(DefenderPolicyKind kind) {
  switch (kind) {
    case DefenderPolicyKind::Static: return "static";
    case DefenderPolicyKind::Adaptive: return "adaptive";
  }
  return "static";
}

/// `[policy.*]` attacker half.  Only read in Attack mode.
struct AttackPolicyParams {
  AttackPolicyKind kind = AttackPolicyKind::Static;
  /// Exploration probability (eps-greedy arms only).
  double epsilon = 0.1;
  /// UCB exploration constant (UCB arm only).
  double ucb_c = 1.4142135623730951;
  /// The bandit re-selects its arm once per epoch [s].
  Seconds epoch = 21'600.0;
  /// Reward = kills this epoch - risk_weight * max(0, deaths - risk_budget):
  /// the attacker's observable proxy for stealth, counting every death the
  /// base-station log shows against the death-rate tolerance it assumes the
  /// defender calibrated.
  double risk_weight = 2.0;
  std::size_t risk_budget = 3;

  void validate() const;
};

/// `[policy.*]` defender half.
struct DefenderPolicyParams {
  DefenderPolicyKind kind = DefenderPolicyKind::Static;
  /// Threshold re-tuning cadence [s]: adaptive detectors close an
  /// estimation window this often and recalibrate from everything before it.
  Seconds window = 21'600.0;
  /// Sigma multiplier of the recalibrated bounds (the static calibration
  /// uses 3).
  double quantile = 3.0;
  /// Completed windows required before the estimate overrides the
  /// deployment prior.
  std::size_t min_samples = 2;

  bool adaptive() const { return kind == DefenderPolicyKind::Adaptive; }
  void validate() const;
};

/// Most bandit epochs or tuning windows one mission may span.  Both sides
/// step through the horizon one window at a time, so a window far below the
/// horizon holds a worker for seconds to hours; the fuzzer draws 2 to 10
/// windows per mission and the tournament at most 40.
inline constexpr double kMaxPolicyWindows = 1e5;

/// The `[policy.*]` INI section: one deterministic adaptive policy per side.
struct PolicyParams {
  AttackPolicyParams attacker;
  DefenderPolicyParams defender;

  /// Validates both halves, and rejects an epoch or tuning window that
  /// splits `horizon` into more than kMaxPolicyWindows steps.
  void validate(Seconds horizon) const;
};

/// Everything the attacker's scheduling policy may observe at one key-node
/// spoof decision.  All fields derive from the attacker's own ledger and
/// the base-station logs it operates under — no defender internals.
struct SpoofQuery {
  Seconds now = 0.0;
  /// Predicted death time of the target if spoofed this session.
  Seconds death_at = 0.0;
  /// Deaths (scheduled kills + observed background deaths) in the worst
  /// pace_window interval this kill would join, the new kill included.
  std::size_t window_deaths = 0;
  /// Deferring this kill would push it past the campaign deadline.
  bool last_chance = false;
  std::size_t keys_killed = 0;
  std::size_t keys_total = 0;
};

struct SpoofDecision {
  bool spoof = false;
  /// PartialCancel only: fraction of the expected session gain really
  /// delivered.  The static policy always returns the configured
  /// `attack.partial_leak_ratio`.
  double leak_ratio = 0.0;
};

class AttackPolicy {
 public:
  virtual ~AttackPolicy() = default;
  virtual std::string_view name() const = 0;
  /// Decides spoof-now vs. genuine-cover for one key-node session start.
  virtual SpoofDecision decide(const SpoofQuery& query) = 0;
  /// Feedback: a death reached the base-station log at `at`; `own_kill`
  /// marks deaths this attacker scheduled itself.
  virtual void observe_death(Seconds at, bool own_kill) = 0;
};

/// Wraps the PR 1-9 pacing arithmetic: spoof unless the kill would exceed
/// `pace_limit` deaths in a pace window (pace_limit 0 disables pacing), with
/// the last-chance campaign override.  Consumes no randomness.
class StaticAttackPolicy final : public AttackPolicy {
 public:
  StaticAttackPolicy(std::size_t pace_limit, double leak_ratio)
      : pace_limit_(pace_limit), leak_ratio_(leak_ratio) {}
  std::string_view name() const override {
    return attack_policy_label(AttackPolicyKind::Static);
  }
  SpoofDecision decide(const SpoofQuery& query) override;
  void observe_death(Seconds, bool) override {}

 private:
  std::size_t pace_limit_;
  double leak_ratio_;
};

/// Bandit over pacing-aggressiveness arms.  Each arm is an (effective pace
/// limit, PartialCancel leak ratio) pair spanning cautious (one kill below
/// the configured limit, higher leak) through unpaced (no limit, minimal
/// leak); the arm is re-selected once per epoch and rewarded with the
/// attacker-observable stealth proxy (see AttackPolicyParams::risk_weight).
/// True detection is post-hoc and unobservable in-mission, so the proxy —
/// visible deaths vs. the assumed defender tolerance — is what a real
/// attacker could actually compute from the logs it operates.
class BanditAttackPolicy final : public AttackPolicy {
 public:
  static constexpr std::size_t kArmCount = 5;

  BanditAttackPolicy(const AttackPolicyParams& params, Rng rng,
                     std::size_t base_pace_limit, double base_leak_ratio);
  std::string_view name() const override {
    return attack_policy_label(kind_);
  }
  SpoofDecision decide(const SpoofQuery& query) override;
  void observe_death(Seconds at, bool own_kill) override;

  std::size_t current_arm() const { return current_arm_; }
  std::uint64_t epochs_closed() const { return epochs_closed_; }

 private:
  struct Arm {
    std::size_t pace_limit;  ///< SIZE_MAX = unpaced
    double leak_ratio;
  };

  /// Closes every epoch that ended at or before `now`, feeding the reward
  /// back and re-selecting the arm.  Driven by decision and death times, so
  /// the arm sequence is a pure function of the observed event stream.
  void roll_epoch(Seconds now);

  AttackPolicyKind kind_;
  double risk_weight_;
  std::size_t risk_budget_;
  Seconds epoch_length_;
  Bandit bandit_;
  Arm arms_[kArmCount];
  std::size_t current_arm_ = 0;
  Seconds epoch_end_;
  std::uint64_t epoch_kills_ = 0;
  std::uint64_t epoch_deaths_ = 0;
  std::uint64_t epochs_closed_ = 0;
};

/// Builds the configured attack policy.  `rng` is consumed by bandit kinds
/// only; fork it with a dedicated label (the orchestrator uses "policy") so
/// the static path never perturbs existing streams.
std::unique_ptr<AttackPolicy> make_attack_policy(
    const AttackPolicyParams& params, Rng rng, std::size_t base_pace_limit,
    double base_leak_ratio);

}  // namespace wrsn::policy
