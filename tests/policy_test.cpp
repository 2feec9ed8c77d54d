// Adaptive-policy seam (src/policy, DESIGN.md §15): bandit determinism and
// regret, static-policy decision arithmetic, and [policy.*] config coverage.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "analysis/config_io.hpp"
#include "common/check.hpp"
#include "policy/bandit.hpp"
#include "policy/policy.hpp"

namespace wrsn {
namespace {

// ---------------------------------------------------------------------------
// Bandit core
// ---------------------------------------------------------------------------

std::vector<std::size_t> arm_sequence(policy::BanditKind kind,
                                      std::uint64_t seed, std::size_t rounds,
                                      double epsilon = 0.3) {
  // Planted rewards: arm 2 is best, so any sane learner converges there.
  const double rewards[] = {0.1, 0.4, 0.9, 0.2};
  policy::Bandit bandit(kind, 4, Rng(seed).fork("bandit"), epsilon);
  std::vector<std::size_t> sequence;
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::size_t arm = bandit.select();
    bandit.update(arm, rewards[arm]);
    sequence.push_back(arm);
  }
  return sequence;
}

TEST(Bandit, SeedDeterminism) {
  // Same (kind, seed, reward sequence) replays the same arm sequence;
  // different seeds explore differently (eps-greedy consumes randomness).
  const auto a = arm_sequence(policy::BanditKind::EpsilonGreedy, 7, 200);
  const auto b = arm_sequence(policy::BanditKind::EpsilonGreedy, 7, 200);
  EXPECT_EQ(a, b);
  const auto c = arm_sequence(policy::BanditKind::EpsilonGreedy, 8, 200);
  EXPECT_NE(a, c);
}

TEST(Bandit, UcbConsumesNoRandomness) {
  // UCB1 is deterministic given rewards: the seed must not matter at all.
  const auto a = arm_sequence(policy::BanditKind::Ucb, 1, 200);
  const auto b = arm_sequence(policy::BanditKind::Ucb, 999, 200);
  EXPECT_EQ(a, b);
}

TEST(Bandit, ForkedStreamsAreIndependent) {
  // The bandit owns a fork of the agent stream: constructing and running it
  // must not perturb the parent (fork() is const), and siblings forked with
  // distinct labels see distinct exploration.
  Rng parent(42);
  Rng probe = parent.fork("probe");
  const double before = probe.uniform();

  Rng parent_again(42);
  policy::Bandit bandit(policy::BanditKind::EpsilonGreedy, 4,
                        parent_again.fork("bandit"), 1.0);
  for (int i = 0; i < 50; ++i) bandit.update(bandit.select(), 0.0);
  Rng probe_again = parent_again.fork("probe");
  EXPECT_EQ(before, probe_again.uniform());

  policy::Bandit left(policy::BanditKind::EpsilonGreedy, 16,
                      Rng(42).fork("left"), 1.0);
  policy::Bandit right(policy::BanditKind::EpsilonGreedy, 16,
                       Rng(42).fork("right"), 1.0);
  std::vector<std::size_t> ls, rs;
  // Skip the deterministic untried-arm sweep before comparing exploration.
  for (int i = 0; i < 16; ++i) {
    left.update(left.select(), 0.0);
    right.update(right.select(), 0.0);
  }
  for (int i = 0; i < 64; ++i) {
    ls.push_back(left.select());
    left.update(ls.back(), 0.0);
    rs.push_back(right.select());
    right.update(rs.back(), 0.0);
  }
  EXPECT_NE(ls, rs);
}

TEST(Bandit, UntriedArmsSweepFirst) {
  policy::Bandit bandit(policy::BanditKind::Ucb, 5, Rng(1).fork("b"));
  for (std::size_t i = 0; i < 5; ++i) {
    const std::size_t arm = bandit.select();
    EXPECT_EQ(arm, i);
    bandit.update(arm, 0.0);
  }
}

TEST(Bandit, RegretSanityOnPlantedBestArm) {
  // After enough rounds both learners should pull the planted best arm (2)
  // for the clear majority of post-sweep selections.
  for (const policy::BanditKind kind :
       {policy::BanditKind::EpsilonGreedy, policy::BanditKind::Ucb}) {
    const auto sequence = arm_sequence(kind, 11, 400, /*epsilon=*/0.1);
    std::size_t best = 0;
    for (std::size_t i = 100; i < sequence.size(); ++i) {
      if (sequence[i] == 2) ++best;
    }
    EXPECT_GT(best, (sequence.size() - 100) * 7 / 10)
        << "kind " << int(kind) << " pulled best arm only " << best << "x";
  }
}

TEST(Bandit, RejectsBadKnobs) {
  EXPECT_THROW(policy::Bandit(policy::BanditKind::Ucb, 0, Rng(1)),
               PreconditionError);
  EXPECT_THROW(
      policy::Bandit(policy::BanditKind::EpsilonGreedy, 2, Rng(1), 1.5),
      PreconditionError);
  EXPECT_THROW(
      policy::Bandit(policy::BanditKind::Ucb, 2, Rng(1), 0.1, -1.0),
      PreconditionError);
}

// ---------------------------------------------------------------------------
// Attack policies
// ---------------------------------------------------------------------------

policy::SpoofQuery paced_query(std::size_t window_deaths, bool last_chance) {
  policy::SpoofQuery q;
  q.now = 10'000.0;
  q.death_at = 12'000.0;
  q.window_deaths = window_deaths;
  q.last_chance = last_chance;
  q.keys_total = 6;
  return q;
}

TEST(StaticAttackPolicy, ReproducesPacingArithmetic) {
  policy::StaticAttackPolicy policy(/*pace_limit=*/2, /*leak_ratio=*/0.35);
  // Within the pace budget: spoof.
  EXPECT_TRUE(policy.decide(paced_query(2, false)).spoof);
  // Over budget: defer...
  EXPECT_FALSE(policy.decide(paced_query(3, false)).spoof);
  // ...unless the campaign deadline forces the kill.
  EXPECT_TRUE(policy.decide(paced_query(3, true)).spoof);
  // The leak ratio passes through unchanged.
  EXPECT_DOUBLE_EQ(policy.decide(paced_query(1, false)).leak_ratio, 0.35);

  // pace_limit 0 disables pacing entirely.
  policy::StaticAttackPolicy unpaced(/*pace_limit=*/0, /*leak_ratio=*/0.0);
  EXPECT_TRUE(unpaced.decide(paced_query(50, false)).spoof);
}

TEST(BanditAttackPolicy, EpochRolloverIsEventDriven) {
  policy::AttackPolicyParams params;
  params.kind = policy::AttackPolicyKind::Ucb;
  params.epoch = 1'000.0;
  policy::BanditAttackPolicy policy(params, Rng(3).fork("policy"),
                                    /*base_pace_limit=*/2,
                                    /*base_leak_ratio=*/0.3);
  policy::SpoofQuery q = paced_query(1, false);
  q.now = 100.0;
  policy.decide(q);
  EXPECT_EQ(policy.epochs_closed(), 0u);
  q.now = 2'500.0;  // crosses two epoch boundaries
  policy.decide(q);
  EXPECT_EQ(policy.epochs_closed(), 2u);
  policy.observe_death(7'700.0, /*own_kill=*/false);
  EXPECT_EQ(policy.epochs_closed(), 7u);
}

TEST(BanditAttackPolicy, IsSeedDeterministic) {
  policy::AttackPolicyParams params;
  params.kind = policy::AttackPolicyKind::EpsilonGreedy;
  params.epsilon = 0.5;
  params.epoch = 500.0;
  const auto run = [&params] {
    policy::BanditAttackPolicy policy(params, Rng(9).fork("policy"), 2, 0.3);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      policy::SpoofQuery q = paced_query(std::size_t(i % 5), false);
      q.now = 100.0 * double(i);
      decisions.push_back(policy.decide(q).spoof);
      if (i % 3 == 0) policy.observe_death(q.now + 50.0, i % 6 == 0);
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());
}

TEST(MakeAttackPolicy, BuildsTheConfiguredKind) {
  policy::AttackPolicyParams params;
  EXPECT_EQ(policy::make_attack_policy(params, Rng(1), 2, 0.3)->name(),
            "static");
  params.kind = policy::AttackPolicyKind::EpsilonGreedy;
  EXPECT_EQ(policy::make_attack_policy(params, Rng(1), 2, 0.3)->name(),
            "eps-greedy");
  params.kind = policy::AttackPolicyKind::Ucb;
  EXPECT_EQ(policy::make_attack_policy(params, Rng(1), 2, 0.3)->name(),
            "ucb");
}

// ---------------------------------------------------------------------------
// Params validation and labels
// ---------------------------------------------------------------------------

TEST(PolicyParams, ValidateRejectsBadValues) {
  policy::AttackPolicyParams attacker;
  attacker.epsilon = 1.5;
  EXPECT_THROW(attacker.validate(), ConfigError);
  attacker = {};
  attacker.ucb_c = -1.0;
  EXPECT_THROW(attacker.validate(), ConfigError);
  attacker = {};
  attacker.epoch = 0.0;
  EXPECT_THROW(attacker.validate(), ConfigError);
  attacker = {};
  attacker.risk_weight = -0.5;
  EXPECT_THROW(attacker.validate(), ConfigError);
  attacker = {};
  EXPECT_NO_THROW(attacker.validate());

  policy::DefenderPolicyParams defender;
  defender.window = -1.0;
  EXPECT_THROW(defender.validate(), ConfigError);
  defender = {};
  defender.quantile = -0.1;
  EXPECT_THROW(defender.validate(), ConfigError);
  defender = {};
  defender.min_samples = 0;
  EXPECT_THROW(defender.validate(), ConfigError);
  defender = {};
  EXPECT_NO_THROW(defender.validate());
}

TEST(PolicyParams, LabelsRoundTrip) {
  // The config keys accept exactly the labels, each naming its own kind.
  const analysis::ScenarioConfig base = analysis::default_scenario();
  for (const policy::AttackPolicyKind kind :
       {policy::AttackPolicyKind::Static,
        policy::AttackPolicyKind::EpsilonGreedy,
        policy::AttackPolicyKind::Ucb}) {
    const std::string label(policy::attack_policy_label(kind));
    EXPECT_EQ(analysis::apply_config(base, {{"policy.attacker", label}})
                  .policy.attacker.kind,
              kind);
  }
  for (const policy::DefenderPolicyKind kind :
       {policy::DefenderPolicyKind::Static,
        policy::DefenderPolicyKind::Adaptive}) {
    const std::string label(policy::defender_policy_label(kind));
    EXPECT_EQ(analysis::apply_config(base, {{"policy.defender", label}})
                  .policy.defender.kind,
              kind);
  }
  EXPECT_THROW(analysis::apply_config(base, {{"policy.attacker", "thompson"}}),
               ConfigError);
  EXPECT_THROW(analysis::apply_config(base, {{"policy.defender", "oracle"}}),
               ConfigError);
}

// ---------------------------------------------------------------------------
// [policy.*] config keys
// ---------------------------------------------------------------------------

TEST(PolicyConfig, EveryKeyRoundTripsThroughTheIniLoader) {
  std::istringstream in(
      "[policy]\n"
      "policy.attacker = ucb\n"
      "policy.epsilon = 0.25\n"
      "policy.ucb_c = 2.5\n"
      "policy.epoch = 3600\n"
      "policy.risk_weight = 4.5\n"
      "policy.risk_budget = 7\n"
      "policy.defender = adaptive\n"
      "policy.defender_window = 10800\n"
      "policy.defender_quantile = 2.5\n"
      "policy.defender_min_samples = 3\n");
  const analysis::ScenarioConfig cfg = analysis::load_config(in);
  EXPECT_EQ(cfg.policy.attacker.kind, policy::AttackPolicyKind::Ucb);
  EXPECT_DOUBLE_EQ(cfg.policy.attacker.epsilon, 0.25);
  EXPECT_DOUBLE_EQ(cfg.policy.attacker.ucb_c, 2.5);
  EXPECT_DOUBLE_EQ(cfg.policy.attacker.epoch, 3'600.0);
  EXPECT_DOUBLE_EQ(cfg.policy.attacker.risk_weight, 4.5);
  EXPECT_EQ(cfg.policy.attacker.risk_budget, 7u);
  EXPECT_EQ(cfg.policy.defender.kind, policy::DefenderPolicyKind::Adaptive);
  EXPECT_DOUBLE_EQ(cfg.policy.defender.window, 10'800.0);
  EXPECT_DOUBLE_EQ(cfg.policy.defender.quantile, 2.5);
  EXPECT_EQ(cfg.policy.defender.min_samples, 3u);
}

TEST(PolicyConfig, LoaderRejectsInvalidPolicyValues) {
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return analysis::load_config(in);
  };
  EXPECT_THROW(load("policy.attacker = thompson\n"), ConfigError);
  EXPECT_THROW(load("policy.defender = oracle\n"), ConfigError);
  EXPECT_THROW(load("policy.epsilon = 2.0\n"), ConfigError);
  EXPECT_THROW(load("policy.epoch = -5\n"), ConfigError);
  EXPECT_THROW(load("policy.defender_window = 0\n"), ConfigError);
  EXPECT_THROW(load("policy.defender_min_samples = 0\n"), ConfigError);
}

}  // namespace
}  // namespace wrsn
