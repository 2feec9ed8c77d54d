// Tests for the first-order radio energy model and the battery clamp rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "energy/radio.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace wrsn::energy {
namespace {

TEST(RadioParams, Validation) {
  RadioParams p;
  EXPECT_NO_THROW(p.validate());
  p.e_elec = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RadioParams{};
  p.e_amp = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(RadioModel, TxEnergyFormula) {
  RadioModel radio;  // e_elec = 50 nJ/bit, e_amp = 100 pJ/bit/m^2
  // 1000 bits over 10 m: 1000*50e-9 + 1000*100e-12*100 = 5e-5 + 1e-5.
  EXPECT_NEAR(radio.tx_energy(1000.0, 10.0), 6e-5, 1e-12);
}

TEST(RadioModel, RxEnergyIndependentOfDistance) {
  RadioModel radio;
  EXPECT_NEAR(radio.rx_energy(1000.0), 5e-5, 1e-15);
}

TEST(RadioModel, ZeroBitsZeroEnergy) {
  RadioModel radio;
  EXPECT_DOUBLE_EQ(radio.tx_energy(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(radio.rx_energy(0.0), 0.0);
}

TEST(RadioModel, NegativeInputsThrow) {
  RadioModel radio;
  EXPECT_THROW(radio.tx_energy(-1.0, 10.0), PreconditionError);
  EXPECT_THROW(radio.tx_energy(10.0, -1.0), PreconditionError);
  EXPECT_THROW(radio.rx_energy(-1.0), PreconditionError);
}

TEST(RadioModel, PowerIsEnergyPerSecondAtBps) {
  RadioModel radio;
  // tx_power(bps, d) must equal tx_energy(bps bits, d) numerically.
  EXPECT_DOUBLE_EQ(radio.tx_power(2000.0, 25.0), radio.tx_energy(2000.0, 25.0));
  EXPECT_DOUBLE_EQ(radio.rx_power(2000.0), radio.rx_energy(2000.0));
}

TEST(RadioModel, EnergyMonotoneInDistance) {
  RadioModel radio;
  double prev = 0.0;
  for (double d = 0.0; d <= 100.0; d += 10.0) {
    const double e = radio.tx_energy(1e4, d);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

// Property sweep: under random mixes of charge input and elapsed time a
// node's battery follows the world's clamp rule — a discharge stops at
// empty, a charge stops at capacity — so it never leaves [0, capacity] and
// drains down from exactly full after an overcharge.
class BatteryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BatteryFuzz, LevelAlwaysInRange) {
  constexpr Joules kCapacity = 500.0;
  std::vector<net::SensorSpec> specs(3);
  for (net::NodeId i = 0; i < 3; ++i) {
    specs[i].id = i;
    specs[i].position = {10.0 * double(i + 1), 0.0};
    specs[i].data_rate_bps = 100.0;
    specs[i].battery_capacity = kCapacity;
  }
  sim::WorldParams params;
  params.initial_level_min = 0.5;
  params.initial_level_max = 0.5;
  params.drain.sensing_power = 1.0;
  params.drain.radio.e_elec = 1e-12;  // radio negligible: rates stay put
  params.drain.radio.e_amp = 1e-15;   // when a neighbour dies
  sim::Simulator simulator;
  sim::World world(simulator,
                   net::Network(std::move(specs), {0.0, 0.0}, 15.0), params,
                   Rng(1));
  std::vector<Joules> expected(3, 0.5 * kCapacity);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const auto node = net::NodeId(rng.uniform_int(0, 2));
    world.set_charge_input(node, rng.bernoulli(0.5) ? rng.uniform(0.0, 5.0)
                                                    : 0.0);
    const Seconds dt = rng.uniform(0.0, 300.0);
    for (net::NodeId id = 0; id < 3; ++id) {
      if (!world.alive(id)) continue;
      const Watts net = world.charge_rate(id) - world.drain_rate(id);
      expected[id] = std::clamp(expected[id] + net * dt, 0.0, kCapacity);
    }
    simulator.run_until(simulator.now() + dt);
    for (net::NodeId id = 0; id < 3; ++id) {
      EXPECT_GE(world.level(id), 0.0);
      EXPECT_LE(world.level(id), kCapacity);
      if (!world.alive(id)) expected[id] = 0.0;
      EXPECT_NEAR(world.level(id), expected[id], 1e-3) << "node " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatteryFuzz, ::testing::Range(1, 11));

}  // namespace
}  // namespace wrsn::energy
