// Tests for multi-charger fleets: partitioning, cooperative benign service,
// and the compromised-member scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "analysis/scenario.hpp"
#include "common/check.hpp"
#include "mc/fleet.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "runner/runner.hpp"

namespace wrsn::mc {
namespace {

net::Network fleet_network(std::uint64_t seed, std::size_t count = 60) {
  net::TopologyConfig cfg;
  cfg.region = {{0.0, 0.0}, {300.0, 300.0}};
  cfg.node_count = count;
  cfg.comm_range = 55.0;
  Rng rng(seed);
  return net::generate_topology(cfg, rng);
}

TEST(Fleet, DefaultDepotsInsideRegion) {
  const geom::Rect region{{0.0, 0.0}, {100.0, 100.0}};
  for (std::size_t count = 1; count <= 8; ++count) {
    const auto depots = default_depots(region, count);
    EXPECT_EQ(depots.size(), count);
    for (const geom::Vec2 depot : depots) {
      EXPECT_TRUE(region.contains(depot));
    }
  }
  EXPECT_THROW(default_depots(region, 0), PreconditionError);
  EXPECT_THROW(default_depots(region, 9), PreconditionError);
}

// Regression: a margin wider than half the region used to produce an
// inverted placement rect (lo > hi), scattering depots outside the region.
// The inset is now clamped per axis, so an oversized margin degenerates to
// the region center.
TEST(Fleet, DefaultDepotsClampOversizedMargin) {
  const geom::Rect region{{0.0, 0.0}, {100.0, 100.0}};
  for (std::size_t count = 1; count <= 8; ++count) {
    const auto depots = default_depots(region, count, /*margin=*/60.0);
    for (const geom::Vec2 depot : depots) {
      EXPECT_TRUE(region.contains(depot));
      EXPECT_DOUBLE_EQ(depot.x, region.center().x);
      EXPECT_DOUBLE_EQ(depot.y, region.center().y);
    }
  }
  // Even an absurd margin stays inside the region.
  for (const geom::Vec2 depot : default_depots(region, 8, 1e9)) {
    EXPECT_TRUE(region.contains(depot));
  }
  EXPECT_THROW(default_depots(region, 4, -1.0), PreconditionError);
  // Degenerate (point) regions are legal and yield that point.
  const auto point = default_depots({{5.0, 5.0}, {5.0, 5.0}}, 2, 10.0);
  for (const geom::Vec2 depot : point) {
    EXPECT_DOUBLE_EQ(depot.x, 5.0);
    EXPECT_DOUBLE_EQ(depot.y, 5.0);
  }
}

net::Network single_node_network(geom::Vec2 p) {
  std::vector<net::SensorSpec> nodes(1);
  nodes[0].id = 0;
  nodes[0].position = p;
  nodes[0].data_rate_bps = 100.0;
  return net::Network(std::move(nodes), /*sink=*/p, /*comm_range=*/100.0);
}

// Regression: std::hypot's extra internal precision can round two DISTINCT
// squared distances to the SAME double, so the old hypot-based comparison
// kept the lower-index depot even when the other one was strictly closer.
// These coordinates (found by brute force) exhibit exactly that collision;
// comparing squared distances is exact and picks depot 1.
TEST(Fleet, PartitionBreaksUlpTiesBySquaredDistance) {
  const geom::Vec2 p{0x1.d139de449085dp+5, 0x1.36150486942a7p+5};
  const std::vector<geom::Vec2> depots{
      {0x1.33f43aa259eb6p+6, 0x1.1b3a280197695p+8},
      {0x1.3a8b47446d35cp+5, -0x1.9b69cdbfe4bd6p+7}};
  // Depot 1 is strictly closer in exact arithmetic...
  ASSERT_LT((p - depots[1]).norm_sq(), (p - depots[0]).norm_sq());
  // ...yet hypot rounds both distances to the same double.
  ASSERT_EQ(geom::distance(p, depots[0]), geom::distance(p, depots[1]));

  EXPECT_EQ(nearest_depot(p, depots), 1u);
  const net::Network network = single_node_network(p);
  const auto cells = partition_by_depot(network, depots);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0].empty());
  ASSERT_EQ(cells[1].size(), 1u);
  EXPECT_EQ(cells[1][0], 0u);
}

// Exact ties (bit-identical squared distances) pin to the lower depot index
// so the partition is a deterministic function of its inputs.
TEST(Fleet, PartitionBreaksExactTiesTowardLowerIndex) {
  const geom::Vec2 p{50.0, 0.0};
  const std::vector<geom::Vec2> depots{{0.0, 0.0}, {100.0, 0.0}};
  ASSERT_EQ((p - depots[0]).norm_sq(), (p - depots[1]).norm_sq());
  EXPECT_EQ(nearest_depot(p, depots), 0u);
  const auto cells = partition_by_depot(single_node_network(p), depots);
  ASSERT_EQ(cells[0].size(), 1u);
  EXPECT_TRUE(cells[1].empty());
}

TEST(Fleet, PartitionSkipsDeadNodesWithAliveMask) {
  const net::Network network = fleet_network(5);
  const auto depots = default_depots({{0, 0}, {300, 300}}, 3);
  Bitmap alive(network.size(), true);
  for (net::NodeId id = 0; id < network.size(); id += 3) alive.reset(id);

  const auto cells = partition_by_depot(network, depots, alive);
  ASSERT_EQ(cells.size(), depots.size());
  std::set<net::NodeId> seen;
  for (const auto& cell : cells) {
    for (const net::NodeId id : cell) {
      EXPECT_TRUE(alive[id]) << "dead node " << id << " was partitioned";
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), alive.count());

  Bitmap short_mask(network.size() - 1, true);
  EXPECT_THROW(partition_by_depot(network, depots, short_mask),
               PreconditionError);
}

// Regression: a depot that wins no node must still own an (empty) cell so
// cells[k] stays aligned with depots[k] / fleet member k.
TEST(Fleet, PartitionKeepsEmptyCellsAligned) {
  std::vector<net::SensorSpec> nodes(3);
  for (net::NodeId id = 0; id < 3; ++id) {
    nodes[id].id = id;
    nodes[id].position = {double(id), 0.0};
    nodes[id].data_rate_bps = 100.0;
  }
  const net::Network network(std::move(nodes), {0.0, 0.0}, 50.0);
  const std::vector<geom::Vec2> depots{{0.0, 0.0}, {1000.0, 1000.0}};
  const auto cells = partition_by_depot(network, depots);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].size(), 3u);
  EXPECT_TRUE(cells[1].empty());
}

TEST(Fleet, PartitionIsDeterministicAcrossThreadCounts) {
  const std::vector<std::uint64_t> seeds{11, 12, 13, 14, 15, 16, 17, 18};
  const auto trial = [](const std::uint64_t& seed, Rng&) {
    const net::Network network = fleet_network(seed);
    const auto depots = default_depots({{0, 0}, {300, 300}}, 4);
    return partition_by_depot(network, depots);
  };
  using Cells = std::vector<std::vector<net::NodeId>>;
  std::vector<Cells> baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    runner::TrialOptions options;
    options.threads = threads;
    auto results = runner::run_trials(std::span<const std::uint64_t>(seeds),
                                      trial, options);
    if (baseline.empty()) {
      baseline = std::move(results);
    } else {
      EXPECT_EQ(results, baseline) << "partition diverged at " << threads
                                   << " threads";
    }
  }
}

TEST(Fleet, PartitionCoversEveryNodeExactlyOnce) {
  const net::Network network = fleet_network(1);
  const auto depots = default_depots({{0, 0}, {300, 300}}, 4);
  const auto cells = partition_by_depot(network, depots);
  ASSERT_EQ(cells.size(), 4u);
  std::set<net::NodeId> seen;
  for (const auto& cell : cells) {
    for (const net::NodeId id : cell) {
      EXPECT_TRUE(seen.insert(id).second) << "node " << id << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), network.size());
}

TEST(Fleet, PartitionAssignsToNearestDepot) {
  const net::Network network = fleet_network(2);
  const auto depots = default_depots({{0, 0}, {300, 300}}, 2);
  const auto cells = partition_by_depot(network, depots);
  for (std::size_t k = 0; k < cells.size(); ++k) {
    for (const net::NodeId id : cells[k]) {
      const geom::Vec2 pos = network.node(id).position;
      for (std::size_t other = 0; other < depots.size(); ++other) {
        EXPECT_LE(geom::distance(pos, depots[k]),
                  geom::distance(pos, depots[other]) + 1e-9);
      }
    }
  }
}

analysis::ScenarioConfig fleet_config(std::uint64_t seed,
                                      std::size_t size = 1,
                                      std::size_t compromised = SIZE_MAX) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = seed;
  cfg.fleet_size = size;
  cfg.fleet_compromised = compromised;
  return cfg;
}

/// Attack mission when a member is compromised, else a wholly honest fleet.
analysis::ScenarioResult run_fleet(const analysis::ScenarioConfig& cfg) {
  return analysis::run_mission(cfg, cfg.fleet_compromised < cfg.fleet_size
                                        ? analysis::ChargerMode::Attack
                                        : analysis::ChargerMode::Benign);
}

TEST(Fleet, TwoHonestChargersShareTheLoad) {
  const analysis::ScenarioResult result = run_fleet(fleet_config(31, 2));
  EXPECT_EQ(result.report.sessions_spoofed, 0u);
  EXPECT_FALSE(result.report.detected);
  EXPECT_LT(result.report.escalations, 4u);
  // With two vehicles, the first vehicle's ledger shows roughly half the
  // single-charger radiated load.
  const analysis::ScenarioResult solo = analysis::run_mission(
      fleet_config(31), analysis::ChargerMode::Benign);
  EXPECT_LT(result.ledger.radiated_total(),
            0.85 * solo.ledger.radiated_total());
}

TEST(Fleet, CompromisedMemberAttacksOnlyItsCell) {
  const analysis::ScenarioConfig cfg = fleet_config(32, 3, /*compromised=*/1);
  const analysis::ScenarioResult result = run_fleet(cfg);

  // Recreate the same partition to know cell 1.
  Rng rng(cfg.seed);
  Rng topo_rng = rng.fork("topology");
  const net::Network network =
      net::generate_topology(cfg.topology, topo_rng);
  const auto depots = default_depots(cfg.topology.region, 3);
  const auto cells = partition_by_depot(network, depots);
  const std::set<net::NodeId> cell(cells[1].begin(), cells[1].end());

  ASSERT_FALSE(result.keys.empty());
  for (const net::NodeId key : result.keys) {
    EXPECT_TRUE(cell.count(key) > 0)
        << "target " << key << " outside the compromised cell";
  }
  // Spoofed sessions only hit nodes in the cell.
  for (const sim::SessionRecord& s : result.trace.sessions) {
    if (s.kind == sim::SessionKind::Spoofed) {
      EXPECT_TRUE(cell.count(s.node) > 0);
    }
  }
}

TEST(Fleet, CompromisedMemberStillKillsItsTargets) {
  const analysis::ScenarioResult result = run_fleet(fleet_config(33, 3, 0));
  EXPECT_GT(result.report.sessions_spoofed, 0u);
  EXPECT_GE(result.report.exhaustion_ratio, 0.5);
}

TEST(Fleet, HonestMembersDoNotMaskTheHardenedAudit) {
  analysis::ScenarioConfig cfg = fleet_config(34, 3, 0);
  cfg.hardened_detectors = true;
  const analysis::ScenarioResult result = run_fleet(cfg);
  EXPECT_TRUE(result.report.detected);
}

// Permanent loss of one fleet member hands its Voronoi cell to the
// survivors: the orphaned nodes keep getting charged, no node is ever
// served by two chargers at once, and nobody starves waiting on the dead
// vehicle.
TEST(Fleet, HandoffAfterPermanentLossKeepsTheCellServed) {
  analysis::ScenarioConfig cfg = fleet_config(40, 3);
  const Seconds loss_at = 0.3 * cfg.horizon;
  cfg.faults.mc_permanent_at = loss_at;
  const analysis::ScenarioResult result = run_fleet(cfg);

  // The breakdown fired and was delivered to exactly one handoff hook.
  EXPECT_GE(result.fault_stats.mc_breakdowns, 1u);
  EXPECT_EQ(result.fault_stats.mc_handoffs, 1u);

  // Recreate the partition; the faulted vehicle is fleet member 0.
  Rng rng(cfg.seed);
  Rng topo_rng = rng.fork("topology");
  const net::Network network = net::generate_topology(cfg.topology, topo_rng);
  const auto depots = default_depots(cfg.topology.region, 3);
  const auto cells = partition_by_depot(network, depots);
  const std::set<net::NodeId> lost_cell(cells[0].begin(), cells[0].end());
  ASSERT_FALSE(lost_cell.empty());

  // Survivors adopt the orphaned cell: its nodes still get genuine
  // sessions well after the loss.
  std::size_t served_after_loss = 0;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    EXPECT_EQ(s.kind, sim::SessionKind::Genuine);
    if (s.start > loss_at && lost_cell.count(s.node) > 0) ++served_after_loss;
  }
  EXPECT_GT(served_after_loss, 0u)
      << "orphaned cell was never charged after the permanent loss";

  // No node is served twice concurrently — per-node sessions must be
  // disjoint in time even while territories are being reshuffled.
  std::map<net::NodeId, std::vector<std::pair<Seconds, Seconds>>> by_node;
  for (const sim::SessionRecord& s : result.trace.sessions) {
    by_node[s.node].emplace_back(s.start, s.end);
  }
  for (auto& [node, spans] : by_node) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-9)
          << "node " << node << " charged by two sessions at once";
    }
  }

  // No live node's request window is silently dropped: nobody dies with an
  // unserved request outstanding once the survivors own the whole field.
  for (const sim::DeathRecord& d : result.trace.deaths) {
    EXPECT_FALSE(d.request_outstanding)
        << "node " << d.node << " starved at t=" << d.time;
  }
}

}  // namespace
}  // namespace wrsn::mc
