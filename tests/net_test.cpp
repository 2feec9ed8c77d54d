// Tests for the network substrate: graph construction, topology generators,
// routing/traffic/drain computation, and key-node analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "net/coverage.hpp"
#include "net/keynodes.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace wrsn::net {
namespace {

using geom::Vec2;

/// Hand-built line topology: sink - n0 - n1 - n2 - ... spaced `gap` apart,
/// sink at origin, nodes along +x.
Network make_line(std::size_t count, Meters gap = 10.0,
                  Meters comm_range = 12.0) {
  std::vector<SensorSpec> nodes;
  for (std::size_t i = 0; i < count; ++i) {
    SensorSpec spec;
    spec.id = static_cast<NodeId>(i);
    spec.position = {gap * double(i + 1), 0.0};
    spec.data_rate_bps = 1000.0;
    nodes.push_back(spec);
  }
  return Network(std::move(nodes), {0.0, 0.0}, comm_range);
}

TEST(Network, RejectsBadInput) {
  std::vector<SensorSpec> empty;
  EXPECT_THROW(Network(std::move(empty), {0, 0}, 10.0), PreconditionError);

  std::vector<SensorSpec> wrong_id(1);
  wrong_id[0].id = 5;
  wrong_id[0].battery_capacity = 100.0;
  EXPECT_THROW(Network(std::move(wrong_id), {0, 0}, 10.0), PreconditionError);

  std::vector<SensorSpec> bad_range(1);
  bad_range[0].id = 0;
  bad_range[0].battery_capacity = 100.0;
  EXPECT_THROW(Network(std::move(bad_range), {0, 0}, 0.0), PreconditionError);
}

TEST(Network, LineAdjacency) {
  const Network net = make_line(4);
  EXPECT_EQ(net.size(), 4u);
  // Chain: each interior node has 2 neighbours, ends have 1.
  EXPECT_EQ(net.neighbors(0).size(), 1u);
  EXPECT_EQ(net.neighbors(1).size(), 2u);
  EXPECT_EQ(net.neighbors(2).size(), 2u);
  EXPECT_EQ(net.neighbors(3).size(), 1u);
  // Only node 0 reaches the sink directly (10 <= 12).
  EXPECT_TRUE(net.sink_reachable(0));
  EXPECT_FALSE(net.sink_reachable(1));
  ASSERT_EQ(net.sink_neighbors().size(), 1u);
  EXPECT_EQ(net.sink_neighbors()[0], 0u);
}

TEST(Network, DistanceHelpers) {
  const Network net = make_line(3);
  EXPECT_DOUBLE_EQ(net.distance(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(net.distance_to_sink(1), 20.0);
  EXPECT_THROW(net.node(99), PreconditionError);
}

TEST(Connectivity, LineIsConnected) {
  const Network net = make_line(5);
  EXPECT_TRUE(is_connected(net));
  EXPECT_EQ(count_sink_connected(net), 5u);
}

TEST(Connectivity, KillingMiddleDisconnectsTail) {
  const Network net = make_line(5);
  Bitmap alive(5, true);
  alive.reset(2);
  EXPECT_FALSE(is_connected(net, alive));
  // Nodes 0, 1 still reach the sink.
  EXPECT_EQ(count_sink_connected(net, alive), 2u);
}

TEST(Connectivity, AliveMaskSizeMismatchThrows) {
  const Network net = make_line(3);
  Bitmap bad(2, true);
  EXPECT_THROW(count_sink_connected(net, bad), PreconditionError);
}

TEST(Topology, GeneratorsProduceConnectedNetworks) {
  for (const Deployment dep :
       {Deployment::Uniform, Deployment::Grid, Deployment::Clustered}) {
    TopologyConfig cfg;
    cfg.node_count = 60;
    cfg.comm_range = 25.0;
    cfg.deployment = dep;
    Rng rng(17);
    const Network net = generate_topology(cfg, rng);
    EXPECT_EQ(net.size(), 60u);
    EXPECT_TRUE(is_connected(net));
    for (const SensorSpec& spec : net.nodes()) {
      EXPECT_TRUE(cfg.region.contains(spec.position));
      EXPECT_GT(spec.data_rate_bps, 0.0);
    }
  }
}

TEST(Topology, CorridorPlacesNodesInBands) {
  TopologyConfig cfg;
  cfg.node_count = 50;
  cfg.comm_range = 30.0;
  cfg.deployment = Deployment::Corridor;
  cfg.corridor_count = 3;  // 2 horizontal + 1 vertical
  Rng rng(23);
  const Network net = generate_topology(cfg, rng);
  EXPECT_TRUE(is_connected(net));

  // Every node sits inside one corridor band (half-band around an axis).
  const double w = cfg.region.hi.x - cfg.region.lo.x;
  const double h = cfg.region.hi.y - cfg.region.lo.y;
  const double band = 0.1 * std::min(w, h);
  const std::size_t nh = (cfg.corridor_count + 1) / 2;
  const std::size_t nv = cfg.corridor_count - nh;
  for (const SensorSpec& spec : net.nodes()) {
    bool in_band = false;
    for (std::size_t c = 0; c < nh; ++c) {
      const double yc = cfg.region.lo.y + (double(c) + 0.5) * h / double(nh);
      if (std::abs(spec.position.y - yc) <= band / 2.0 + 1e-9) in_band = true;
    }
    for (std::size_t c = 0; c < nv; ++c) {
      const double xc = cfg.region.lo.x + (double(c) + 0.5) * w / double(nv);
      if (std::abs(spec.position.x - xc) <= band / 2.0 + 1e-9) in_band = true;
    }
    EXPECT_TRUE(in_band) << "node " << spec.id << " at (" << spec.position.x
                         << ", " << spec.position.y << ") outside all bands";
  }
}

TEST(Topology, HeterogeneousClassesScaleWithinRatio) {
  TopologyConfig cfg;
  cfg.node_count = 60;
  cfg.comm_range = 25.0;
  cfg.class_count = 3;
  cfg.class_capacity_ratio = 2.0;
  cfg.class_rate_ratio = 1.5;
  Rng rng(29);
  const Network net = generate_topology(cfg, rng);

  std::set<double> capacities;
  for (const SensorSpec& spec : net.nodes()) {
    EXPECT_GE(spec.battery_capacity, cfg.battery_capacity - 1e-9);
    EXPECT_LE(spec.battery_capacity,
              cfg.battery_capacity * cfg.class_capacity_ratio + 1e-9);
    EXPECT_GT(spec.data_rate_bps, 0.0);
    capacities.insert(spec.battery_capacity);
  }
  // Three classes on 60 draws: more than one tier must actually appear.
  EXPECT_GE(capacities.size(), 2u);
}

TEST(Topology, SingleClassMatchesHomogeneousDraws) {
  // class_count = 1 must not consume any rng draws, so seeded topologies
  // generated before heterogeneity existed are reproduced bit-for-bit.
  TopologyConfig homo;
  homo.node_count = 40;
  homo.comm_range = 30.0;
  TopologyConfig classed = homo;
  classed.class_count = 1;
  classed.class_capacity_ratio = 3.0;  // ignored with one class
  Rng r1(5), r2(5);
  const Network a = generate_topology(homo, r1);
  const Network b = generate_topology(classed, r2);
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.node(i).position, b.node(i).position);
    EXPECT_DOUBLE_EQ(a.node(i).battery_capacity, b.node(i).battery_capacity);
    EXPECT_DOUBLE_EQ(a.node(i).data_rate_bps, b.node(i).data_rate_bps);
  }
}

TEST(Network, RebuildAfterMoveMatchesFreshConstruction) {
  TopologyConfig cfg;
  cfg.node_count = 70;
  cfg.comm_range = 28.0;
  Rng rng(31);
  Network net = generate_topology(cfg, rng);

  // Move a third of the nodes, then rebuild in place.
  Rng move_rng(101);
  std::vector<SensorSpec> moved(net.nodes().begin(), net.nodes().end());
  for (NodeId id = 0; id < net.size(); id += 3) {
    const Vec2 p = {move_rng.uniform(0.0, 100.0),
                    move_rng.uniform(0.0, 100.0)};
    moved[id].position = p;
    net.set_position(id, p);
  }
  net.rebuild_adjacency();

  // In-place rebuild must equal a from-scratch Network: same CSR rows
  // (ascending, same order), same distances, same sink view.
  const Network fresh(std::move(moved), net.sink_position(),
                      net.comm_range());
  ASSERT_EQ(net.size(), fresh.size());
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto an = net.neighbors(id);
    const auto bn = fresh.neighbors(id);
    ASSERT_EQ(an.size(), bn.size()) << "node " << id;
    const auto ad = net.neighbor_distances(id);
    const auto bd = fresh.neighbor_distances(id);
    for (std::size_t i = 0; i < an.size(); ++i) {
      EXPECT_EQ(an[i], bn[i]) << "node " << id;
      EXPECT_DOUBLE_EQ(ad[i], bd[i]) << "node " << id;
    }
    EXPECT_EQ(net.sink_reachable(id), fresh.sink_reachable(id));
    EXPECT_DOUBLE_EQ(net.distance_to_sink(id), fresh.distance_to_sink(id));
  }
  EXPECT_EQ(std::vector<NodeId>(net.sink_neighbors().begin(),
                                net.sink_neighbors().end()),
            std::vector<NodeId>(fresh.sink_neighbors().begin(),
                                fresh.sink_neighbors().end()));
}

// Oracle for the grid build: the naive O(N^2) pairwise scan, every pair
// evaluated from both ends with geom::distance.  Rows and lengths must
// match bit for bit, as must the sink tables.
void expect_pairwise_adjacency(const Network& net, const char* label) {
  const Meters r = net.comm_range();
  std::size_t edges = 0;
  for (NodeId i = 0; i < net.size(); ++i) {
    std::vector<NodeId> ids;
    std::vector<std::uint64_t> bits;
    for (NodeId j = 0; j < net.size(); ++j) {
      if (j == i) continue;
      const Meters d =
          geom::distance(net.node(i).position, net.node(j).position);
      if (d <= r) {
        ids.push_back(j);
        bits.push_back(std::bit_cast<std::uint64_t>(d));
      }
    }
    const auto row = net.neighbors(i);
    const auto lengths = net.neighbor_distances(i);
    ASSERT_EQ(std::vector<NodeId>(row.begin(), row.end()), ids)
        << label << ": row " << i;
    ASSERT_EQ(lengths.size(), bits.size());
    for (std::size_t k = 0; k < bits.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(lengths[k]), bits[k])
          << label << ": edge " << i << "-" << ids[k];
    }
    edges += ids.size();

    const Meters ds = geom::distance(net.node(i).position, net.sink_position());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(net.distance_to_sink(i)),
              std::bit_cast<std::uint64_t>(ds))
        << label << ": sink distance " << i;
    EXPECT_EQ(net.sink_reachable(i), ds <= r) << label << ": sink edge " << i;
  }
  EXPECT_EQ(edges % 2, 0u) << label;
}

std::vector<SensorSpec> specs_at(const std::vector<Vec2>& points) {
  std::vector<SensorSpec> nodes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    nodes[i].id = static_cast<NodeId>(i);
    nodes[i].position = points[i];
  }
  return nodes;
}

TEST(Network, AdjacencyMatchesPairwiseScanWithPlantedBoundaryPairs) {
  // Random fields with partners planted at exactly comm_range from an
  // anchor, along the axes and at polar offsets: their squared lengths land
  // in the band where only hypot can decide, on either side of r.
  const Meters r = 20.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<Vec2> points;
    for (int i = 0; i < 150; ++i) {
      points.push_back({rng.uniform(0.0, 160.0), rng.uniform(0.0, 160.0)});
    }
    for (int i = 0; i < 40; ++i) {
      const Vec2 a{rng.uniform(0.0, 160.0), rng.uniform(0.0, 160.0)};
      const double theta = rng.uniform(0.0, 2.0 * 3.141592653589793);
      points.push_back(a);
      points.push_back(a + Vec2{r, 0.0});
      points.push_back(a - Vec2{0.0, r});
      points.push_back(a + Vec2{r * std::cos(theta), r * std::sin(theta)});
    }
    // Shuffle so planted partners are not adjacent ids.
    for (std::size_t i = points.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(points[i - 1], points[j]);
    }
    const Network net(specs_at(points), {80.0, 80.0}, r);
    expect_pairwise_adjacency(net, "planted");
  }

  // The planted axis pairs really sit on the boundary: an exact-r partner
  // is a neighbour, one ulp further out is not.
  const Vec2 a{3.0, 7.0};
  const Vec2 out{std::nextafter(a.x + r, 1e9), a.y};
  const Network edge(specs_at({a, a + Vec2{r, 0.0}, out}), {0.0, 0.0}, r);
  expect_pairwise_adjacency(edge, "boundary");
  EXPECT_EQ(edge.neighbors(0).size(), 1u);
}

TEST(Network, AdjacencyMatchesPairwiseScanOnDuplicatesAndSingletons) {
  const Network single(specs_at({{5.0, 5.0}}), {0.0, 0.0}, 10.0);
  expect_pairwise_adjacency(single, "single");
  EXPECT_TRUE(single.neighbors(0).empty());

  // Coincident nodes are neighbours at length 0, in ascending id order.
  const Network dup(
      specs_at({{1.0, 1.0}, {4.0, 4.0}, {1.0, 1.0}, {1.0, 1.0}, {30.0, 1.0}}),
      {0.0, 0.0}, 5.0);
  expect_pairwise_adjacency(dup, "duplicates");
  ASSERT_EQ(dup.neighbors(0).size(), 3u);
  EXPECT_EQ(dup.neighbor_distances(0)[1], 0.0);

  // A radius whose square is subnormal: rounding is no longer relative
  // there, so every pair must go through hypot.
  Rng rng(3);
  std::vector<Vec2> tiny;
  for (int i = 0; i < 60; ++i) {
    tiny.push_back({rng.uniform(0.0, 4e-160), rng.uniform(0.0, 4e-160)});
  }
  // An in-range pair whose subnormal squared length rounds past r^2.
  tiny.push_back({3e-160, 2e-160});
  tiny.push_back({3.148286952767903e-160, 2.9889442801328549e-160});
  const Network small(specs_at(tiny), {0.0, 0.0}, 1e-160);
  expect_pairwise_adjacency(small, "subnormal band");
  EXPECT_EQ(small.neighbors(60).back(), 61u);
}

TEST(Network, AdjacencyMatchesPairwiseScanWhenCellsAreCapped) {
  // 30 clumps of 3 nodes spread over a 1e6 m square with 10 m radios: the
  // comm_range grid would need ~1e10 cells, so the build doubles the cell
  // side until the grid fits in ~4N cells and scans wide cells instead.
  Rng rng(77);
  std::vector<Vec2> points;
  for (int c = 0; c < 30; ++c) {
    const Vec2 centre{rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)};
    points.push_back(centre);
    points.push_back(centre + Vec2{10.0, 0.0});
    points.push_back(centre + Vec2{rng.uniform(-9.0, 9.0), 6.0});
  }
  const Network net(specs_at(points), {5e5, 5e5}, 10.0);
  expect_pairwise_adjacency(net, "capped");
}

TEST(Network, AdjacencyMatchesPairwiseScanAfterRebuild) {
  TopologyConfig cfg;
  cfg.node_count = 120;
  cfg.comm_range = 22.0;
  Rng rng(59);
  Network net = generate_topology(cfg, rng);
  expect_pairwise_adjacency(net, "generated");
  Rng move_rng(5);
  for (NodeId id = 0; id < net.size(); id += 2) {
    const Vec2 p = net.node(id).position;
    net.set_position(id, (id % 4 == 0)
                             ? net.node(id + 1).position + Vec2{0.0, 22.0}
                             : Vec2{move_rng.uniform(0.0, 100.0), p.y});
  }
  net.rebuild_adjacency();
  expect_pairwise_adjacency(net, "rebuilt");
}

// The isolated set IsolationScan reports for `points` must be the one the
// Network built from the same points has: no neighbour and no sink link.
std::vector<NodeId> expect_scan_matches_network(const std::vector<Vec2>& points,
                                                Vec2 sink, Meters r,
                                                const std::string& label) {
  const std::vector<SensorSpec> specs = specs_at(points);
  const IsolationScan scan(specs, sink, r);
  const Network net(specs_at(points), sink, r);
  std::vector<NodeId> isolated;
  for (NodeId id = 0; id < net.size(); ++id) {
    const bool expected = net.neighbors(id).empty() && !net.sink_reachable(id);
    EXPECT_EQ(scan.isolated(id), expected) << label << ": node " << id;
    if (expected) isolated.push_back(id);
  }
  return isolated;
}

TEST(IsolationScan, MatchesNetworkOnNearThresholdDeployments) {
  // Sparse fields where a few nodes are stranded, with partners planted at
  // comm_range and one relative 1e-9 either side of it from random anchors,
  // so the band's hypot decides many of the pairs.
  const Meters r = 11.0;
  std::size_t stranded = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<Vec2> points;
    for (int i = 0; i < 70; ++i) {
      points.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    for (const double scale : {1.0, 1.0 - 1e-9, 1.0 + 1e-9}) {
      const Vec2 a{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      const double theta = rng.uniform(0.0, 2.0 * 3.141592653589793);
      points.push_back(a);
      points.push_back(a + Vec2{r * scale * std::cos(theta),
                                r * scale * std::sin(theta)});
    }
    const Vec2 sink{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    stranded += expect_scan_matches_network(points, sink, r,
                                            "seed " + std::to_string(seed))
                    .size();
  }
  EXPECT_GT(stranded, 20u);  // the fields really do strand nodes
}

TEST(IsolationScan, CraftedBoundaryDuplicateAndSinkCases) {
  const Meters r = 10.0;
  const Vec2 far_sink{1000.0, 1000.0};
  const Vec2 a{3.0, 7.0};
  // A pair at exactly comm_range is linked, so neither end is isolated.
  EXPECT_TRUE(expect_scan_matches_network({a, a + Vec2{r, 0.0}}, far_sink, r,
                                          "exact")
                  .empty());
  EXPECT_TRUE(expect_scan_matches_network({a, a + Vec2{0.0, -r}}, far_sink, r,
                                          "exact vertical")
                  .empty());
  // One relative 1e-9 inside and outside the radius.
  EXPECT_TRUE(expect_scan_matches_network(
                  {a, a + Vec2{r * (1.0 - 1e-9), 0.0}}, far_sink, r, "inside")
                  .empty());
  EXPECT_EQ(expect_scan_matches_network({a, a + Vec2{r * (1.0 + 1e-9), 0.0}},
                                        far_sink, r, "outside"),
            (std::vector<NodeId>{0, 1}));
  // One ulp past the radius.
  EXPECT_EQ(expect_scan_matches_network(
                {a, {std::nextafter(a.x + r, 1e9), a.y}}, far_sink, r, "ulp"),
            (std::vector<NodeId>{0, 1}));
  // Coincident nodes are each other's neighbours; a lone third is not.
  EXPECT_EQ(expect_scan_matches_network({a, {50.0, 50.0}, a, a}, far_sink, r,
                                        "duplicates"),
            (std::vector<NodeId>{1}));
  // A node with no neighbour that the sink reaches is not isolated, and the
  // sink's own boundary is the same closed disc.
  EXPECT_EQ(expect_scan_matches_network(
                {{50.0, 50.0}, {0.0, 0.0}, {90.0, 90.0}}, {0.0, r}, r,
                "sink only"),
            (std::vector<NodeId>{0, 2}));
  // A single node, inside and outside the sink's range.
  EXPECT_TRUE(
      expect_scan_matches_network({a}, a + Vec2{r, 0.0}, r, "one inside")
          .empty());
  EXPECT_EQ(expect_scan_matches_network(
                {a}, {std::nextafter(a.x + r, 1e9), a.y}, r, "one outside"),
            (std::vector<NodeId>{0}));
}

TEST(Network, RejectsNonFinitePositions) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Network(specs_at({{0.0, 0.0}, {inf, 1.0}}), {0, 0}, 10.0),
               PreconditionError);
  EXPECT_THROW(Network(specs_at({{nan, 0.0}}), {0, 0}, 10.0),
               PreconditionError);
  Network net = make_line(3);
  EXPECT_THROW(net.set_position(1, {0.0, -inf}), PreconditionError);
}

TEST(Coverage, CountsMatchBruteForce) {
  TopologyConfig cfg;
  cfg.node_count = 60;
  cfg.comm_range = 25.0;
  Rng rng(43);
  const Network net = generate_topology(cfg, rng);
  const Meters radius = 22.0;

  Bitmap alive(net.size(), true);
  alive.reset(7);
  alive.reset(19);

  CoverageIndex index;
  index.build(net, alive, radius);
  ASSERT_TRUE(index.built());

  const auto brute = [&](NodeId j) {
    std::size_t c = 0;
    for (NodeId i = 0; i < net.size(); ++i) {
      if (i == j || !alive.test(i)) continue;
      if (geom::distance(net.node(i).position, net.node(j).position) <=
          radius) {
        ++c;
      }
    }
    return c;
  };
  for (NodeId j = 0; j < net.size(); ++j) {
    EXPECT_EQ(index.coverers(j), brute(j)) << "node " << j;
  }

  // Incremental death updates must track the brute force recount.
  for (const NodeId dead : {NodeId{3}, NodeId{31}, NodeId{55}}) {
    index.on_death(net, dead);
    alive.reset(dead);
    for (NodeId j = 0; j < net.size(); ++j) {
      EXPECT_EQ(index.coverers(j), brute(j))
          << "after death of " << dead << ", node " << j;
    }
  }
}

TEST(Coverage, ParamsValidate) {
  CoverageParams p;
  p.k = 2;
  p.radius = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = CoverageParams{};
  p.k = 1;
  p.bonus = -0.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = CoverageParams{};  // disabled: always fine
  EXPECT_NO_THROW(p.validate());
}

TEST(Topology, ImpossibleDensityThrows) {
  TopologyConfig cfg;
  cfg.node_count = 5;
  cfg.comm_range = 2.0;  // 5 nodes on 100x100 with 2 m radios: hopeless
  cfg.max_attempts = 4;
  Rng rng(1);
  EXPECT_THROW(generate_topology(cfg, rng), SimulationError);
}

TEST(Topology, ConfigValidation) {
  TopologyConfig cfg;
  cfg.node_count = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = TopologyConfig{};
  cfg.comm_range = -1.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = TopologyConfig{};
  cfg.sink_at_center = false;
  cfg.sink_position = {1e9, 1e9};
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = TopologyConfig{};
  cfg.corridor_count = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = TopologyConfig{};
  cfg.class_count = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = TopologyConfig{};
  cfg.class_capacity_ratio = 0.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = TopologyConfig{};
  cfg.class_rate_ratio = -1.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Topology, ConfigRejectsNonFiniteValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<void (*)(TopologyConfig&, double)> setters = {
      [](TopologyConfig& c, double v) { c.region.lo.x = v; },
      [](TopologyConfig& c, double v) { c.region.lo.y = v; },
      [](TopologyConfig& c, double v) { c.region.hi.x = v; },
      [](TopologyConfig& c, double v) { c.region.hi.y = v; },
      [](TopologyConfig& c, double v) { c.comm_range = v; },
      [](TopologyConfig& c, double v) { c.min_separation = v; },
      [](TopologyConfig& c, double v) { c.mean_data_rate_bps = v; },
      [](TopologyConfig& c, double v) { c.battery_capacity = v; },
      [](TopologyConfig& c, double v) { c.cluster_sigma_fraction = v; },
      [](TopologyConfig& c, double v) { c.cluster_background_fraction = v; },
      [](TopologyConfig& c, double v) { c.class_capacity_ratio = v; },
      [](TopologyConfig& c, double v) { c.class_rate_ratio = v; },
      [](TopologyConfig& c, double v) { c.sink_position.x = v; },
      [](TopologyConfig& c, double v) { c.sink_position.y = v; },
  };
  for (std::size_t k = 0; k < setters.size(); ++k) {
    for (const double bad : {inf, -inf, nan}) {
      TopologyConfig cfg;
      setters[k](cfg, bad);
      EXPECT_THROW(cfg.validate(), ConfigError) << "field " << k;
    }
  }
  // The whole-region case that used to crash generation outright.
  TopologyConfig cfg;
  cfg.region = {{0.0, 0.0}, {inf, inf}};
  Rng rng(1);
  EXPECT_THROW(generate_topology(cfg, rng), ConfigError);
}

TEST(Topology, DeterministicForSameSeed) {
  TopologyConfig cfg;
  cfg.node_count = 40;
  cfg.comm_range = 30.0;
  Rng r1(5), r2(5);
  const Network a = generate_topology(cfg, r1);
  const Network b = generate_topology(cfg, r2);
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.node(i).position, b.node(i).position);
    EXPECT_DOUBLE_EQ(a.node(i).data_rate_bps, b.node(i).data_rate_bps);
  }
}

/// Folds every bit the generator produces: positions, data rates and
/// capacities, the attempts it took, and the rng's next draw, which proves
/// the stream was consumed exactly as before.
std::uint64_t topology_digest(const TopologyConfig& cfg, std::uint64_t seed) {
  obs::MetricRegistry registry;
  const obs::ScopedRegistry scope(&registry);
  Rng rng(seed);
  const Network net = generate_topology(cfg, rng);
  Fnv fnv;
  for (const SensorSpec& s : net.nodes()) {
    fnv.mix(s.position.x);
    fnv.mix(s.position.y);
    fnv.mix(s.data_rate_bps);
    fnv.mix(s.battery_capacity);
  }
  fnv.mix(registry.value(obs::Metric::kNetTopologyAttempts));
  fnv.mix(rng.uniform());
  return fnv.hash();
}

TEST(Topology, GeneratorOutputsArePinned) {
  struct Case {
    std::string name;
    TopologyConfig cfg;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  std::vector<Case> cases;
  // All four deployments, homogeneous and with three node classes.  Each
  // deployment's radio sits near its connectivity threshold at 120 nodes,
  // so several seeds need more than one attempt.
  const std::uint64_t deployment_digests[4][2][3] = {
      {{1013330192585560306ull, 17883982094741723558ull,
        2368409321592467925ull},
       {16441534769027300524ull, 12067433633500470337ull,
        4843283522982135501ull}},
      {{488896657721385604ull, 13536461258642887439ull,
        11664087051211599418ull},
       {8643764340294360621ull, 11019750140188857162ull,
        6162985930370858989ull}},
      {{13904605590692984796ull, 3170825942609925724ull,
        10025388964463377091ull},
       {7226337867226564195ull, 2828102768705894775ull,
        16680185089180915848ull}},
      {{16445173166991993722ull, 16856909245375511310ull,
        11088345255127717922ull},
       {7366247346419843357ull, 10501995600035369784ull,
        14055086283633381608ull}},
  };
  const Deployment deployments[] = {Deployment::Uniform, Deployment::Grid,
                                    Deployment::Clustered,
                                    Deployment::Corridor};
  const Meters comm_ranges[] = {14.0, 11.0, 22.0, 12.0};
  for (int d = 0; d < 4; ++d) {
    for (int classed = 0; classed < 2; ++classed) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        TopologyConfig cfg;
        cfg.node_count = 120;
        cfg.comm_range = comm_ranges[d];
        cfg.deployment = deployments[d];
        if (classed) {
          cfg.class_count = 3;
          cfg.class_capacity_ratio = 2.0;
          cfg.class_rate_ratio = 1.5;
        }
        cases.push_back({"deployment " + std::to_string(d) + " classed " +
                             std::to_string(classed) + " seed " +
                             std::to_string(seed),
                         cfg, seed, deployment_digests[d][classed][seed - 1]});
      }
    }
  }
  // The perfbench attack-1k6 geometry: 1600 nodes on 1600 m with 65 m
  // radios, which takes many attempts per connected deployment.
  const std::uint64_t attack_digests[] = {8499878136993306256ull, 3146523081928623566ull,
                                          13294586076347846746ull};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    TopologyConfig cfg;
    cfg.node_count = 1600;
    cfg.region = {{0.0, 0.0}, {1600.0, 1600.0}};
    cfg.comm_range = 65.0;
    cfg.mean_data_rate_bps = 12'000.0;
    cfg.min_separation = 2.0;
    cases.push_back({"attack-1k6 seed " + std::to_string(seed), cfg, seed,
                     attack_digests[seed - 1]});
  }
  // 300 nodes in a 20 m square with a 2 m separation: the placement runs
  // out of its 32 tries and falls back to accepting the candidate.
  TopologyConfig crowded;
  crowded.node_count = 300;
  crowded.region = {{0.0, 0.0}, {20.0, 20.0}};
  crowded.comm_range = 3.0;
  crowded.min_separation = 2.0;
  cases.push_back({"crowded", crowded, 4, 10381897230259747298ull});
  crowded.deployment = Deployment::Corridor;
  cases.push_back({"crowded corridor", crowded, 4, 7004997887657456212ull});
  // An explicit sink near a corner; seed 6 rejects one deployment.
  TopologyConfig cornered;
  cornered.node_count = 120;
  cornered.comm_range = 14.0;
  cornered.sink_at_center = false;
  cornered.sink_position = {10.0, 85.0};
  cases.push_back({"explicit sink", cornered, 6, 4933747774182086565ull});

  for (const Case& c : cases) {
    EXPECT_EQ(topology_digest(c.cfg, c.seed), c.digest) << c.name;
  }
}

TEST(Topology, UniformPlacementMatchesLinearScanOracle) {
  // The generator rebuilt from its spec with no index at all: each
  // candidate is checked against every accepted point with hypot, up to 32
  // retries; each attempt then draws one data rate per node, and the first
  // connected deployment wins.  Regions off the origin, separations from a
  // sliver of the spacing to one that crowds out most candidates.
  struct Shape {
    geom::Rect region;
    std::size_t nodes;
    Meters comm_range;
    Meters min_sep;
  };
  const Shape shapes[] = {
      {{{-50.0, 20.0}, {150.0, 170.0}}, 150, 26.0, 1.0},
      {{{0.0, 0.0}, {100.0, 100.0}}, 150, 16.0, 6.0},
      {{{3.0, -7.0}, {33.0, 23.0}}, 200, 4.0, 2.0},
      {{{0.0, 0.0}, {1e-3, 1e-3}}, 60, 3e-4, 1e-4},
  };
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      TopologyConfig cfg;
      cfg.region = shape.region;
      cfg.node_count = shape.nodes;
      cfg.comm_range = shape.comm_range;
      cfg.min_separation = shape.min_sep;
      Rng expected_rng(seed);
      std::vector<Vec2> expected;
      for (bool connected = false; !connected;) {
        expected.clear();
        const auto draw = [&] {
          return Vec2{expected_rng.uniform(cfg.region.lo.x, cfg.region.hi.x),
                      expected_rng.uniform(cfg.region.lo.y, cfg.region.hi.y)};
        };
        const auto separated = [&](Vec2 c) {
          return std::none_of(expected.begin(), expected.end(), [&](Vec2 p) {
            return geom::distance(p, c) < cfg.min_separation;
          });
        };
        while (expected.size() < cfg.node_count) {
          Vec2 candidate = draw();
          for (int tries = 0; tries < 32 && !separated(candidate); ++tries) {
            candidate = draw();
          }
          expected.push_back(candidate);
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
          expected_rng.uniform(0.5 * cfg.mean_data_rate_bps,
                               1.5 * cfg.mean_data_rate_bps);
        }
        connected = is_connected(
            Network(specs_at(expected), cfg.region.center(), cfg.comm_range));
      }
      Rng rng(seed);
      const Network net = generate_topology(cfg, rng);
      ASSERT_EQ(net.size(), expected.size());
      for (NodeId id = 0; id < net.size(); ++id) {
        ASSERT_EQ(net.node(id).position, expected[id])
            << "shape " << &shape - shapes << " seed " << seed << " node "
            << id;
      }
      EXPECT_EQ(rng.uniform(), expected_rng.uniform());
    }
  }
}

TEST(Routing, LineBuildsChainTree) {
  const Network net = make_line(4);
  const RoutingTree tree = build_routing_tree(net);
  EXPECT_TRUE(tree.reachable[0]);
  EXPECT_TRUE(tree.reachable[3]);
  EXPECT_EQ(tree.parent[0], kInvalidNode);  // direct to sink
  EXPECT_EQ(tree.parent[1], 0u);
  EXPECT_EQ(tree.parent[2], 1u);
  EXPECT_EQ(tree.parent[3], 2u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(tree.uplink_distance[i], 10.0);
  }
}

TEST(Routing, PathCostsIncreaseAlongChain) {
  const Network net = make_line(4);
  const RoutingTree tree = build_routing_tree(net);
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_GT(tree.path_cost[i], tree.path_cost[i - 1]);
  }
}

TEST(Routing, DeadNodesAreUnreachable) {
  const Network net = make_line(4);
  Bitmap alive(4, true);
  alive.reset(1);
  const RoutingTree tree = build_routing_tree(net, alive);
  EXPECT_TRUE(tree.reachable[0]);
  EXPECT_FALSE(tree.reachable[1]);
  EXPECT_FALSE(tree.reachable[2]);  // cut off behind the dead node
  EXPECT_FALSE(tree.reachable[3]);
}

TEST(Routing, SettleOrderIsTopological) {
  TopologyConfig cfg;
  cfg.node_count = 50;
  cfg.comm_range = 30.0;
  Rng rng(3);
  const Network net = generate_topology(cfg, rng);
  const RoutingTree tree = build_routing_tree(net);
  // A parent must settle before its child.
  std::vector<int> position(net.size(), -1);
  for (std::size_t i = 0; i < tree.settle_order.size(); ++i) {
    position[tree.settle_order[i]] = static_cast<int>(i);
  }
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!tree.reachable[id] || tree.parent[id] == kInvalidNode) continue;
    EXPECT_LT(position[tree.parent[id]], position[id]);
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// The reachable node with the largest routing subtree.
NodeId largest_subtree_root(const RoutingTree& tree) {
  std::vector<std::size_t> size(tree.parent.size(), 0);
  NodeId best = kInvalidNode;
  for (auto it = tree.settle_order.rbegin(); it != tree.settle_order.rend();
       ++it) {
    const NodeId u = *it;
    size[u] += 1;
    if (tree.parent[u] != kInvalidNode) size[tree.parent[u]] += size[u];
  }
  for (const NodeId u : tree.settle_order) {
    if (best == kInvalidNode || size[u] > size[best]) best = u;
  }
  return best;
}

/// Kills `deaths` nodes one at a time, repairing the tree after each death.
/// The first and the last death take the node with the largest routing
/// subtree; every tenth takes a sink neighbour while more than two survive
/// (past that, cutting the sink's few uplinks would leave nothing to
/// repair); one in ten takes any alive node, possibly one already cut off;
/// the rest take random reachable nodes.  After every death the repaired
/// tree, and loads and drains refreshed from it, must be bit-identical to a
/// fresh build over the same alive mask.
void check_repair_against_rebuild(const Network& network, std::size_t deaths,
                                  std::uint64_t seed) {
  const std::size_t n = network.size();
  Rng rng(seed);
  Bitmap alive(n, true);
  RoutingTree tree;
  RoutingScratch scratch;
  scratch.reserve(n);
  rebuild_routing_tree(network, alive, {}, tree, scratch);
  TrafficLoads loads;
  std::vector<Watts> drain;
  std::size_t repaired = 0;
  const auto pick = [&rng](const std::vector<NodeId>& ids) {
    return ids[std::size_t(rng.uniform_int(0, std::int64_t(ids.size()) - 1))];
  };
  for (std::size_t k = 0; k < deaths; ++k) {
    std::vector<NodeId> uplinks;
    for (const NodeId id : network.sink_neighbors()) {
      if (alive[id]) uplinks.push_back(id);
    }
    NodeId victim = kInvalidNode;
    if (k == 0 || k + 1 == deaths) {
      victim = largest_subtree_root(tree);
    } else if (k % 10 == 1 && uplinks.size() > 2) {
      victim = pick(uplinks);
    } else if (k % 10 != 9 && !tree.settle_order.empty()) {
      victim = pick(tree.settle_order);
    }
    while (victim == kInvalidNode || !alive[victim]) {
      victim = static_cast<NodeId>(rng.uniform_int(0, std::int64_t(n) - 1));
    }
    const bool was_reachable = tree.reachable[victim];
    alive.reset(victim);
    const std::size_t detached = repair_routing_after_death(
        network, alive, {}, victim, tree, scratch);
    EXPECT_EQ(detached == 0, !was_reachable);
    if (detached > 0) ++repaired;
    recompute_loads(network, tree, alive, loads);
    recompute_drain_rates(network, tree, loads, {}, drain);

    const RoutingTree fresh = build_routing_tree(network, alive);
    const TrafficLoads fresh_loads = compute_loads(network, fresh, alive);
    const std::vector<Watts> fresh_drain =
        compute_drain_rates(network, fresh, fresh_loads);
    SCOPED_TRACE("death " + std::to_string(k) + " (node " +
                 std::to_string(victim) + ")");
    ASSERT_EQ(tree.parent, fresh.parent);
    ASSERT_TRUE(tree.reachable == fresh.reachable);
    ASSERT_EQ(tree.settle_order, fresh.settle_order);
    ASSERT_TRUE(same_bits(tree.path_cost, fresh.path_cost));
    ASSERT_TRUE(same_bits(tree.uplink_distance, fresh.uplink_distance));
    ASSERT_TRUE(same_bits(loads.tx_bps, fresh_loads.tx_bps));
    ASSERT_TRUE(same_bits(loads.rx_bps, fresh_loads.rx_bps));
    ASSERT_TRUE(same_bits(drain, fresh_drain));
  }
  // The sequence must exercise real repairs, not only unreachable deaths.
  EXPECT_GE(repaired, deaths / 2);
}

/// A deployment at the calibrated density (40*sqrt(N) m square field).
Network calibrated_network(std::size_t n, Meters comm_range,
                           std::uint64_t seed) {
  TopologyConfig cfg;
  cfg.node_count = n;
  const double side = 40.0 * std::sqrt(double(n));
  cfg.region = {{0.0, 0.0}, {side, side}};
  cfg.comm_range = comm_range;
  Rng rng(seed);
  return generate_topology(cfg, rng);
}

TEST(Routing, RepairMatchesFullRebuildAt1600Nodes) {
  const Network network = calibrated_network(1'600, 65.0, 42);
  check_repair_against_rebuild(network, 400, 1);
}

TEST(Routing, RepairMatchesFullRebuildAt10000Nodes) {
  const Network network = calibrated_network(10'000, 80.0, 42);
  check_repair_against_rebuild(network, 100, 2);
}

/// Textbook Dijkstra over an ordered set of (cost, id), sharing no code
/// with the routing frontier: the oracle that rebuild_routing_tree and
/// repair_routing_after_death must match bit for bit.  Sink uplinks seed
/// first, in sink_neighbors() order; a relaxation must be strictly cheaper;
/// nodes settle in ascending (cost, id).
RoutingTree oracle_routing_tree(const Network& network, const Bitmap& alive,
                                double hop_cost) {
  const std::size_t n = network.size();
  RoutingTree tree;
  tree.parent.assign(n, kInvalidNode);
  tree.reachable.assign(n, false);
  tree.uplink_distance.assign(n, 0.0);
  tree.path_cost.assign(n, std::numeric_limits<double>::infinity());
  std::set<std::pair<double, NodeId>> queue;
  const auto relax = [&](NodeId v, double cost, NodeId parent, Meters d) {
    if (!alive[v] || tree.reachable[v] || !(cost < tree.path_cost[v])) return;
    queue.erase({tree.path_cost[v], v});
    tree.path_cost[v] = cost;
    tree.parent[v] = parent;
    tree.uplink_distance[v] = d;
    queue.insert({cost, v});
  };
  for (const NodeId id : network.sink_neighbors()) {
    const Meters d = network.distance_to_sink(id);
    relax(id, hop_cost + d * d, kInvalidNode, d);
  }
  while (!queue.empty()) {
    const auto [cost, u] = *queue.begin();
    queue.erase(queue.begin());
    tree.reachable.set(u);
    tree.settle_order.push_back(u);
    const auto nbrs = network.neighbors(u);
    const auto dist = network.neighbor_distances(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      relax(nbrs[k], cost + hop_cost + dist[k] * dist[k], u, dist[k]);
    }
  }
  return tree;
}

void expect_oracle_tree(const RoutingTree& tree, const RoutingTree& oracle) {
  ASSERT_EQ(tree.settle_order, oracle.settle_order);
  ASSERT_EQ(tree.parent, oracle.parent);
  ASSERT_TRUE(tree.reachable == oracle.reachable);
  ASSERT_TRUE(same_bits(tree.path_cost, oracle.path_cost));
  ASSERT_TRUE(same_bits(tree.uplink_distance, oracle.uplink_distance));
}

/// Rebuilds over `alive`, then kills up to `deaths` nodes one at a time,
/// repairing after each.  After the rebuild and after every repair the tree
/// must equal the oracle's over the same mask.  The first death takes the
/// root of the largest subtree; after it, seven deaths in ten take a random
/// reachable node and the rest a random alive node, possibly one already
/// cut off.
void check_against_oracle(const Network& network, Bitmap alive,
                          double hop_cost, std::size_t deaths,
                          std::uint64_t seed) {
  const std::size_t n = network.size();
  RoutingParams params;
  params.hop_cost = hop_cost;
  RoutingTree tree;
  RoutingScratch scratch;
  scratch.reserve(n);
  rebuild_routing_tree(network, alive, params, tree, scratch);
  {
    SCOPED_TRACE("rebuild");
    expect_oracle_tree(tree, oracle_routing_tree(network, alive, hop_cost));
    if (::testing::Test::HasFatalFailure()) return;
  }
  Rng rng(seed);
  std::size_t repaired = 0;
  for (std::size_t k = 0; k < deaths && alive.count() > 0; ++k) {
    NodeId victim = kInvalidNode;
    if (k == 0) {
      victim = largest_subtree_root(tree);
    } else if (k % 10 < 7 && !tree.settle_order.empty()) {
      victim = tree.settle_order[std::size_t(rng.uniform_int(
          0, std::int64_t(tree.settle_order.size()) - 1))];
    }
    while (victim == kInvalidNode || !alive[victim]) {
      victim = static_cast<NodeId>(rng.uniform_int(0, std::int64_t(n) - 1));
    }
    alive.reset(victim);
    if (repair_routing_after_death(network, alive, params, victim, tree,
                                   scratch) > 0) {
      ++repaired;
    }
    SCOPED_TRACE("death " + std::to_string(k) + " (node " +
                 std::to_string(victim) + ")");
    expect_oracle_tree(tree, oracle_routing_tree(network, alive, hop_cost));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(repaired, deaths / 2);
}

/// `n` random positions in a `side` x `side` square.
Network scattered_network(std::size_t n, Meters side, Vec2 sink,
                          Meters comm_range, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SensorSpec> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].id = static_cast<NodeId>(i);
    nodes[i].position = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  }
  return Network(std::move(nodes), sink, comm_range);
}

/// Each node independently dead with probability `p`.
Bitmap holed_mask(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  Bitmap alive(n, true);
  for (NodeId id = 0; id < n; ++id) {
    if (rng.bernoulli(p)) alive.reset(id);
  }
  return alive;
}

TEST(Routing, MatchesSetDijkstraOracleOnUniformDeploymentsWithHoles) {
  for (const std::uint64_t seed : {3, 11, 29}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Network network = calibrated_network(900, 65.0, seed);
    check_against_oracle(network, holed_mask(900, 0.1, seed), 1'000.0, 90,
                         seed);
    check_against_oracle(network, holed_mask(900, 0.1, seed), 25.0, 30,
                         seed + 1);
  }
}

TEST(Routing, MatchesSetDijkstraOracleOnIntegerLatticeTies) {
  // A 24 x 24 lattice 10 m apart with ids dealt in shuffled order, the
  // sink at a cell centre: every axis edge costs hop_cost + 100 exactly, so
  // whole rings of nodes share one path cost and only the id orders them.
  // The diagonal radius adds a second, equal-for-all edge length.
  constexpr std::size_t kSide = 24;
  for (const Meters comm_range : {10.5, 14.5}) {
    SCOPED_TRACE("comm_range " + std::to_string(comm_range));
    Rng rng(17);
    std::vector<Vec2> points;
    for (std::size_t i = 0; i < kSide; ++i) {
      for (std::size_t j = 0; j < kSide; ++j) {
        points.push_back({10.0 * double(i), 10.0 * double(j)});
      }
    }
    rng.shuffle(points);
    std::vector<SensorSpec> nodes(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      nodes[i].id = static_cast<NodeId>(i);
      nodes[i].position = points[i];
    }
    const Network network(std::move(nodes), {115.0, 115.0}, comm_range);
    check_against_oracle(network, Bitmap(points.size(), true), 1'000.0, 60,
                         5);
    check_against_oracle(network, holed_mask(points.size(), 0.05, 7),
                         1'000.0, 60, 6);
  }
}

TEST(Routing, MatchesSetDijkstraOracleWhenEveryNodeIsInRange) {
  // A 100 km radio over a 20 km field: every node neighbours every other,
  // and the sink, 85 km west of the field, reaches most of them over
  // edges costing ~1e10, so trees run deep through node-to-node edges of
  // up to ~8e8.  The hop costs sweep the frontier's regimes: labels
  // thousands of ring widths apart (1000), a handful of wide buckets
  // holding every label (1e9), and bucket indices past 2^50, where labels
  // settle one at a time (1e-300).
  const Network network =
      scattered_network(160, 20'000.0, {-85'000.0, 10'000.0}, 1e5, 23);
  ASSERT_EQ(network.neighbors(0).size(), 159u);
  ASSERT_GT(network.sink_neighbors().size(), 80u);
  for (const double hop_cost : {1'000.0, 1e9, 1e-300}) {
    SCOPED_TRACE("hop_cost " + std::to_string(hop_cost));
    check_against_oracle(network, Bitmap(160, true), hop_cost, 40, 9);
    check_against_oracle(network, holed_mask(160, 0.2, 4), hop_cost, 40, 10);
  }
}

TEST(Routing, RejectsNonPositiveHopCost) {
  const Network net = make_line(4);
  RoutingTree tree;
  RoutingScratch scratch;
  Bitmap alive(4, true);
  for (const double hop_cost :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    RoutingParams params;
    params.hop_cost = hop_cost;
    EXPECT_THROW(rebuild_routing_tree(net, alive, params, tree, scratch),
                 PreconditionError);
  }
  rebuild_routing_tree(net, alive, {}, tree, scratch);
  alive.reset(1);
  RoutingParams zero;
  zero.hop_cost = 0.0;
  EXPECT_THROW(
      repair_routing_after_death(net, alive, zero, 1, tree, scratch),
      PreconditionError);
}

TEST(Loads, LineAggregatesDownstreamTraffic) {
  const Network net = make_line(4);  // each node generates 1000 bps
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);
  EXPECT_DOUBLE_EQ(loads.tx_bps[3], 1000.0);
  EXPECT_DOUBLE_EQ(loads.tx_bps[2], 2000.0);
  EXPECT_DOUBLE_EQ(loads.tx_bps[1], 3000.0);
  EXPECT_DOUBLE_EQ(loads.tx_bps[0], 4000.0);
  EXPECT_DOUBLE_EQ(loads.rx_bps[0], 3000.0);
  EXPECT_DOUBLE_EQ(loads.rx_bps[3], 0.0);
}

TEST(Loads, TrafficConservation) {
  // Total tx at sink uplinks equals total generated by reachable nodes.
  TopologyConfig cfg;
  cfg.node_count = 80;
  cfg.comm_range = 30.0;
  Rng rng(11);
  const Network net = generate_topology(cfg, rng);
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);

  double generated = 0.0;
  for (const SensorSpec& spec : net.nodes()) generated += spec.data_rate_bps;
  double into_sink = 0.0;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (tree.reachable[id] && tree.parent[id] == kInvalidNode) {
      into_sink += loads.tx_bps[id];
    }
  }
  EXPECT_NEAR(into_sink, generated, 1e-6);
}

TEST(Drains, SensingFloorAlwaysPaid) {
  const Network net = make_line(3);
  Bitmap alive(3, true);
  alive.reset(0);  // nodes 1, 2 unreachable
  const RoutingTree tree = build_routing_tree(net, alive);
  const TrafficLoads loads = compute_loads(net, tree, alive);
  DrainParams params;
  params.sensing_power = 0.005;
  const auto drains = compute_drain_rates(net, tree, loads, params);
  EXPECT_DOUBLE_EQ(drains[1], 0.005);  // unreachable: sensing only
  EXPECT_DOUBLE_EQ(drains[2], 0.005);
}

TEST(Drains, RelayDrainsMoreThanLeaf) {
  const Network net = make_line(4);
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);
  const auto drains = compute_drain_rates(net, tree, loads);
  EXPECT_GT(drains[0], drains[3]);
  EXPECT_GT(drains[1], drains[2]);
}

TEST(KeyNodes, LineInteriorNodesAreArticulation) {
  const Network net = make_line(4);
  const auto cuts = articulation_points(net);
  // All but the last node are cut vertices of the sink-rooted chain.
  const std::set<NodeId> cut_set(cuts.begin(), cuts.end());
  EXPECT_TRUE(cut_set.count(0));
  EXPECT_TRUE(cut_set.count(1));
  EXPECT_TRUE(cut_set.count(2));
  EXPECT_FALSE(cut_set.count(3));
}

TEST(KeyNodes, TriangleHasNoArticulation) {
  // Three mutually-connected nodes all adjacent to the sink: no cuts.
  std::vector<SensorSpec> nodes(3);
  for (NodeId i = 0; i < 3; ++i) {
    nodes[i].id = i;
    nodes[i].data_rate_bps = 100.0;
  }
  nodes[0].position = {5.0, 0.0};
  nodes[1].position = {0.0, 5.0};
  nodes[2].position = {4.0, 4.0};
  const Network net(std::move(nodes), {0.0, 0.0}, 10.0);
  EXPECT_TRUE(articulation_points(net).empty());
}

TEST(KeyNodes, TarjanMatchesBruteForce) {
  // Property check on random graphs: a node is an articulation point iff
  // removing it disconnects some alive node from the sink.
  for (int seed = 1; seed <= 5; ++seed) {
    TopologyConfig cfg;
    cfg.node_count = 40;
    cfg.comm_range = 24.0;
    Rng rng(static_cast<std::uint64_t>(seed));
    const Network net = generate_topology(cfg, rng);
    const auto cuts = articulation_points(net);
    const std::set<NodeId> cut_set(cuts.begin(), cuts.end());

    const std::size_t base = count_sink_connected(net);
    for (NodeId id = 0; id < net.size(); ++id) {
      Bitmap alive(net.size(), true);
      alive.reset(id);
      const std::size_t connected = count_sink_connected(net, alive);
      const bool disconnects = connected < base - 1;
      EXPECT_EQ(cut_set.count(id) > 0, disconnects)
          << "seed " << seed << " node " << id;
    }
  }
}

// Brute-force oracles for the key-node survey over an alive mask: a node's
// disconnect count is how many other alive nodes lose the sink when it
// dies; a cut vertex is one whose death splits its component of the alive
// graph plus the sink.
std::size_t brute_disconnects(const Network& net, const Bitmap& alive,
                              NodeId v) {
  Bitmap without = alive;
  without.reset(v);
  const std::size_t lost =
      count_sink_connected(net, alive) - count_sink_connected(net, without);
  return lost > 0 ? lost - 1 : 0;
}

std::size_t component_count(const Network& net, const Bitmap& alive) {
  const std::size_t sink = net.size();
  std::vector<bool> seen(net.size() + 1, false);
  std::size_t components = 0;
  for (std::size_t root = 0; root <= sink; ++root) {
    if (seen[root] || (root < sink && !alive.test(root))) continue;
    ++components;
    std::vector<std::size_t> todo{root};
    seen[root] = true;
    while (!todo.empty()) {
      const std::size_t v = todo.back();
      todo.pop_back();
      std::vector<std::size_t> next;
      if (v == sink) {
        next.assign(net.sink_neighbors().begin(), net.sink_neighbors().end());
      } else {
        next.assign(net.neighbors(NodeId(v)).begin(),
                    net.neighbors(NodeId(v)).end());
        if (net.sink_reachable(NodeId(v))) next.push_back(sink);
      }
      for (const std::size_t u : next) {
        if (seen[u] || (u < sink && !alive.test(u))) continue;
        seen[u] = true;
        todo.push_back(u);
      }
    }
  }
  return components;
}

void expect_survey_matches_brute_force(const Network& net,
                                       const Bitmap& alive,
                                       const std::string& label) {
  const auto ranked = rank_key_nodes(net, TrafficLoads{}, alive);
  ASSERT_EQ(ranked.size(), alive.count()) << label;
  for (const KeyNodeInfo& info : ranked) {
    EXPECT_EQ(info.disconnect_count, brute_disconnects(net, alive, info.id))
        << label << " node " << info.id;
  }
  const auto cuts = articulation_points(net, alive);
  const std::set<NodeId> cut_set(cuts.begin(), cuts.end());
  const std::size_t base = component_count(net, alive);
  for (NodeId v = 0; v < net.size(); ++v) {
    if (!alive.test(v)) continue;
    Bitmap without = alive;
    without.reset(v);
    // Removing an isolated vertex drops a component; a cut adds at least one.
    EXPECT_EQ(cut_set.count(v) > 0, component_count(net, without) > base)
        << label << " node " << v;
  }
}

TEST(KeyNodes, DisconnectCountsMatchBruteForceUnderAliveMasks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TopologyConfig cfg;
    cfg.node_count = 70;
    cfg.comm_range = 22.0;
    Rng rng(seed);
    const Network net = generate_topology(cfg, rng);
    Bitmap alive(net.size(), true);
    expect_survey_matches_brute_force(net, alive, "all alive");
    // Kill a growing random share: stranded components appear, some with
    // internal cut vertices that disconnect nothing from the sink.
    Rng kill_rng(seed * 1000);
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 6; ++k) {
        alive.reset(static_cast<NodeId>(kill_rng.uniform_int(
            0, static_cast<std::int64_t>(net.size()) - 1)));
      }
      expect_survey_matches_brute_force(
          net, alive, "seed " + std::to_string(seed) + " round " +
                          std::to_string(round));
    }
  }
}

TEST(KeyNodes, SinkAdjacentCutAndStrandedChain) {
  // sink - 0 - 1 - 2 and a detached chain 3 - 4 - 5 far away: node 0 is a
  // sink-adjacent cut, node 4 is a cut of a component with no sink path.
  std::vector<SensorSpec> nodes(6);
  const Vec2 at[] = {{10, 0}, {20, 0}, {30, 0}, {100, 0}, {110, 0}, {120, 0}};
  for (NodeId i = 0; i < 6; ++i) {
    nodes[i].id = i;
    nodes[i].position = at[i];
  }
  const Network net(std::move(nodes), {0.0, 0.0}, 12.0);
  const auto ranked = rank_key_nodes(net, TrafficLoads{});
  ASSERT_EQ(ranked[0].id, 0u);
  EXPECT_EQ(ranked[0].disconnect_count, 2u);
  const auto cuts = articulation_points(net);
  EXPECT_EQ(cuts, (std::vector<NodeId>{0, 1, 4}));
  expect_survey_matches_brute_force(net, Bitmap(6, true), "hand-built");
  for (const KeyNodeInfo& info : ranked) {
    if (info.id >= 3) {
      EXPECT_EQ(info.disconnect_count, 0u);
    }
  }
}

TEST(KeyNodes, RankOrdersByDisconnectThenTraffic) {
  const Network net = make_line(5);
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);
  const auto ranked = rank_key_nodes(net, loads);
  ASSERT_EQ(ranked.size(), 5u);
  // Node 0 disconnects 4 others, node 1 disconnects 3, etc.
  EXPECT_EQ(ranked[0].id, 0u);
  EXPECT_EQ(ranked[0].disconnect_count, 4u);
  EXPECT_EQ(ranked[1].id, 1u);
  EXPECT_EQ(ranked[1].disconnect_count, 3u);
  EXPECT_EQ(ranked.back().id, 4u);
  EXPECT_EQ(ranked.back().disconnect_count, 0u);
}

TEST(KeyNodes, SelectArticulationStopsAtNonCuts) {
  const Network net = make_line(5);
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);
  KeyNodeConfig cfg;
  cfg.rule = KeyNodeRule::Articulation;
  cfg.max_count = 10;
  const auto keys = select_key_nodes(net, loads, cfg);
  EXPECT_EQ(keys.size(), 4u);  // node 4 is not a cut vertex
}

TEST(KeyNodes, SelectTopTraffic) {
  const Network net = make_line(5);
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);
  KeyNodeConfig cfg;
  cfg.rule = KeyNodeRule::TopTraffic;
  cfg.max_count = 2;
  const auto keys = select_key_nodes(net, loads, cfg);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], 0u);  // carries everything
  EXPECT_EQ(keys[1], 1u);
}

TEST(KeyNodes, HybridFillsWithTraffic) {
  const Network net = make_line(5);
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);
  KeyNodeConfig cfg;
  cfg.rule = KeyNodeRule::Hybrid;
  cfg.max_count = 5;
  const auto keys = select_key_nodes(net, loads, cfg);
  EXPECT_EQ(keys.size(), 5u);  // 4 cuts + node 4 via traffic fill
  const std::set<NodeId> key_set(keys.begin(), keys.end());
  EXPECT_TRUE(key_set.count(4));
}

TEST(KeyNodes, MaxCountRespected) {
  const Network net = make_line(5);
  const RoutingTree tree = build_routing_tree(net);
  const TrafficLoads loads = compute_loads(net, tree);
  KeyNodeConfig cfg;
  cfg.max_count = 2;
  for (const KeyNodeRule rule : {KeyNodeRule::Articulation,
                                 KeyNodeRule::TopTraffic,
                                 KeyNodeRule::Hybrid}) {
    cfg.rule = rule;
    EXPECT_LE(select_key_nodes(net, loads, cfg).size(), 2u);
  }
}

// Parameterized: deployments stay connected across sizes.
class TopologySweep
    : public ::testing::TestWithParam<std::tuple<int, Deployment>> {};

TEST_P(TopologySweep, ConnectedAtAllSizes) {
  const auto [count, dep] = GetParam();
  TopologyConfig cfg;
  cfg.node_count = static_cast<std::size_t>(count);
  cfg.comm_range = 30.0;
  cfg.deployment = dep;
  Rng rng(static_cast<std::uint64_t>(count) * 31 + 7);
  const Network net = generate_topology(cfg, rng);
  EXPECT_TRUE(is_connected(net));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopologySweep,
    ::testing::Combine(::testing::Values(20, 50, 100, 150),
                       ::testing::Values(Deployment::Uniform, Deployment::Grid,
                                         Deployment::Clustered,
                                         Deployment::Corridor)));

}  // namespace
}  // namespace wrsn::net
