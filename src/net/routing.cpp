#include "net/routing.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace wrsn::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool alive_or_all(const Bitmap& alive, NodeId id) {
  return alive.empty() || alive.test(id);
}

}  // namespace

void RoutingScratch::reserve(std::size_t n) {
  frontier.reset(n);
  affected.reserve(n);
  affected_ids.reserve(n);
  repaired_order.reserve(n);
  merged_order.reserve(n);
}

void rebuild_routing_tree(const Network& network, const Bitmap& alive,
                          const RoutingParams& params, RoutingTree& tree,
                          RoutingScratch& scratch) {
  const std::size_t n = network.size();
  WRSN_REQUIRE(alive.empty() || alive.size() == n, "alive mask size mismatch");
  WRSN_REQUIRE(params.hop_cost >= 0.0, "negative hop cost");

  tree.parent.assign(n, kInvalidNode);
  tree.reachable.assign(n, false);
  tree.uplink_distance.assign(n, 0.0);
  tree.path_cost.assign(n, kInf);
  tree.settle_order.clear();

  FrontierHeap& frontier = scratch.frontier;
  frontier.reset(n);

  // Seed with direct sink uplinks.
  for (const NodeId id : network.sink_neighbors()) {
    if (!alive_or_all(alive, id)) continue;
    const Meters d = network.distance_to_sink(id);
    const double cost = params.hop_cost + d * d;
    if (cost < tree.path_cost[id]) {
      tree.path_cost[id] = cost;
      tree.uplink_distance[id] = d;
      frontier.push_or_decrease(id, cost);
    }
  }

  // `reachable` doubles as the settled mark.
  while (!frontier.empty()) {
    const auto [cost, u] = frontier.pop();
    tree.reachable.set(u);
    tree.settle_order.push_back(u);
    const auto nbrs = network.neighbors(u);
    const auto dist = network.neighbor_distances(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId v = nbrs[k];
      if (!alive_or_all(alive, v) || tree.reachable[v]) continue;
      const Meters d = dist[k];
      const double next = cost + params.hop_cost + d * d;
      if (next < tree.path_cost[v]) {
        tree.path_cost[v] = next;
        tree.parent[v] = u;
        tree.uplink_distance[v] = d;
        frontier.push_or_decrease(v, next);
      }
    }
  }
}

RoutingTree build_routing_tree(const Network& network, const Bitmap& alive,
                               const RoutingParams& params) {
  RoutingTree tree;
  RoutingScratch scratch;
  rebuild_routing_tree(network, alive, params, tree, scratch);
  return tree;
}

std::size_t repair_routing_after_death(const Network& network,
                                       const Bitmap& alive,
                                       const RoutingParams& params,
                                       NodeId dead, RoutingTree& tree,
                                       RoutingScratch& scratch) {
  const std::size_t n = network.size();
  WRSN_REQUIRE(tree.parent.size() == n, "tree does not match network");
  WRSN_REQUIRE(alive.size() == n, "repair requires an explicit alive mask");
  WRSN_REQUIRE(dead < n && !alive[dead], "dead node must be cleared in mask");

  if (!tree.reachable[dead]) {
    // The dead node routed nothing; no other node's path can change.
    tree.parent[dead] = kInvalidNode;
    tree.uplink_distance[dead] = 0.0;
    tree.path_cost[dead] = kInf;
    return 0;
  }

  // 1. Affected set = the dead node's routing subtree.  settle_order is a
  // parent-before-child topological order, so one forward pass finds it.
  scratch.affected.assign(n, 0);
  scratch.affected[dead] = 1;
  scratch.affected_ids.clear();
  for (const NodeId u : tree.settle_order) {
    if (u == dead) continue;
    const NodeId p = tree.parent[u];
    if (p != kInvalidNode && scratch.affected[p] != 0) {
      scratch.affected[u] = 1;
      scratch.affected_ids.push_back(u);
    }
  }
  // From here on the mask holds the subtree only: the dead node is skipped
  // like any node outside it.
  scratch.affected[dead] = 0;

  // 2. Detach the subtree (and the dead node) back to the unreachable state.
  tree.reachable.reset(dead);
  tree.parent[dead] = kInvalidNode;
  tree.uplink_distance[dead] = 0.0;
  tree.path_cost[dead] = kInf;
  for (const NodeId u : scratch.affected_ids) {
    tree.reachable.reset(u);
    tree.parent[u] = kInvalidNode;
    tree.uplink_distance[u] = 0.0;
    tree.path_cost[u] = kInf;
  }

  // 3. Seed each subtree node from the surviving frontier: its best direct
  // sink uplink or unaffected settled neighbour — after the detach, exactly
  // the reachable ones.  Paths through unaffected nodes cannot improve
  // (removing a node never shortens a path), so the repair Dijkstra only
  // needs to relax edges inside the affected set.
  FrontierHeap& frontier = scratch.frontier;
  frontier.reset(n);
  for (const NodeId u : scratch.affected_ids) {
    double best = kInf;
    NodeId best_parent = kInvalidNode;
    Meters best_distance = 0.0;
    if (network.sink_reachable(u)) {
      const Meters d = network.distance_to_sink(u);
      best = params.hop_cost + d * d;
      best_distance = d;
    }
    const auto nbrs = network.neighbors(u);
    const auto dist = network.neighbor_distances(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId v = nbrs[k];
      if (!tree.reachable[v]) continue;
      const Meters d = dist[k];
      const double cost = tree.path_cost[v] + params.hop_cost + d * d;
      if (cost < best) {
        best = cost;
        best_parent = v;
        best_distance = d;
      }
    }
    if (best < kInf) {
      tree.path_cost[u] = best;
      tree.parent[u] = best_parent;
      tree.uplink_distance[u] = best_distance;
      frontier.push_or_decrease(u, best);
    }
  }

  // 4. Dijkstra restricted to the affected set; `reachable` doubles as the
  // settled mark (unaffected nodes are settled by construction).
  scratch.repaired_order.clear();
  while (!frontier.empty()) {
    const auto [cost, u] = frontier.pop();
    tree.reachable.set(u);
    scratch.repaired_order.push_back(u);
    const auto nbrs = network.neighbors(u);
    const auto dist = network.neighbor_distances(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId v = nbrs[k];
      if (scratch.affected[v] == 0 || tree.reachable[v]) continue;
      const Meters d = dist[k];
      const double next = cost + params.hop_cost + d * d;
      if (next < tree.path_cost[v]) {
        tree.path_cost[v] = next;
        tree.parent[v] = u;
        tree.uplink_distance[v] = d;
        frontier.push_or_decrease(v, next);
      }
    }
  }

  // 5. Merge the settle order: survivors keep their relative order (their
  // costs are untouched) and repaired nodes — re-settled in ascending
  // (cost, id) order, the same total order a full Dijkstra pops in — are
  // spliced in by (cost, id).  Subtree nodes that stayed unreachable are
  // simply dropped, exactly as a full rebuild would.
  const auto less_by_cost = [&tree](NodeId a, NodeId b) {
    if (tree.path_cost[a] != tree.path_cost[b]) {
      return tree.path_cost[a] < tree.path_cost[b];
    }
    return a < b;
  };
  scratch.merged_order.clear();
  auto it = scratch.repaired_order.begin();
  const auto end = scratch.repaired_order.end();
  for (const NodeId u : tree.settle_order) {
    if (u == dead || scratch.affected[u] != 0) continue;
    while (it != end && less_by_cost(*it, u)) {
      scratch.merged_order.push_back(*it++);
    }
    scratch.merged_order.push_back(u);
  }
  while (it != end) scratch.merged_order.push_back(*it++);
  tree.settle_order.swap(scratch.merged_order);
  return scratch.affected_ids.size() + 1;
}

void recompute_loads(const Network& network, const RoutingTree& tree,
                     const Bitmap& alive, TrafficLoads& loads) {
  const std::size_t n = network.size();
  WRSN_REQUIRE(tree.parent.size() == n, "tree does not match network");

  loads.tx_bps.assign(n, 0.0);
  loads.rx_bps.assign(n, 0.0);

  // Process leaves-first: settle_order is sink-outward, so its reverse is a
  // valid topological order for child-to-parent aggregation.
  for (auto it = tree.settle_order.rbegin(); it != tree.settle_order.rend();
       ++it) {
    const NodeId u = *it;
    if (!alive_or_all(alive, u)) continue;
    loads.tx_bps[u] += network.node(u).data_rate_bps;
    const NodeId p = tree.parent[u];
    if (p != kInvalidNode) {
      loads.rx_bps[p] += loads.tx_bps[u];
      loads.tx_bps[p] += loads.tx_bps[u];
    }
  }
}

TrafficLoads compute_loads(const Network& network, const RoutingTree& tree,
                           const Bitmap& alive) {
  TrafficLoads loads;
  recompute_loads(network, tree, alive, loads);
  return loads;
}

void recompute_drain_rates(const Network& network, const RoutingTree& tree,
                           const TrafficLoads& loads,
                           const DrainParams& params,
                           std::vector<Watts>& drain) {
  const std::size_t n = network.size();
  WRSN_REQUIRE(loads.tx_bps.size() == n, "loads do not match network");
  WRSN_REQUIRE(params.sensing_power >= 0.0, "negative sensing power");

  const energy::RadioModel radio(params.radio);
  drain.assign(n, 0.0);
  for (NodeId id = 0; id < n; ++id) {
    drain[id] = params.sensing_power;
    if (!tree.reachable[id]) continue;
    drain[id] += radio.tx_power(loads.tx_bps[id], tree.uplink_distance[id]);
    drain[id] += radio.rx_power(loads.rx_bps[id]);
  }
}

std::vector<Watts> compute_drain_rates(const Network& network,
                                       const RoutingTree& tree,
                                       const TrafficLoads& loads,
                                       const DrainParams& params) {
  std::vector<Watts> drain;
  recompute_drain_rates(network, tree, loads, params, drain);
  return drain;
}

}  // namespace wrsn::net
