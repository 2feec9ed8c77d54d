// Sink-rooted routing tree, traffic aggregation, and node drain rates.
//
// Routing uses energy-aware Dijkstra: the per-bit cost of relaying one hop
// over distance d is 2*e_elec + e_amp*d^2, so edge weight = hop_cost + d^2
// with hop_cost = 2*e_elec/e_amp.  Traffic is aggregated up the tree to get
// each node's transmit/receive rates, which combined with the first-order
// radio model and the sensing floor give the per-node battery drain rate —
// the quantity the attacker's time-window calculations are built on.
//
// Two API tiers:
//   * value-returning helpers (build_routing_tree, compute_loads,
//     compute_drain_rates) allocate fresh results — fine for one-shot use;
//   * in-place variants (rebuild_routing_tree, recompute_loads,
//     recompute_drain_rates) refill caller-owned buffers through a reusable
//     RoutingScratch, so steady-state rebuilds allocate nothing, and
//     repair_routing_after_death patches an existing tree after a single
//     node death.  The repair re-runs Dijkstra only over the dead node's
//     routing subtree (the only region whose shortest paths can change),
//     but finding that subtree and merging the settle order are linear
//     passes over the tree, and the loads and drains that follow are a
//     full recompute_loads + recompute_drain_rates: a death costs the
//     subtree's Dijkstra plus O(N) linear passes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.hpp"
#include "common/indexed_heap.hpp"
#include "common/units.hpp"
#include "energy/radio.hpp"
#include "net/network.hpp"

namespace wrsn::net {

/// Routing cost parameters.
struct RoutingParams {
  /// Distance-squared-equivalent cost of one hop [m^2]; default matches
  /// 2*e_elec/e_amp of the first-order radio model.
  double hop_cost = 1'000.0;
};

/// Sink-rooted shortest-path tree over the alive subgraph.
struct RoutingTree {
  /// Parent node id; kInvalidNode when the node uplinks directly to the sink
  /// or is unreachable (see `reachable`).
  std::vector<NodeId> parent;
  /// True when the node has a path to the sink.
  Bitmap reachable;
  /// Distance to the parent (or to the sink for direct uplinks) [m].
  std::vector<Meters> uplink_distance;
  /// Reachable nodes in ascending path-cost order (sink outward).
  std::vector<NodeId> settle_order;
  /// Path cost from the sink [m^2-equivalent]; +inf when unreachable.
  std::vector<double> path_cost;
};

/// Dijkstra frontier keyed by (cost, id), the same total order a full
/// rebuild settles in; a relaxation lowers a queued node's key in place.
using FrontierHeap = IndexedHeap<double>;

/// Reusable working memory for routing rebuilds and repairs.  Keeping one of
/// these per World means zero allocations per rebuild after warmup.
struct RoutingScratch {
  FrontierHeap frontier;               ///< Dijkstra frontier
  std::vector<char> affected;          ///< repair: subtree mask
  std::vector<NodeId> affected_ids;    ///< repair: subtree members
  std::vector<NodeId> repaired_order;  ///< repair: re-settle order
  std::vector<NodeId> merged_order;    ///< repair: merged settle order

  /// Pre-sizes every buffer for a network of `n` nodes, so later rebuilds
  /// and repairs never allocate.
  void reserve(std::size_t n);
};

/// Builds the routing tree over nodes with `alive[id]` set (empty = all).
RoutingTree build_routing_tree(const Network& network,
                               const Bitmap& alive = {},
                               const RoutingParams& params = {});

/// In-place full rebuild of `tree` (same result as build_routing_tree);
/// reuses the capacity of `tree`'s vectors and `scratch`.
void rebuild_routing_tree(const Network& network, const Bitmap& alive,
                          const RoutingParams& params, RoutingTree& tree,
                          RoutingScratch& scratch);

/// Patches `tree` in place after node `dead` (already cleared in `alive`)
/// died, by re-running Dijkstra over the dead node's routing subtree seeded
/// from the surviving frontier.  Produces the same tree a full rebuild would
/// (identical parents, costs, and settle order, up to exact-cost ties along
/// zero-cost edges, which a positive hop_cost rules out).  Returns the
/// number of nodes detached and re-settled: 1 + the dead node's subtree
/// size, or 0 when the dead node was unreachable (no other path can change,
/// and neither can any load).
std::size_t repair_routing_after_death(const Network& network,
                                       const Bitmap& alive,
                                       const RoutingParams& params,
                                       NodeId dead, RoutingTree& tree,
                                       RoutingScratch& scratch);

/// Per-node steady-state traffic after aggregation up the tree [bit/s].
struct TrafficLoads {
  std::vector<double> tx_bps;  ///< own generation + forwarded
  std::vector<double> rx_bps;  ///< forwarded (received from children)
};

/// Aggregates application traffic up the routing tree.  Unreachable nodes
/// carry no traffic (their data has nowhere to go).
TrafficLoads compute_loads(const Network& network, const RoutingTree& tree,
                           const Bitmap& alive = {});

/// In-place variant of compute_loads; reuses `loads`' capacity.
void recompute_loads(const Network& network, const RoutingTree& tree,
                     const Bitmap& alive, TrafficLoads& loads);

/// Drain-rate model parameters.
struct DrainParams {
  /// Always-on sensing/MCU floor [W].
  Watts sensing_power = 2e-3;
  energy::RadioParams radio;
};

/// Per-node battery drain rate [W]: sensing floor + radio tx/rx power.
/// Unreachable nodes pay only the sensing floor.
std::vector<Watts> compute_drain_rates(const Network& network,
                                       const RoutingTree& tree,
                                       const TrafficLoads& loads,
                                       const DrainParams& params = {});

/// In-place variant of compute_drain_rates; reuses `drain`'s capacity.
void recompute_drain_rates(const Network& network, const RoutingTree& tree,
                           const TrafficLoads& loads,
                           const DrainParams& params,
                           std::vector<Watts>& drain);

}  // namespace wrsn::net
