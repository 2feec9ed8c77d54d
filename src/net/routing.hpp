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
//
// Both Dijkstras settle from monotone cost buckets (Dial's bucket queue,
// `CostBuckets`) rather than a heap.  Every edge costs at least hop_cost,
// so with buckets hop_cost/2 wide a settle never pushes into the bucket
// being settled: its labels are final once the stale ones (a cost above
// the node's path_cost) are dropped, and one sort by (cost, id) settles
// them in the order a (cost, id) heap pops.  A positive hop_cost is a
// precondition.  Relaxation scans a node's neighbours without a branch per
// edge: each neighbour writes a candidate slot, the slot cursor advances
// only past an open (unsettled, relaxable) neighbour whose cost strictly
// improves, and the winners are applied in neighbour order, so the first
// strict minimum still sets each parent.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitset.hpp"
#include "common/units.hpp"
#include "energy/radio.hpp"
#include "net/network.hpp"

namespace wrsn::net {

/// Routing cost parameters.
struct RoutingParams {
  /// Distance-squared-equivalent cost of one hop [m^2]; default matches
  /// 2*e_elec/e_amp of the first-order radio model.  Must be positive.
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

/// Dijkstra frontier over monotone cost buckets.  Bucket k holds the
/// labels (cost, id) whose cost lies in [k, k+1) * hop_cost/2.  A relaxation
/// pushes a new label and leaves the node's older, higher one in place; a
/// label is live while its cost equals the node's path_cost.
///
/// Memory is O(N) for any finite hop cost and edge length: a fixed ring of
/// `kRing` bucket heads covers the buckets just above the lowest, labels
/// beyond it wait in an overflow min-heap ordered by (cost, id) and move
/// into the ring as it advances, and the label pool grows to its
/// high-water mark, dropping stale labels once it reaches 2N.  Buckets
/// past 2^50 cannot be told apart in double precision; the overflow then
/// settles one label at a time in (cost, id) order.
class CostBuckets {
 public:
  struct Label {
    double cost;
    NodeId id;
  };

  /// Empties the frontier for costs of at least `lowest`, in buckets
  /// `hop_cost`/2 wide (`hop_cost` > 0).
  void reset(double hop_cost, double lowest);

  /// Queues `id` at `cost`, which is `path_cost[id]` and at least every
  /// cost already popped.
  void push(NodeId id, double cost, const std::vector<double>& path_cost);

  /// Replaces `batch` with the lowest bucket's live labels sorted by
  /// (cost, id); returns false once nothing is queued.  The batch may be
  /// empty when every label of the bucket was stale.
  bool pop_lowest(const std::vector<double>& path_cost,
                  std::vector<Label>& batch);

 private:
  static constexpr std::size_t kRing = 1024;  // a power of two
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::uint64_t kFar = ~std::uint64_t{0};
  struct Entry {
    double cost;
    NodeId id;
    std::uint32_t next;  ///< next entry of the same bucket, or kNil
  };

  std::uint64_t bucket_of(double cost) const;
  void link(NodeId id, double cost, std::uint64_t bucket,
            const std::vector<double>& path_cost);
  void migrate(const std::vector<double>& path_cost);
  void drop_stale(const std::vector<double>& path_cost);

  double per_bucket_ = 0.0;     ///< 2 / hop_cost
  std::uint64_t cursor_ = 0;    ///< lowest bucket that may hold a label
  std::size_t ring_labels_ = 0;
  std::array<std::uint32_t, kRing> heads_{};
  std::vector<Entry> pool_;
  std::uint32_t free_ = kNil;   ///< free-list head in pool_
  std::vector<Label> overflow_;  ///< min-heap by (cost, id)
};

/// Reusable working memory for routing rebuilds and repairs.  Keeping one of
/// these per World means zero allocations per rebuild after warmup.
struct RoutingScratch {
  CostBuckets buckets;                 ///< Dijkstra frontier
  std::vector<CostBuckets::Label> batch;  ///< one bucket's live labels
  std::vector<std::uint32_t> candidates;  ///< one node's improving edges
  /// Per node: closed (dead, or outside the repaired subtree), boundary
  /// (repair: a reachable neighbour of the subtree), open (may still be
  /// relaxed) or settled by this rebuild or repair.
  std::vector<char> state;
  std::vector<NodeId> affected_ids;    ///< repair: subtree members
  std::vector<NodeId> boundary;        ///< repair: the subtree's boundary
  std::vector<NodeId> repaired_order;  ///< repair: re-settle order
  std::vector<NodeId> merged_order;    ///< repair: merged settle order

  /// Pre-sizes the per-node buffers for a network of `n` nodes; the label
  /// pool, batch and candidate buffers grow to their high-water marks on
  /// the first rebuilds and repairs.
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
/// (identical parents, costs, and settle order).  Returns the
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
