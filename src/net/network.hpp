// Static description of a deployed wireless rechargeable sensor network:
// node positions, data rates, the sink, and the unit-disk communication graph.
//
// The Network is immutable after construction EXCEPT for the waypoint-
// mobility seam: set_position + rebuild_adjacency let the simulation world
// batch position updates on its mobility epochs and refresh the unit-disk
// graph in place (allocation-free after warmup).  Live state (battery
// levels, alive flags) belongs to the world, which passes alive masks into
// the routing and key-node routines.
//
// The adjacency build is grid-bucketed (cells >= comm_range, 3x3 stencil),
// O(N + edges) instead of the naive O(N^2) pairwise scan, which is what
// makes 10k-node deployments and per-epoch rebuilds affordable.  It visits
// each unordered pair once, from its smaller id, and emits the exact CSR
// the pairwise scan produced: neighbour lists ascending by id and every
// edge length computed with the same geom::distance expression.  One hypot
// fills both the (i,j) and the (j,i) entry; hypot is sign-symmetric, so
// evaluating it from j would give the same bits.  The range test reads the
// squared length first: it settles every pair outside a
// relative band of 1e-9 around the radius exactly as hypot would, so only
// pairs inside that band, and accepted pairs for their stored length, pay
// for a hypot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "geom/vec2.hpp"

namespace wrsn::net {

using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Static properties of one sensor node.
struct SensorSpec {
  NodeId id = kInvalidNode;
  geom::Vec2 position;
  /// Application data generation rate [bit/s].
  double data_rate_bps = 0.0;
  /// Battery capacity [J].
  Joules battery_capacity = 10'800.0;
};

/// Immutable network description plus the precomputed unit-disk adjacency.
class Network {
 public:
  /// Builds the network and its communication graph.  Node ids must equal
  /// their index in `nodes` and positions must be finite (enforced);
  /// `comm_range` > 0.
  Network(std::vector<SensorSpec> nodes, geom::Vec2 sink_position,
          Meters comm_range);

  std::size_t size() const { return nodes_.size(); }
  const SensorSpec& node(NodeId id) const;
  std::span<const SensorSpec> nodes() const { return nodes_; }
  geom::Vec2 sink_position() const { return sink_position_; }
  Meters comm_range() const { return comm_range_; }

  /// Node-to-node neighbours within communication range (excludes the sink).
  std::span<const NodeId> neighbors(NodeId id) const;

  /// Euclidean distances to the same neighbours, index-aligned with
  /// neighbors(id).  Precomputed at construction with the exact expression
  /// distance(id, v) uses, so the routing inner loops read a contiguous lane
  /// instead of recomputing a hypot per edge relaxation.
  std::span<const Meters> neighbor_distances(NodeId id) const;

  /// True if `id` can talk directly to the sink.
  bool sink_reachable(NodeId id) const;

  /// Ids of all nodes within communication range of the sink.
  std::span<const NodeId> sink_neighbors() const { return sink_neighbors_; }

  /// Euclidean distance between two nodes.
  Meters distance(NodeId a, NodeId b) const;

  /// Euclidean distance from a node to the sink.
  Meters distance_to_sink(NodeId id) const;

  /// Moves one node (waypoint-mobility seam).  Does NOT touch the adjacency:
  /// the caller batches all position updates for an epoch and then calls
  /// rebuild_adjacency() once.
  void set_position(NodeId id, geom::Vec2 position);

  /// Rebuilds the CSR adjacency and the sink tables in place from the
  /// current node positions.  Allocation-free once the internal buffers have
  /// reached their high-water sizes, so the world's mobility epochs can call
  /// it on the steady-state path.
  void rebuild_adjacency();

 private:
  void build_adjacency();

  std::vector<SensorSpec> nodes_;
  geom::Vec2 sink_position_;
  Meters comm_range_;
  // Adjacency in CSR form: node id's neighbours are adj_nodes_[adj_offset_
  // [id] .. adj_offset_[id+1]), with the matching edge length in adj_dist_
  // at the same index.  One flat allocation each, so the Dijkstra
  // relaxations walk two contiguous lanes instead of chasing a per-node
  // vector and recomputing a hypot per edge.
  std::vector<std::uint32_t> adj_offset_;
  std::vector<NodeId> adj_nodes_;
  std::vector<Meters> adj_dist_;
  std::vector<NodeId> sink_neighbors_;
  std::vector<bool> sink_adjacent_;
  std::vector<Meters> sink_distance_;
  // Grid-bucket scratch for build_adjacency, persistent so per-epoch
  // rebuilds under mobility are allocation-free after warmup.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_cursor_;
  std::vector<NodeId> cell_items_;
  std::vector<Meters> cell_x_;
  std::vector<Meters> cell_y_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> pair_slots_;  // one node's in-range later slots
};

}  // namespace wrsn::net
