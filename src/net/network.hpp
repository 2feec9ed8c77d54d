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
// squared length first (geom::RadiusBand): it settles every pair outside a
// relative band of 1e-9 around the radius exactly as hypot would, so only
// pairs inside that band, and accepted pairs for their stored length, pay
// for a hypot.
//
// IsolationScan answers one question about the same graph without building
// it: which nodes would have no neighbour and no sink link.  It shares the
// grid and the radius predicate with the build, so its answer is the CSR's.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "geom/radius_band.hpp"
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

/// Node positions bucketed into square cells at least `min_side` wide, so
/// every node within min_side of a point lies in the 3x3 stencil around the
/// point's cell.  A counting sort by cell: each cell's slots hold its
/// members in ascending id, with their coordinates copied into cell-ordered
/// x/y lanes so a candidate scan reads two contiguous arrays.  The cell
/// count is capped at ~4N, so a sparse giant region gets wider cells (still
/// correct, just a few more candidates).  Buffers persist across builds, so
/// a rebuild is allocation-free once they reach their high-water sizes.
class CellGrid {
 public:
  /// Slots [begin, end) of one stencil row.  A row's three cells are
  /// adjacent in cell order, so their members form one contiguous run.
  struct SlotRun {
    std::uint32_t begin;
    std::uint32_t end;
  };
  /// The one to three stencil rows around a point's cell.
  struct Stencil {
    std::array<SlotRun, 3> rows;
    std::size_t count = 0;
    const SlotRun* begin() const { return rows.data(); }
    const SlotRun* end() const { return rows.data() + count; }
  };

  void build(std::span<const SensorSpec> nodes, Meters min_side);

  Stencil stencil(geom::Vec2 p) const;
  NodeId id(std::uint32_t slot) const { return items_[slot]; }
  geom::Vec2 position(std::uint32_t slot) const {
    return {x_[slot], y_[slot]};
  }

 private:
  std::size_t cell_of(geom::Vec2 p) const;

  geom::Vec2 lo_;
  Meters side_ = 1.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> cursor_;
  std::vector<NodeId> items_;
  std::vector<Meters> x_;
  std::vector<Meters> y_;
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
  // build_adjacency scratch, persistent so per-epoch rebuilds under
  // mobility are allocation-free after warmup.
  CellGrid grid_;
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> pair_slots_;  // one node's in-range later slots
};

/// Which nodes `Network(nodes, sink, comm_range)` would leave isolated,
/// decided from the positions alone.  isolated(id) is exactly
/// `neighbors(id).empty() && !sink_reachable(id)` of that Network: it buckets
/// the positions into the build's grid and applies the build's predicate,
/// `distance <= comm_range` settled by the same RadiusBand, to the sink and
/// then to the stencil's candidates, stopping at the first one in range.
/// One isolated node proves the deployment disconnected, so a generator can
/// reject it without paying for the CSR; the converse does not hold, and
/// is_connected stays the only connectivity verdict.
class IsolationScan {
 public:
  /// `nodes` must outlive the scan.
  IsolationScan(std::span<const SensorSpec> nodes, geom::Vec2 sink,
                Meters comm_range);

  bool isolated(NodeId id) const;

 private:
  std::span<const SensorSpec> nodes_;
  geom::Vec2 sink_;
  geom::RadiusBand band_;
  CellGrid grid_;
};

}  // namespace wrsn::net
