#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "common/check.hpp"

namespace wrsn::net {

void CellGrid::build(std::span<const SensorSpec> nodes, Meters min_side) {
  const std::size_t n = nodes.size();
  lo_ = nodes[0].position;
  geom::Vec2 hi = nodes[0].position;
  for (const SensorSpec& s : nodes) {
    lo_.x = std::min(lo_.x, s.position.x);
    lo_.y = std::min(lo_.y, s.position.y);
    hi.x = std::max(hi.x, s.position.x);
    hi.y = std::max(hi.y, s.position.y);
  }
  side_ = min_side;
  const auto dims = [&](Meters side) {
    const std::size_t nx =
        static_cast<std::size_t>((hi.x - lo_.x) / side) + 1;
    const std::size_t ny =
        static_cast<std::size_t>((hi.y - lo_.y) / side) + 1;
    return std::pair{nx, ny};
  };
  std::tie(nx_, ny_) = dims(side_);
  const std::size_t max_cells = 4 * n + 64;
  while (nx_ * ny_ > max_cells) {
    side_ *= 2.0;
    std::tie(nx_, ny_) = dims(side_);
  }
  const std::size_t cells = nx_ * ny_;

  start_.assign(cells + 1, 0);
  for (const SensorSpec& s : nodes) ++start_[cell_of(s.position) + 1];
  for (std::size_t c = 0; c < cells; ++c) start_[c + 1] += start_[c];
  cursor_.assign(start_.begin(), start_.end() - 1);
  items_.resize(n);
  x_.resize(n);
  y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t k = cursor_[cell_of(nodes[i].position)]++;
    items_[k] = static_cast<NodeId>(i);
    x_[k] = nodes[i].position.x;
    y_[k] = nodes[i].position.y;
  }
}

std::size_t CellGrid::cell_of(geom::Vec2 p) const {
  std::size_t cx = static_cast<std::size_t>((p.x - lo_.x) / side_);
  std::size_t cy = static_cast<std::size_t>((p.y - lo_.y) / side_);
  cx = std::min(cx, nx_ - 1);
  cy = std::min(cy, ny_ - 1);
  return cy * nx_ + cx;
}

CellGrid::Stencil CellGrid::stencil(geom::Vec2 p) const {
  const std::size_t c = cell_of(p);
  const std::size_t cx = c % nx_;
  const std::size_t cy = c / nx_;
  const std::size_t x0 = cx > 0 ? cx - 1 : 0;
  const std::size_t x1 = std::min(cx + 1, nx_ - 1);
  const std::size_t y0 = cy > 0 ? cy - 1 : 0;
  const std::size_t y1 = std::min(cy + 1, ny_ - 1);
  Stencil out;
  for (std::size_t gy = y0; gy <= y1; ++gy) {
    out.rows[out.count++] = {start_[gy * nx_ + x0], start_[gy * nx_ + x1 + 1]};
  }
  return out;
}

Network::Network(std::vector<SensorSpec> nodes, geom::Vec2 sink_position,
                 Meters comm_range)
    : nodes_(std::move(nodes)),
      sink_position_(sink_position),
      comm_range_(comm_range) {
  WRSN_REQUIRE(comm_range_ > 0.0, "comm_range must be positive");
  WRSN_REQUIRE(!nodes_.empty(), "network must have at least one node");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    WRSN_REQUIRE(nodes_[i].id == static_cast<NodeId>(i),
                 "node ids must be dense and equal their index");
    WRSN_REQUIRE(nodes_[i].data_rate_bps >= 0.0, "negative data rate");
    WRSN_REQUIRE(nodes_[i].battery_capacity > 0.0,
                 "battery capacity must be positive");
    WRSN_REQUIRE(std::isfinite(nodes_[i].position.x) &&
                     std::isfinite(nodes_[i].position.y),
                 "node position must be finite");
  }
  build_adjacency();
}

void Network::build_adjacency() {
  const std::size_t n = nodes_.size();
  grid_.build(nodes_, comm_range_);

  // Every unordered pair {i, j} is visited once per pass, from i = min(i, j).
  // The squared length decides all but a thin band around the radius (see
  // geom::RadiusBand); only the band pays for the hypot predicate the
  // pairwise scan used.  The scan is branch-free apart from that rare band:
  // every candidate's slot is written to pair_slots_ and the cursor
  // advances only past accepted ones.  Returns how many in-range j > i it
  // left there.
  const geom::RadiusBand band(comm_range_);
  const auto gather_later_in_range = [&](std::size_t i) {
    const geom::Vec2 p = nodes_[i].position;
    const CellGrid::Stencil stencil = grid_.stencil(p);
    std::size_t candidates = 0;
    for (const auto [begin, end] : stencil) candidates += end - begin;
    if (pair_slots_.size() < candidates) pair_slots_.resize(candidates);
    std::uint32_t found = 0;
    for (const auto [begin, end] : stencil) {
      for (std::uint32_t k = begin; k < end; ++k) {
        const geom::Vec2 q = grid_.position(k);
        const double d2 = (p - q).norm_sq();
        const bool later = grid_.id(k) > i;
        bool in_range = later & (d2 < band.inside);
        if (later & (d2 >= band.inside) & (d2 <= band.outside)) {
          in_range = geom::distance(p, q) <= comm_range_;
        }
        pair_slots_[found] = k;
        found += in_range;
      }
    }
    return found;
  };

  // Count, then fill: no edge list outlives the build.
  degree_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t found = gather_later_in_range(i);
    degree_[i] += found;
    for (std::uint32_t t = 0; t < found; ++t) {
      ++degree_[grid_.id(pair_slots_[t])];
    }
  }
  adj_offset_.resize(n + 1);
  adj_offset_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    adj_offset_[i + 1] = adj_offset_[i] + degree_[i];
  }
  adj_nodes_.resize(adj_offset_[n]);
  adj_dist_.resize(adj_offset_[n]);

  // degree_ becomes each row's write cursor.  Rows are filled in ascending
  // i, so row j receives its smaller neighbours in ascending order before
  // its own turn; row i's larger neighbours arrive cell by cell and an
  // insertion sort (rows are short) puts them in id order first.  One hypot
  // serves both CSR entries: it is sign-symmetric, so distance(j, i) would
  // return the same bits.
  std::copy(adj_offset_.begin(), adj_offset_.end() - 1, degree_.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t found = gather_later_in_range(i);
    std::uint32_t* slots = pair_slots_.data();
    for (std::uint32_t t = 1; t < found; ++t) {
      const std::uint32_t k = slots[t];
      std::uint32_t at = t;
      while (at > 0 && grid_.id(slots[at - 1]) > grid_.id(k)) {
        slots[at] = slots[at - 1];
        --at;
      }
      slots[at] = k;
    }
    const geom::Vec2 p = nodes_[i].position;
    for (std::uint32_t t = 0; t < found; ++t) {
      const std::uint32_t k = slots[t];
      const NodeId j = grid_.id(k);
      const Meters d = geom::distance(p, grid_.position(k));
      const std::uint32_t ahead = degree_[i]++;
      adj_nodes_[ahead] = j;
      adj_dist_[ahead] = d;
      const std::uint32_t back = degree_[j]++;
      adj_nodes_[back] = static_cast<NodeId>(i);
      adj_dist_[back] = d;
    }
  }

  sink_adjacent_.assign(n, false);
  sink_distance_.resize(n);
  sink_neighbors_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const Meters d = geom::distance(nodes_[i].position, sink_position_);
    sink_distance_[i] = d;
    if (d <= comm_range_) {
      sink_adjacent_[i] = true;
      sink_neighbors_.push_back(static_cast<NodeId>(i));
    }
  }
}

void Network::set_position(NodeId id, geom::Vec2 position) {
  WRSN_REQUIRE(id < nodes_.size(), "node id out of range");
  WRSN_REQUIRE(std::isfinite(position.x) && std::isfinite(position.y),
               "node position must be finite");
  nodes_[id].position = position;
}

void Network::rebuild_adjacency() { build_adjacency(); }

const SensorSpec& Network::node(NodeId id) const {
  WRSN_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

std::span<const NodeId> Network::neighbors(NodeId id) const {
  WRSN_REQUIRE(id < nodes_.size(), "node id out of range");
  return {adj_nodes_.data() + adj_offset_[id],
          adj_nodes_.data() + adj_offset_[id + 1]};
}

std::span<const Meters> Network::neighbor_distances(NodeId id) const {
  WRSN_REQUIRE(id < nodes_.size(), "node id out of range");
  return {adj_dist_.data() + adj_offset_[id],
          adj_dist_.data() + adj_offset_[id + 1]};
}

bool Network::sink_reachable(NodeId id) const {
  WRSN_REQUIRE(id < nodes_.size(), "node id out of range");
  return sink_adjacent_[id];
}

Meters Network::distance(NodeId a, NodeId b) const {
  return geom::distance(node(a).position, node(b).position);
}

Meters Network::distance_to_sink(NodeId id) const {
  WRSN_REQUIRE(id < nodes_.size(), "node id out of range");
  return sink_distance_[id];
}

IsolationScan::IsolationScan(std::span<const SensorSpec> nodes,
                             geom::Vec2 sink, Meters comm_range)
    : nodes_(nodes), sink_(sink), band_(comm_range) {
  WRSN_REQUIRE(comm_range > 0.0, "comm_range must be positive");
  WRSN_REQUIRE(!nodes_.empty(), "network must have at least one node");
  grid_.build(nodes_, comm_range);
}

bool IsolationScan::isolated(NodeId id) const {
  WRSN_REQUIRE(id < nodes_.size(), "node id out of range");
  const geom::Vec2 p = nodes_[id].position;
  if (band_.within(p, sink_)) return false;
  for (const auto [begin, end] : grid_.stencil(p)) {
    for (std::uint32_t k = begin; k < end; ++k) {
      if (grid_.id(k) != id && band_.within(p, grid_.position(k))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace wrsn::net
