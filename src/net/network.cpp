#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.hpp"

namespace wrsn::net {
namespace {

// Squared-length bounds that settle `geom::distance(a, b) <= r` without the
// hypot for all but a thin band of pairs.  (a - b).norm_sq() is within a
// few ulps of the true squared length and hypot within one ulp of the true
// length, both far inside the relative band 1e-9: a squared length below
// `inside` is in range and one above `outside` is out, whatever hypot would
// round to.  Only squares in [inside, outside] need the hypot itself.  A
// radius whose square nears the subnormal range (r below ~1e-150) gets an
// empty band test, sending every pair to the hypot, because rounding there
// is no longer relative.
struct RadiusBand {
  explicit RadiusBand(Meters r) {
    const double r2 = r * r;
    if (r2 >= 0x1p-1000) {
      inside = r2 * (1.0 - 1e-9);
      outside = r2 * (1.0 + 1e-9);
    }
  }
  double inside = 0.0;
  double outside = HUGE_VAL;
};

}  // namespace

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

  // Bucket nodes into a grid of square cells with side >= comm_range, so
  // every in-range neighbour of a node lives in the 3x3 stencil around its
  // cell.  Cell count is capped at ~4N so sparse giant regions don't blow
  // up the bucket arrays (a larger cell side stays correct, just scans a
  // few more candidates).
  geom::Vec2 lo = nodes_[0].position;
  geom::Vec2 hi = nodes_[0].position;
  for (const SensorSpec& s : nodes_) {
    lo.x = std::min(lo.x, s.position.x);
    lo.y = std::min(lo.y, s.position.y);
    hi.x = std::max(hi.x, s.position.x);
    hi.y = std::max(hi.y, s.position.y);
  }
  Meters cell = comm_range_;
  const auto dims = [&](Meters side) {
    const std::size_t nx =
        static_cast<std::size_t>((hi.x - lo.x) / side) + 1;
    const std::size_t ny =
        static_cast<std::size_t>((hi.y - lo.y) / side) + 1;
    return std::pair{nx, ny};
  };
  auto [nx, ny] = dims(cell);
  const std::size_t max_cells = 4 * n + 64;
  while (nx * ny > max_cells) {
    cell *= 2.0;
    std::tie(nx, ny) = dims(cell);
  }
  const std::size_t cells = nx * ny;
  const auto cell_of = [&](geom::Vec2 p) {
    std::size_t cx = static_cast<std::size_t>((p.x - lo.x) / cell);
    std::size_t cy = static_cast<std::size_t>((p.y - lo.y) / cell);
    cx = std::min(cx, nx - 1);
    cy = std::min(cy, ny - 1);
    return cy * nx + cx;
  };

  // Counting sort of node ids by cell, with the members' coordinates copied
  // into cell-ordered x/y lanes so a candidate scan reads two contiguous
  // arrays instead of striding through SensorSpec.  Ids are placed in
  // ascending order, so each cell's members are ascending by id.
  cell_start_.assign(cells + 1, 0);
  for (const SensorSpec& s : nodes_) ++cell_start_[cell_of(s.position) + 1];
  for (std::size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  cell_items_.resize(n);
  cell_x_.resize(n);
  cell_y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t k = cell_cursor_[cell_of(nodes_[i].position)]++;
    cell_items_[k] = static_cast<NodeId>(i);
    cell_x_[k] = nodes_[i].position.x;
    cell_y_[k] = nodes_[i].position.y;
  }

  // Every unordered pair {i, j} is visited once per pass, from i = min(i, j).
  // The squared length decides all but a thin band around the radius (see
  // RadiusBand); only the band pays for the hypot predicate the pairwise
  // scan used.  The scan is branch-free apart from that rare band:
  // every candidate's slot is written to pair_slots_ and the cursor
  // advances only past accepted ones.  Returns how many in-range j > i it
  // left there.
  const RadiusBand band(comm_range_);
  const auto gather_later_in_range = [&](std::size_t i) {
    const geom::Vec2 p = nodes_[i].position;
    const std::size_t c = cell_of(p);
    const std::size_t cx = c % nx;
    const std::size_t cy = c / nx;
    const std::size_t x0 = cx > 0 ? cx - 1 : 0;
    const std::size_t x1 = std::min(cx + 1, nx - 1);
    const std::size_t y0 = cy > 0 ? cy - 1 : 0;
    const std::size_t y1 = std::min(cy + 1, ny - 1);
    // A stencil row's three cells are adjacent in cell order, so their
    // members form one contiguous run of slots.
    std::size_t candidates = 0;
    for (std::size_t gy = y0; gy <= y1; ++gy) {
      candidates += cell_start_[gy * nx + x1 + 1] - cell_start_[gy * nx + x0];
    }
    if (pair_slots_.size() < candidates) pair_slots_.resize(candidates);
    std::uint32_t found = 0;
    for (std::size_t gy = y0; gy <= y1; ++gy) {
      const std::uint32_t end = cell_start_[gy * nx + x1 + 1];
      for (std::uint32_t k = cell_start_[gy * nx + x0]; k < end; ++k) {
        const double d2 = (p - geom::Vec2{cell_x_[k], cell_y_[k]}).norm_sq();
        const bool later = cell_items_[k] > i;
        bool in_range = later & (d2 < band.inside);
        if (later & (d2 >= band.inside) & (d2 <= band.outside)) {
          in_range =
              geom::distance(p, {cell_x_[k], cell_y_[k]}) <= comm_range_;
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
      ++degree_[cell_items_[pair_slots_[t]]];
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
      while (at > 0 && cell_items_[slots[at - 1]] > cell_items_[k]) {
        slots[at] = slots[at - 1];
        --at;
      }
      slots[at] = k;
    }
    const geom::Vec2 p = nodes_[i].position;
    for (std::uint32_t t = 0; t < found; ++t) {
      const std::uint32_t k = slots[t];
      const NodeId j = cell_items_[k];
      const Meters d = geom::distance(p, {cell_x_[k], cell_y_[k]});
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

}  // namespace wrsn::net
