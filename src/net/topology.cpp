#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "geom/radius_band.hpp"
#include "obs/metrics.hpp"

namespace wrsn::net {
namespace {

geom::Vec2 uniform_point(const geom::Rect& region, Rng& rng) {
  return {rng.uniform(region.lo.x, region.hi.x),
          rng.uniform(region.lo.y, region.hi.y)};
}

// Grid-bucketed index answering "is any accepted point within min_sep of
// this candidate?" in O(1) expected time, so 10k-node deployments don't pay
// the old O(placed) scan per candidate.  It evaluates the exact predicate
// the linear scan used (distance < min_sep), settled from the squared
// length outside geom::RadiusBand's thin band, so every accept/reject
// decision — and therefore the RNG draw sequence and the resulting
// topology — is unchanged.
//
// Cells are sized for ~1 point each, usually far wider than min_sep, so a
// candidate visits only the cells that meet the square of half-side
// `reach_` around it, typically one.  reach_ pads min_sep by a relative
// 1e-7: a hypot below min_sep means each coordinate difference is below
// reach_, and the box corners and cell indices are computed by monotone
// roundings, so no point that could be too close is ever left out.
class SeparationIndex {
 public:
  SeparationIndex(const geom::Rect& region, Meters min_sep,
                  std::size_t expected)
      : min_sep_(min_sep), reach_(min_sep * (1.0 + 1e-7)), band_(min_sep) {
    if (min_sep_ <= 0.0) return;
    origin_ = region.lo;
    // Target ~1 point per cell, but never below min_sep, so the box spans
    // at most a few cells per axis.
    cell_ = std::max(min_sep_,
                     std::sqrt(region.width() * region.height() /
                               double(std::max<std::size_t>(expected, 1))));
    nx_ = static_cast<std::size_t>(region.width() / cell_) + 1;
    ny_ = static_cast<std::size_t>(region.height() / cell_) + 1;
    heads_.assign(nx_ * ny_, -1);
    points_.reserve(expected);
    next_.reserve(expected);
  }

  bool ok(geom::Vec2 candidate) const {
    if (min_sep_ <= 0.0) return true;
    const auto [x0, y0] = cell_of(candidate - geom::Vec2{reach_, reach_});
    const auto [x1, y1] = cell_of(candidate + geom::Vec2{reach_, reach_});
    for (std::size_t gy = y0; gy <= y1; ++gy) {
      for (std::size_t gx = x0; gx <= x1; ++gx) {
        for (std::int32_t k = heads_[gy * nx_ + gx]; k >= 0; k = next_[k]) {
          if (band_.closer(points_[k], candidate)) return false;
        }
      }
    }
    return true;
  }

  void insert(geom::Vec2 p) {
    if (min_sep_ <= 0.0) return;
    const auto [cx, cy] = cell_of(p);
    points_.push_back(p);
    next_.push_back(heads_[cy * nx_ + cx]);
    heads_[cy * nx_ + cx] = static_cast<std::int32_t>(points_.size()) - 1;
  }

 private:
  // Clamped before the cast, so a box corner past the region edge maps to
  // the edge cell.
  std::pair<std::size_t, std::size_t> cell_of(geom::Vec2 p) const {
    const auto axis = [&](double offset, std::size_t cells) {
      return static_cast<std::size_t>(
          std::min(std::max(0.0, offset / cell_), double(cells - 1)));
    };
    return {axis(p.x - origin_.x, nx_), axis(p.y - origin_.y, ny_)};
  }

  Meters min_sep_ = 0.0;
  Meters reach_ = 0.0;
  geom::RadiusBand band_;
  geom::Vec2 origin_;
  Meters cell_ = 1.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::vector<std::int32_t> heads_;
  std::vector<std::int32_t> next_;
  std::vector<geom::Vec2> points_;
};

std::vector<geom::Vec2> place_uniform(const TopologyConfig& cfg, Rng& rng) {
  std::vector<geom::Vec2> points;
  points.reserve(cfg.node_count);
  SeparationIndex sep(cfg.region, cfg.min_separation, cfg.node_count);
  // Bounded rejection sampling for min separation; falls back to accepting
  // the candidate if the region is too crowded to honor the separation.
  while (points.size() < cfg.node_count) {
    geom::Vec2 candidate = uniform_point(cfg.region, rng);
    for (int tries = 0; tries < 32 && !sep.ok(candidate); ++tries) {
      candidate = uniform_point(cfg.region, rng);
    }
    sep.insert(candidate);
    points.push_back(candidate);
  }
  return points;
}

std::vector<geom::Vec2> place_corridor(const TopologyConfig& cfg, Rng& rng) {
  const std::size_t count = cfg.corridor_count;
  const std::size_t nh = (count + 1) / 2;  // horizontal bands
  const std::size_t nv = count - nh;       // vertical bands
  const Meters band = 0.1 * std::min(cfg.region.width(), cfg.region.height());
  const auto corridor_point = [&] {
    const auto c = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    geom::Vec2 p;
    if (c < nh) {
      const Meters yc = cfg.region.lo.y +
                        (double(c) + 0.5) * cfg.region.height() / double(nh);
      p.x = rng.uniform(cfg.region.lo.x, cfg.region.hi.x);
      p.y = std::clamp(yc + rng.uniform(-0.5 * band, 0.5 * band),
                       cfg.region.lo.y, cfg.region.hi.y);
    } else {
      const Meters xc = cfg.region.lo.x +
                        (double(c - nh) + 0.5) * cfg.region.width() / double(nv);
      p.y = rng.uniform(cfg.region.lo.y, cfg.region.hi.y);
      p.x = std::clamp(xc + rng.uniform(-0.5 * band, 0.5 * band),
                       cfg.region.lo.x, cfg.region.hi.x);
    }
    return p;
  };
  std::vector<geom::Vec2> points;
  points.reserve(cfg.node_count);
  SeparationIndex sep(cfg.region, cfg.min_separation, cfg.node_count);
  while (points.size() < cfg.node_count) {
    geom::Vec2 candidate = corridor_point();
    for (int tries = 0; tries < 32 && !sep.ok(candidate); ++tries) {
      candidate = corridor_point();
    }
    sep.insert(candidate);
    points.push_back(candidate);
  }
  return points;
}

std::vector<geom::Vec2> place_grid(const TopologyConfig& cfg, Rng& rng) {
  const auto side =
      static_cast<std::size_t>(std::ceil(std::sqrt(double(cfg.node_count))));
  const Meters dx = cfg.region.width() / double(side);
  const Meters dy = cfg.region.height() / double(side);
  std::vector<geom::Vec2> points;
  points.reserve(cfg.node_count);
  for (std::size_t r = 0; r < side && points.size() < cfg.node_count; ++r) {
    for (std::size_t c = 0; c < side && points.size() < cfg.node_count; ++c) {
      const geom::Vec2 cell_center{cfg.region.lo.x + (double(c) + 0.5) * dx,
                                   cfg.region.lo.y + (double(r) + 0.5) * dy};
      const geom::Vec2 jitter{rng.uniform(-0.25 * dx, 0.25 * dx),
                              rng.uniform(-0.25 * dy, 0.25 * dy)};
      points.push_back(cell_center + jitter);
    }
  }
  return points;
}

std::vector<geom::Vec2> place_clustered(const TopologyConfig& cfg, Rng& rng) {
  const double diag = std::hypot(cfg.region.width(), cfg.region.height());
  const Meters sigma = cfg.cluster_sigma_fraction * diag;
  std::vector<geom::Vec2> centers;
  centers.reserve(cfg.cluster_count);
  for (std::size_t i = 0; i < cfg.cluster_count; ++i) {
    centers.push_back(uniform_point(cfg.region, rng));
  }

  std::vector<geom::Vec2> points;
  points.reserve(cfg.node_count);
  const auto background = static_cast<std::size_t>(
      std::round(cfg.cluster_background_fraction * double(cfg.node_count)));
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    if (i < background || centers.empty()) {
      points.push_back(uniform_point(cfg.region, rng));
      continue;
    }
    const geom::Vec2 center =
        centers[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(centers.size()) - 1))];
    geom::Vec2 p{rng.normal(center.x, sigma), rng.normal(center.y, sigma)};
    p.x = std::clamp(p.x, cfg.region.lo.x, cfg.region.hi.x);
    p.y = std::clamp(p.y, cfg.region.lo.y, cfg.region.hi.y);
    points.push_back(p);
  }
  return points;
}

// The per-node draws, data rate then class, in id order.  Every attempt
// makes them whether or not its deployment is kept, so the rng stream does
// not depend on how early a deployment is rejected.
std::vector<SensorSpec> draw_specs(const TopologyConfig& cfg,
                                   const std::vector<geom::Vec2>& points,
                                   Rng& rng) {
  std::vector<SensorSpec> nodes;
  nodes.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SensorSpec spec;
    spec.id = static_cast<NodeId>(i);
    spec.position = points[i];
    spec.data_rate_bps =
        rng.uniform(0.5 * cfg.mean_data_rate_bps, 1.5 * cfg.mean_data_rate_bps);
    spec.battery_capacity = cfg.battery_capacity;
    if (cfg.class_count > 1) {
      // Heterogeneous classes: a linear ramp from factor 1 (class 0) to the
      // configured ratio (top class).  Guarded so the homogeneous default
      // draws nothing and leaves existing seeded topologies untouched.
      const double t =
          double(rng.uniform_int(
              0, static_cast<std::int64_t>(cfg.class_count) - 1)) /
          double(cfg.class_count - 1);
      spec.battery_capacity *= 1.0 + (cfg.class_capacity_ratio - 1.0) * t;
      spec.data_rate_bps *= 1.0 + (cfg.class_rate_ratio - 1.0) * t;
    }
    nodes.push_back(spec);
  }
  return nodes;
}

bool has_isolated_node(std::span<const SensorSpec> nodes, geom::Vec2 sink,
                       Meters comm_range) {
  const IsolationScan scan(nodes, sink, comm_range);
  for (NodeId id = 0; id < nodes.size(); ++id) {
    if (scan.isolated(id)) return true;
  }
  return false;
}

}  // namespace

void TopologyConfig::validate() const {
  // Checked first: an infinite or NaN extent passes every ordered
  // comparison below and then breaks the placement and grid arithmetic.
  const std::pair<const char*, double> reals[] = {
      {"region.lo.x", region.lo.x},
      {"region.lo.y", region.lo.y},
      {"region.hi.x", region.hi.x},
      {"region.hi.y", region.hi.y},
      {"comm_range", comm_range},
      {"min_separation", min_separation},
      {"mean_data_rate_bps", mean_data_rate_bps},
      {"battery_capacity", battery_capacity},
      {"cluster_sigma_fraction", cluster_sigma_fraction},
      {"cluster_background_fraction", cluster_background_fraction},
      {"class_capacity_ratio", class_capacity_ratio},
      {"class_rate_ratio", class_rate_ratio},
      {"sink_position.x", sink_position.x},
      {"sink_position.y", sink_position.y},
  };
  for (const auto& [name, value] : reals) {
    if (!std::isfinite(value)) {
      throw ConfigError(std::string("topology ") + name + " must be finite");
    }
  }
  if (node_count == 0) throw ConfigError("node_count must be > 0");
  if (comm_range <= 0.0) throw ConfigError("comm_range must be > 0");
  if (region.width() <= 0.0 || region.height() <= 0.0) {
    throw ConfigError("deployment region must have positive area");
  }
  if (mean_data_rate_bps < 0.0) throw ConfigError("negative data rate");
  if (battery_capacity <= 0.0) throw ConfigError("battery capacity must be > 0");
  if (max_attempts == 0) throw ConfigError("max_attempts must be > 0");
  if (corridor_count == 0) throw ConfigError("corridor_count must be > 0");
  if (class_count == 0) throw ConfigError("class_count must be > 0");
  if (class_capacity_ratio <= 0.0) {
    throw ConfigError("class_capacity_ratio must be > 0");
  }
  if (class_rate_ratio <= 0.0) {
    throw ConfigError("class_rate_ratio must be > 0");
  }
  if (!sink_at_center && !region.contains(sink_position)) {
    throw ConfigError("sink_position outside the deployment region");
  }
}

Network generate_topology(const TopologyConfig& config, Rng& rng) {
  config.validate();
  const geom::Vec2 sink =
      config.sink_at_center ? config.region.center() : config.sink_position;
  for (std::size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
    WRSN_OBS_COUNT(kNetTopologyAttempts);
    std::vector<geom::Vec2> points;
    switch (config.deployment) {
      case Deployment::Uniform: points = place_uniform(config, rng); break;
      case Deployment::Grid: points = place_grid(config, rng); break;
      case Deployment::Clustered: points = place_clustered(config, rng); break;
      case Deployment::Corridor: points = place_corridor(config, rng); break;
    }
    std::vector<SensorSpec> nodes = draw_specs(config, points, rng);
    // Most disconnected deployments strand a node outright; those are
    // rejected before the CSR is built.
    if (has_isolated_node(nodes, sink, config.comm_range)) continue;
    Network net(std::move(nodes), sink, config.comm_range);
    if (is_connected(net)) return net;
  }
  throw SimulationError(
      "generate_topology: no connected deployment found; increase comm_range "
      "or node density");
}

std::size_t count_sink_connected(const Network& network, const Bitmap& alive) {
  const std::size_t n = network.size();
  WRSN_REQUIRE(alive.empty() || alive.size() == n,
               "alive mask size mismatch");
  const auto is_alive = [&](NodeId id) {
    return alive.empty() || alive.test(id);
  };

  Bitmap visited(n, false);
  std::queue<NodeId> frontier;
  for (const NodeId id : network.sink_neighbors()) {
    if (is_alive(id) && !visited[id]) {
      visited.set(id);
      frontier.push(id);
    }
  }
  std::size_t reached = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    ++reached;
    for (const NodeId v : network.neighbors(u)) {
      if (is_alive(v) && !visited[v]) {
        visited.set(v);
        frontier.push(v);
      }
    }
  }
  return reached;
}

bool is_connected(const Network& network, const Bitmap& alive) {
  const std::size_t alive_count =
      alive.empty() ? network.size() : alive.count();
  return count_sink_connected(network, alive) == alive_count;
}

}  // namespace wrsn::net
