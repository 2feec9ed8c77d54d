// Topology generators: deployments used by the evaluation.
//
// All generators guarantee the produced network is connected (every node can
// reach the sink over the unit-disk graph); generation retries with fresh
// randomness until connectivity holds and throws after a bounded number of
// attempts so misconfigured densities fail loudly instead of looping.
//
// One attempt places the points, then makes the per-node draws (data rate,
// then class), whether or not the attempt is kept, so the rng stream is a
// function of the attempt count alone.  An IsolationScan over the points
// then rejects the attempt if some node has neither a node nor the sink in
// range: such a deployment is disconnected, and rejecting it costs no CSR.
// Only an attempt that passes builds its Network, and is_connected on that
// Network decides whether it is kept.
#pragma once

#include <cstddef>

#include "common/bitset.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"

namespace wrsn::net {

enum class Deployment {
  Uniform,   ///< independent uniform positions in the region
  Grid,      ///< jittered grid covering the region
  Clustered, ///< Gaussian clusters plus a uniform background sprinkle
  Corridor,  ///< nodes strung along crossing road-like bands
};

/// Parameters shared by all generators.
struct TopologyConfig {
  geom::Rect region{{0.0, 0.0}, {100.0, 100.0}};
  std::size_t node_count = 100;
  Meters comm_range = 20.0;
  Deployment deployment = Deployment::Uniform;

  /// Sink location; defaults to the region center when `sink_at_center`.
  bool sink_at_center = true;
  geom::Vec2 sink_position;

  /// Mean application data rate [bit/s]; per node drawn uniform in
  /// [0.5, 1.5] x mean.
  double mean_data_rate_bps = 2'000.0;

  /// Node battery capacity [J].
  Joules battery_capacity = 10'800.0;

  /// Minimum pairwise node separation [m]; 0 disables the check.
  Meters min_separation = 1.0;

  /// Number of Gaussian clusters (Clustered deployment only).
  std::size_t cluster_count = 4;

  /// Cluster standard deviation as a fraction of the region diagonal.
  double cluster_sigma_fraction = 0.06;

  /// Fraction of nodes sprinkled uniformly instead of into clusters.
  double cluster_background_fraction = 0.2;

  /// Number of bands (Corridor deployment only).  Corridors alternate
  /// horizontal / vertical: the first ceil(count/2) are horizontal at
  /// heights (i + 0.5) / nh, the rest vertical.  For counts 1-3 one band
  /// always passes through the region center, so a centered sink sits on a
  /// corridor; larger counts may need an explicit sink_position to connect.
  std::size_t corridor_count = 3;

  /// Heterogeneous node classes.  Each node draws a class c uniformly in
  /// [0, class_count); class c scales battery capacity by
  /// 1 + (class_capacity_ratio - 1) * c / (class_count - 1) and the drawn
  /// data rate by the same ramp on class_rate_ratio.  class_count = 1 (the
  /// default) is homogeneous and draws no extra randomness, so existing
  /// seeded topologies are unchanged.
  std::size_t class_count = 1;
  double class_capacity_ratio = 1.0;
  double class_rate_ratio = 1.0;

  /// Attempts before generation gives up with SimulationError.
  std::size_t max_attempts = 64;

  /// Throws ConfigError on an out-of-range field.  Every real-valued field
  /// (region corners and sink position included) must be finite.
  void validate() const;
};

/// Generates a connected network according to `config`.
/// Throws SimulationError if no connected deployment is found within
/// `max_attempts` (density too low for the requested comm_range).  Every
/// deployment tried, connected or not and whether or not it built a
/// Network, bumps `net.topology_attempts`.
Network generate_topology(const TopologyConfig& config, Rng& rng);

/// True if every node can reach the sink over the unit-disk graph,
/// considering only nodes with `alive[id]` set (alive may be empty = all).
bool is_connected(const Network& network, const Bitmap& alive = {});

/// Number of alive nodes that can reach the sink.
std::size_t count_sink_connected(const Network& network,
                                 const Bitmap& alive = {});

}  // namespace wrsn::net
