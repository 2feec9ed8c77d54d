#include "net/routing.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace wrsn::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Below 2^50 buckets, cost * (2 / hop_cost) rounds by far less than a
// bucket, so a label hop_cost above another lands at least one bucket
// higher; past it the rounding can swallow the gap.
constexpr double kSeparable = double(std::uint64_t{1} << 50);

// RoutingScratch::state values; the repaired subtree is the nodes at
// kOpen or above.
constexpr char kClosed = 0;
constexpr char kBoundary = 1;
constexpr char kOpen = 2;
constexpr char kSettled = 3;

bool alive_or_all(const Bitmap& alive, NodeId id) {
  return alive.empty() || alive.test(id);
}

bool label_less(const CostBuckets::Label& a, const CostBuckets::Label& b) {
  return a.cost != b.cost ? a.cost < b.cost : a.id < b.id;
}

// The std heap algorithms keep the largest element on top.
bool label_greater(const CostBuckets::Label& a, const CostBuckets::Label& b) {
  return label_less(b, a);
}

}  // namespace

std::uint64_t CostBuckets::bucket_of(double cost) const {
  const double q = cost * per_bucket_;
  return q < kSeparable ? static_cast<std::uint64_t>(q) : kFar;
}

void CostBuckets::reset(double hop_cost, double lowest) {
  WRSN_ASSERT(hop_cost > 0.0);
  per_bucket_ = 2.0 / hop_cost;
  const std::uint64_t first = bucket_of(lowest);
  cursor_ = first == kFar ? 0 : first;
  ring_labels_ = 0;
  heads_.fill(kNil);
  pool_.clear();
  free_ = kNil;
  overflow_.clear();
}

void CostBuckets::push(NodeId id, double cost,
                       const std::vector<double>& path_cost) {
  const std::uint64_t bucket = bucket_of(cost);
  WRSN_ASSERT(bucket >= cursor_);
  if (bucket - cursor_ < kRing) {
    link(id, cost, bucket, path_cost);
    return;
  }
  // At most one label per node is live, so past 2N at least half are stale.
  if (overflow_.size() >= 2 * path_cost.size()) {
    std::erase_if(overflow_, [&path_cost](const Label& label) {
      return label.cost != path_cost[label.id];
    });
    std::make_heap(overflow_.begin(), overflow_.end(), label_greater);
  }
  overflow_.push_back({cost, id});
  std::push_heap(overflow_.begin(), overflow_.end(), label_greater);
}

void CostBuckets::link(NodeId id, double cost, std::uint64_t bucket,
                       const std::vector<double>& path_cost) {
  if (free_ == kNil && pool_.size() >= 2 * path_cost.size()) {
    drop_stale(path_cost);
  }
  std::uint32_t entry = free_;
  if (entry != kNil) {
    free_ = pool_[entry].next;
    pool_[entry] = {cost, id, kNil};
  } else {
    entry = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back({cost, id, kNil});
  }
  std::uint32_t& head = heads_[bucket & (kRing - 1)];
  pool_[entry].next = head;
  head = entry;
  ++ring_labels_;
}

void CostBuckets::drop_stale(const std::vector<double>& path_cost) {
  for (std::uint32_t& head : heads_) {
    std::uint32_t* at = &head;
    while (*at != kNil) {
      Entry& entry = pool_[*at];
      if (entry.cost == path_cost[entry.id]) {
        at = &entry.next;
        continue;
      }
      const std::uint32_t stale = *at;
      *at = entry.next;
      entry.next = free_;
      free_ = stale;
      --ring_labels_;
    }
  }
}

void CostBuckets::migrate(const std::vector<double>& path_cost) {
  while (!overflow_.empty()) {
    const Label top = overflow_.front();
    const std::uint64_t bucket = bucket_of(top.cost);
    if (bucket - cursor_ >= kRing) return;
    std::pop_heap(overflow_.begin(), overflow_.end(), label_greater);
    overflow_.pop_back();
    if (top.cost == path_cost[top.id]) link(top.id, top.cost, bucket, path_cost);
  }
}

bool CostBuckets::pop_lowest(const std::vector<double>& path_cost,
                             std::vector<Label>& batch) {
  batch.clear();
  while (ring_labels_ == 0) {
    if (overflow_.empty()) return false;
    const Label top = overflow_.front();
    const std::uint64_t bucket = bucket_of(top.cost);
    if (bucket == kFar) {
      std::pop_heap(overflow_.begin(), overflow_.end(), label_greater);
      overflow_.pop_back();
      if (top.cost == path_cost[top.id]) batch.push_back(top);
      return true;
    }
    cursor_ = bucket;
    migrate(path_cost);
  }
  while (heads_[cursor_ & (kRing - 1)] == kNil) {
    ++cursor_;
    migrate(path_cost);
  }
  std::uint32_t& head = heads_[cursor_ & (kRing - 1)];
  for (std::uint32_t entry = head; entry != kNil;) {
    Entry& label = pool_[entry];
    if (label.cost == path_cost[label.id]) batch.push_back({label.cost, label.id});
    const std::uint32_t next = label.next;
    label.next = free_;
    free_ = entry;
    entry = next;
    --ring_labels_;
  }
  head = kNil;
  std::sort(batch.begin(), batch.end(), label_less);
  return true;
}

void RoutingScratch::reserve(std::size_t n) {
  state.reserve(n);
  affected_ids.reserve(n);
  boundary.reserve(n);
  repaired_order.reserve(n);
  merged_order.reserve(n);
}

namespace {

// Settles everything queued in `scratch.buckets` in (cost, id) order,
// appending each open node to `order` as it settles and setting its
// `reachable` bit.  A popped boundary node is settled already: it only
// relaxes its open neighbours.
void settle_queued(const Network& network, double hop_cost,
                   RoutingTree& tree, RoutingScratch& scratch,
                   std::vector<NodeId>& order) {
  std::vector<char>& state = scratch.state;
  std::vector<std::uint32_t>& candidates = scratch.candidates;
  while (scratch.buckets.pop_lowest(tree.path_cost, scratch.batch)) {
    for (const auto& [cost, u] : scratch.batch) {
      if (state[u] == kOpen) {
        tree.reachable.set(u);
        state[u] = kSettled;
        order.push_back(u);
      }
      const auto nbrs = network.neighbors(u);
      const auto dist = network.neighbor_distances(u);
      if (candidates.size() < nbrs.size()) candidates.resize(nbrs.size());
      std::size_t improved = 0;
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const NodeId v = nbrs[k];
        const double next = cost + hop_cost + dist[k] * dist[k];
        candidates[improved] = static_cast<std::uint32_t>(k);
        improved += (state[v] == kOpen) & (next < tree.path_cost[v]);
      }
      for (std::size_t i = 0; i < improved; ++i) {
        const std::size_t k = candidates[i];
        const NodeId v = nbrs[k];
        const Meters d = dist[k];
        const double next = cost + hop_cost + d * d;
        tree.path_cost[v] = next;
        tree.parent[v] = u;
        tree.uplink_distance[v] = d;
        scratch.buckets.push(v, next, tree.path_cost);
      }
    }
  }
}

}  // namespace

void rebuild_routing_tree(const Network& network, const Bitmap& alive,
                          const RoutingParams& params, RoutingTree& tree,
                          RoutingScratch& scratch) {
  WRSN_OBS_SPAN(kNetRoutingNs);
  const std::size_t n = network.size();
  WRSN_REQUIRE(alive.empty() || alive.size() == n, "alive mask size mismatch");
  WRSN_REQUIRE(params.hop_cost > 0.0, "hop cost must be positive");

  tree.parent.assign(n, kInvalidNode);
  tree.reachable.assign(n, false);
  tree.uplink_distance.assign(n, 0.0);
  tree.path_cost.assign(n, kInf);
  tree.settle_order.clear();

  scratch.state.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    scratch.state[id] = alive_or_all(alive, id) ? kOpen : kClosed;
  }

  // Seed with direct sink uplinks; no path costs less than one hop.
  scratch.buckets.reset(params.hop_cost, params.hop_cost);
  for (const NodeId id : network.sink_neighbors()) {
    if (scratch.state[id] != kOpen) continue;
    const Meters d = network.distance_to_sink(id);
    const double cost = params.hop_cost + d * d;
    if (cost < tree.path_cost[id]) {
      tree.path_cost[id] = cost;
      tree.uplink_distance[id] = d;
      scratch.buckets.push(id, cost, tree.path_cost);
    }
  }
  settle_queued(network, params.hop_cost, tree, scratch, tree.settle_order);
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
  WRSN_OBS_SPAN(kNetRoutingNs);
  const std::size_t n = network.size();
  WRSN_REQUIRE(tree.parent.size() == n, "tree does not match network");
  WRSN_REQUIRE(alive.size() == n, "repair requires an explicit alive mask");
  WRSN_REQUIRE(dead < n && !alive[dead], "dead node must be cleared in mask");
  WRSN_REQUIRE(params.hop_cost > 0.0, "hop cost must be positive");

  if (!tree.reachable[dead]) {
    // The dead node routed nothing; no other node's path can change.
    tree.parent[dead] = kInvalidNode;
    tree.uplink_distance[dead] = 0.0;
    tree.path_cost[dead] = kInf;
    return 0;
  }

  // 1. Affected set = the dead node's routing subtree, marked open.
  // settle_order is a parent-before-child topological order, so one
  // forward pass finds it.
  std::vector<char>& state = scratch.state;
  state.assign(n, kClosed);
  state[dead] = kOpen;
  scratch.affected_ids.clear();
  for (const NodeId u : tree.settle_order) {
    if (u == dead) continue;
    const NodeId p = tree.parent[u];
    if (p != kInvalidNode && state[p] == kOpen) {
      state[u] = kOpen;
      scratch.affected_ids.push_back(u);
    }
  }
  // From here on the open nodes are the subtree only: the dead node is
  // closed like any node outside it.
  state[dead] = kClosed;

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

  // 3. Seed the subtree as a full rebuild would: direct sink uplinks
  // first, then every reachable neighbour of the subtree (its boundary),
  // queued at its own path cost.  Popped in (cost, id) order among the
  // subtree's labels, a boundary node relaxes into the subtree exactly when
  // a full rebuild settles it, so equal-cost offers break ties the same
  // way.  Paths through other closed nodes cannot improve (removing a node
  // never shortens a path), and unreachable ones cost +inf.
  double lowest = kInf;
  scratch.boundary.clear();
  std::vector<std::uint32_t>& candidates = scratch.candidates;
  for (const NodeId u : scratch.affected_ids) {
    if (network.sink_reachable(u)) {
      const Meters d = network.distance_to_sink(u);
      tree.path_cost[u] = params.hop_cost + d * d;
      tree.uplink_distance[u] = d;
      lowest = std::min(lowest, tree.path_cost[u]);
    }
    const auto nbrs = network.neighbors(u);
    if (candidates.size() < nbrs.size()) candidates.resize(nbrs.size());
    std::size_t found = 0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId v = nbrs[k];
      candidates[found] = v;
      found += (state[v] == kClosed) & (tree.path_cost[v] < kInf);
    }
    for (std::size_t i = 0; i < found; ++i) {
      const NodeId v = candidates[i];
      state[v] = kBoundary;
      scratch.boundary.push_back(v);
      lowest = std::min(lowest, tree.path_cost[v]);
    }
  }
  scratch.buckets.reset(params.hop_cost, lowest);
  for (const NodeId u : scratch.affected_ids) {
    if (tree.path_cost[u] < kInf) {
      scratch.buckets.push(u, tree.path_cost[u], tree.path_cost);
    }
  }
  for (const NodeId v : scratch.boundary) {
    scratch.buckets.push(v, tree.path_cost[v], tree.path_cost);
  }

  // 4. Dijkstra restricted to the subtree.
  scratch.repaired_order.clear();
  settle_queued(network, params.hop_cost, tree, scratch,
                scratch.repaired_order);

  // 5. Merge the settle order: survivors keep their relative order (their
  // costs are untouched) and repaired nodes — re-settled in ascending
  // (cost, id) order, the same total order a full Dijkstra settles in — are
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
    if (u == dead || state[u] >= kOpen) continue;
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
