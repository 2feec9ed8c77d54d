#include "net/keynodes.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/check.hpp"

namespace wrsn::net {
namespace {

bool alive_or_all(const Bitmap& alive, NodeId id) {
  return alive.empty() || alive.test(id);
}

// One iterative Tarjan DFS (recursion-free so deep chain topologies cannot
// overflow the stack) over the alive subgraph plus the sink as virtual
// vertex n.  The sink's component is searched first, rooted at the sink, so
// a node v's death disconnects from the sink exactly the DFS subtrees of its
// children c with low[c] >= disc[v]; `disconnects[v]` sums their sizes.
// Nodes outside the sink's component keep 0.  The remaining components are
// searched after it so `is_cut` covers the whole alive graph.
struct CutSurvey {
  std::vector<bool> is_cut;
  std::vector<std::size_t> disconnects;
};

CutSurvey survey_cuts(const Network& network, const Bitmap& alive) {
  WRSN_REQUIRE(alive.empty() || alive.size() == network.size(),
               "alive mask size mismatch");
  // Vertices, DFS times and subtree sizes are 32-bit: the frame stack is
  // the survey's largest buffer, and at N = 10k its growth sets a mission's
  // heap peak.
  WRSN_REQUIRE(network.size() < std::numeric_limits<std::uint32_t>::max(),
               "network too large for the cut survey");
  const auto sink = static_cast<std::uint32_t>(network.size());
  const std::uint32_t n = sink + 1;
  const auto present = [&](std::uint32_t v) {
    return v == sink || alive_or_all(alive, v);
  };
  CutSurvey out{std::vector<bool>(n, false), std::vector<std::size_t>(n, 0)};
  std::vector<std::uint32_t> disc(n, 0);  // 0 = unvisited; times start at 1
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> subtree(n, 0);

  // A frame walks its vertex's CSR row in place: a node's neighbour row,
  // then one extra slot for the sink when it is in range; the sink's row is
  // the sink-neighbour table.
  struct Frame {
    const NodeId* row;
    std::uint32_t row_size;
    std::uint32_t vertex;
    std::uint32_t parent;  // n for a root
    std::uint32_t end;     // row_size, +1 for a sink edge
    std::uint32_t next = 0;
    std::uint32_t children = 0;
  };
  std::vector<Frame> stack;
  std::uint32_t timer = 0;
  const auto search = [&](std::uint32_t root) {
    const bool from_sink = root == sink;
    const auto push = [&](std::uint32_t v, std::uint32_t parent) {
      disc[v] = low[v] = ++timer;
      if (v == sink) {
        const auto row = network.sink_neighbors();
        const auto size = static_cast<std::uint32_t>(row.size());
        stack.push_back({row.data(), size, v, parent, size});
        return;
      }
      subtree[v] = 1;
      const auto row = network.neighbors(v);
      const auto size = static_cast<std::uint32_t>(row.size());
      stack.push_back({row.data(), size, v, parent,
                       size + (network.sink_reachable(v) ? 1u : 0u)});
    };
    push(root, n);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::uint32_t v = frame.vertex;
      if (frame.next < frame.end) {
        const std::uint32_t k = frame.next++;
        const std::uint32_t u = k < frame.row_size ? frame.row[k] : sink;
        if (u == frame.parent || !present(u)) continue;
        if (disc[u] == 0) {
          ++frame.children;
          push(u, v);
        } else {
          low[v] = std::min(low[v], disc[u]);
        }
        continue;
      }
      // v finished: fold its low-link and subtree into the parent.
      const std::uint32_t children = frame.children;
      stack.pop_back();
      if (stack.empty()) {
        if (children > 1) out.is_cut[v] = true;  // root with 2+ DFS children
        continue;
      }
      const std::uint32_t p = stack.back().vertex;
      low[p] = std::min(low[p], low[v]);
      subtree[p] += subtree[v];
      if (low[v] >= disc[p] && stack.back().parent != n) {
        out.is_cut[p] = true;
        if (from_sink) out.disconnects[p] += subtree[v];
      }
    }
  };

  search(sink);
  for (std::uint32_t v = 0; v < sink; ++v) {
    if (present(v) && disc[v] == 0) search(v);
  }
  return out;
}

}  // namespace

std::vector<NodeId> articulation_points(const Network& network,
                                        const Bitmap& alive) {
  const std::vector<bool> is_cut = survey_cuts(network, alive).is_cut;
  std::vector<NodeId> cuts;
  for (NodeId id = 0; id < network.size(); ++id) {
    if (alive_or_all(alive, id) && is_cut[id]) cuts.push_back(id);
  }
  return cuts;
}

std::vector<KeyNodeInfo> rank_key_nodes(const Network& network,
                                        const TrafficLoads& loads,
                                        const Bitmap& alive) {
  const std::size_t n = network.size();
  WRSN_REQUIRE(loads.tx_bps.empty() || loads.tx_bps.size() == n,
               "loads do not match network");

  const std::vector<std::size_t> disconnects =
      survey_cuts(network, alive).disconnects;

  std::vector<KeyNodeInfo> ranked;
  ranked.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    if (!alive_or_all(alive, id)) continue;
    KeyNodeInfo info;
    info.id = id;
    info.disconnect_count = disconnects[id];
    info.traffic_bps = loads.tx_bps.empty() ? 0.0 : loads.tx_bps[id];
    ranked.push_back(info);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const KeyNodeInfo& a, const KeyNodeInfo& b) {
              if (a.disconnect_count != b.disconnect_count) {
                return a.disconnect_count > b.disconnect_count;
              }
              if (a.traffic_bps != b.traffic_bps) {
                return a.traffic_bps > b.traffic_bps;
              }
              return a.id < b.id;
            });
  return ranked;
}

std::vector<NodeId> select_key_nodes(const Network& network,
                                     const TrafficLoads& loads,
                                     const KeyNodeConfig& config,
                                     const Bitmap& alive) {
  WRSN_REQUIRE(config.max_count > 0, "max_count must be > 0");
  std::vector<KeyNodeInfo> ranked = rank_key_nodes(network, loads, alive);

  if (config.rule == KeyNodeRule::TopTraffic) {
    std::sort(ranked.begin(), ranked.end(),
              [](const KeyNodeInfo& a, const KeyNodeInfo& b) {
                if (a.traffic_bps != b.traffic_bps) {
                  return a.traffic_bps > b.traffic_bps;
                }
                return a.id < b.id;
              });
  }

  std::vector<NodeId> selected;
  for (const KeyNodeInfo& info : ranked) {
    if (selected.size() >= config.max_count) break;
    if (config.rule == KeyNodeRule::Articulation &&
        info.disconnect_count < config.min_disconnect) {
      break;  // ranked descending; nothing later qualifies either
    }
    if (config.rule == KeyNodeRule::Hybrid &&
        info.disconnect_count < config.min_disconnect) {
      break;  // cut-vertex phase done; traffic fill happens below
    }
    selected.push_back(info.id);
  }

  if (config.rule == KeyNodeRule::Hybrid && selected.size() < config.max_count) {
    // Fill the remainder with the highest-traffic nodes not yet selected
    // (a bitmap, not a scan of `selected`: the attacker's survey asks for
    // all N, which made the scan quadratic).
    Bitmap chosen(network.size(), false);
    for (const NodeId id : selected) chosen.set(id);
    std::vector<KeyNodeInfo> by_traffic = ranked;
    std::sort(by_traffic.begin(), by_traffic.end(),
              [](const KeyNodeInfo& a, const KeyNodeInfo& b) {
                if (a.traffic_bps != b.traffic_bps) {
                  return a.traffic_bps > b.traffic_bps;
                }
                return a.id < b.id;
              });
    for (const KeyNodeInfo& info : by_traffic) {
      if (selected.size() >= config.max_count) break;
      if (!chosen.test(info.id)) selected.push_back(info.id);
    }
  }
  return selected;
}

}  // namespace wrsn::net
