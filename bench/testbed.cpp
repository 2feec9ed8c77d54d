// Testbed analog — the paper's small-scale physical experiment, re-created
// with the high-fidelity per-wave physics: an 8-node network at meter
// spacing (every node inside every other node's RF probe range), one key
// node, full detector suite.
//
// Expected shape: the key node logs a strong carrier during every one of
// its "charging" sessions, its believed level reads healthy, its true level
// walks to zero, and it dies while its neighbours measured a charger field
// the whole time.  All deployed detectors stay silent.
#include <iostream>
#include <memory>

#include "analysis/scenario.hpp"
#include "analysis/table.hpp"
#include "core/orchestrator.hpp"
#include "detect/detectors.hpp"
#include "net/topology.hpp"
#include "wpt/spoofing.hpp"

int main() {
  using namespace wrsn;
  using geom::Vec2;

  // Hand-placed 8-node testbed: a 2 x 4 bench grid at 2.5 m spacing, sink
  // at the left edge.  Node 0 is the only gateway -> the key node.
  std::vector<net::SensorSpec> specs;
  const Vec2 layout[] = {{2.5, 0.0},  {5.0, 0.0},  {7.5, 0.0},  {10.0, 0.0},
                         {5.0, 2.5},  {7.5, 2.5},  {10.0, 2.5}, {12.5, 1.0}};
  for (net::NodeId i = 0; i < 8; ++i) {
    net::SensorSpec spec;
    spec.id = i;
    spec.position = layout[i];
    spec.data_rate_bps = 4'000.0;
    spec.battery_capacity = 2'000.0;  // small bench batteries
    specs.push_back(spec);
  }
  net::Network network(std::move(specs), {0.0, 0.0}, 3.0);

  sim::WorldParams wp;
  wp.request_threshold = 0.30;
  wp.patience = 3'600.0;
  wp.min_request_gap = 120.0;
  wp.charging.source_power = 10.0;
  wp.charging.gain_product = 0.35;
  wp.charging.rectifier.dc_cap = 6.0;
  wp.drain.sensing_power = 20e-3;
  wp.initial_level_min = 0.6;
  wp.initial_level_max = 0.9;

  sim::Simulator sim;
  Rng rng(2022);
  sim::World world(sim, std::move(network), wp, rng.fork("world"));

  csa::AttackParams ap;
  ap.charger.depot = {0.0, -3.0};
  ap.charger.speed = 1.0;
  ap.charger.battery_capacity = 5e5;
  ap.key_selection.rule = net::KeyNodeRule::Articulation;
  ap.key_selection.max_count = 1;
  ap.campaign_deadline = 36 * 3'600.0;
  ap.pace_limit = 0;  // one target; pacing moot

  const csa::CsaPlanner planner;
  auto strategy = std::make_unique<csa::CsaStrategy>(world, ap, planner,
                                                     rng.fork("attack"));
  const csa::CsaStrategy& attacker = *strategy;
  mc::Vehicle vehicle(world, ap.charger, ap.battery_reserve_fraction,
                      ap.territory, std::move(strategy));
  vehicle.start();

  const Seconds horizon = 36 * 3'600.0;
  sim.run_until(horizon);

  // --- report ------------------------------------------------------------
  std::cout << "Testbed: 8 nodes, 2.5 m bench grid, 36 h run\n";
  std::cout << "Key target(s):";
  for (const net::NodeId k : attacker.key_targets()) std::cout << " " << k;
  std::cout << "\n\n";

  analysis::Table nodes("Per-node end state");
  nodes.headers({"node", "alive", "true level [J]", "believed [J]",
                 "sessions", "spoofed"});
  for (net::NodeId id = 0; id < world.network().size(); ++id) {
    std::size_t sessions = 0, spoofed = 0;
    for (const sim::SessionRecord& s : world.trace().sessions) {
      if (s.node != id) continue;
      ++sessions;
      if (s.kind == sim::SessionKind::Spoofed) ++spoofed;
    }
    nodes.row({std::to_string(id), world.alive(id) ? "yes" : "DEAD",
               analysis::fmt(world.level(id), 0),
               analysis::fmt(world.alive(id) ? world.believed_level(id) : 0.0, 0),
               std::to_string(sessions), std::to_string(spoofed)});
  }
  nodes.print(std::cout);

  analysis::Table sessions("\nSpoofed-session physics (dense testbed: every "
                           "neighbour probes the field)");
  sessions.headers({"t [h]", "node", "RF at comm antenna [W]",
                    "neighbour probe [W]", "probe dist [m]",
                    "delivered [J]", "expected [J]"});
  for (const sim::SessionRecord& s : world.trace().sessions) {
    if (s.kind != sim::SessionKind::Spoofed) continue;
    sessions.row({analysis::fmt(s.start / 3600.0, 1), std::to_string(s.node),
                  analysis::fmt(s.rf_observed, 3),
                  analysis::fmt(s.rf_neighbor_probe, 3),
                  analysis::fmt(s.nearest_probe_distance, 1),
                  analysis::fmt(s.delivered, 2),
                  analysis::fmt(s.expected_gain, 0)});
  }
  sessions.print(std::cout);

  detect::DetectorContext ctx;
  ctx.network = &world.network();
  ctx.charging_model = &world.charging_model();
  ctx.nominal_dc = world.nominal_dc_power();
  ctx.benign_gain_mean = wp.benign_gain_mean;
  ctx.benign_gain_cv = wp.benign_gain_cv;
  ctx.horizon = horizon;
  const detect::DetectorSuite suite = detect::make_deployed_suite();
  const auto results = suite.run(world.trace(), ctx);

  std::cout << "\nDeployed detector verdicts:\n";
  for (const detect::SuiteResult& r : results) {
    std::cout << "  " << r.detector << ": "
              << (r.detection.has_value()
                      ? "FIRED (" + r.detection->reason + ")"
                      : "silent")
              << "\n";
  }

  std::size_t key_deaths = 0;
  for (const sim::DeathRecord& d : world.trace().deaths) {
    for (const net::NodeId k : attacker.key_targets()) {
      if (d.node == k) ++key_deaths;
    }
  }
  std::cout << "\nKey nodes exhausted: " << key_deaths << "/"
            << attacker.key_targets().size()
            << "; escalations: " << world.trace().escalations.size() << "\n";
  return 0;
}
