// Fleet compromise study: a multi-charger deployment where one fleet member
// is compromised.  Shows the attack stays contained to the compromised
// vehicle's service cell, the honest members keep their cells healthy, and
// the depot audit still cannot tell which vehicle is lying.
//
//   $ ./fleet_compromise [seed]
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "analysis/scenario.hpp"
#include "analysis/table.hpp"
#include "mc/fleet.hpp"
#include "net/topology.hpp"

namespace {

/// "#k".  Appended piecewise: `"#" + std::to_string(k)` inlines a
/// basic_string::insert that GCC 12 flags with a false -Wrestrict.
std::string member_label(std::size_t k) {
  std::string label = "#";
  label += std::to_string(k);
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wrsn;

  std::uint64_t seed = 5;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);
  constexpr std::size_t kFleet = 3;

  analysis::Table table("Fleet of " + std::to_string(kFleet) +
                        " chargers, one compromised (seed " +
                        std::to_string(seed) + ")");
  table.headers({"compromised member", "keys dead", "undetected dead",
                 "detected by", "deaths", "escalations"});

  for (std::size_t bad = 0; bad <= kFleet; ++bad) {
    analysis::ScenarioConfig cfg = analysis::default_scenario();
    cfg.seed = seed;
    cfg.fleet_size = kFleet;
    cfg.fleet_compromised = bad;
    const analysis::ScenarioResult result = analysis::run_mission(
        cfg, bad < kFleet ? analysis::ChargerMode::Attack
                          : analysis::ChargerMode::Benign);
    const csa::AttackReport& r = result.report;
    table.row({bad < kFleet ? member_label(bad) : "none (honest)",
               std::to_string(r.keys_dead) + "/" +
                   std::to_string(r.keys_total),
               std::to_string(r.keys_dead_before_detection),
               r.detected ? r.detector_name : "-",
               std::to_string(r.deaths_total),
               std::to_string(r.escalations)});
  }
  table.print(std::cout);

  // Show the containment: deaths per cell for the compromised-#0 run.
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = seed;
  cfg.fleet_size = kFleet;
  cfg.fleet_compromised = 0;
  const analysis::ScenarioResult result =
      analysis::run_mission(cfg, analysis::ChargerMode::Attack);

  Rng rng(cfg.seed);
  Rng topo_rng = rng.fork("topology");
  const net::Network network = net::generate_topology(cfg.topology, topo_rng);
  const auto depots = mc::default_depots(cfg.topology.region, kFleet);
  const auto cells = mc::partition_by_depot(network, depots);

  analysis::Table cells_table("\nDeath containment (member #0 compromised)");
  cells_table.headers({"cell", "nodes", "deaths"});
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const std::set<net::NodeId> cell(cells[k].begin(), cells[k].end());
    std::size_t deaths = 0;
    for (const sim::DeathRecord& d : result.trace.deaths) {
      if (cell.count(d.node) > 0) ++deaths;
    }
    cells_table.row({member_label(k),
                     std::to_string(cells[k].size()),
                     std::to_string(deaths)});
  }
  cells_table.print(std::cout);

  std::cout << "\nThe compromised member exhausts the key nodes of its own"
               " cell; the honest members' cells stay healthy, and no"
               " depot-side audit attributes the deaths to a vehicle.\n";
  return 0;
}
