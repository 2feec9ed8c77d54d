// Quickstart: run one Charging Spoofing Attack mission with default
// parameters and print the attack report.
//
//   $ ./quickstart [seed]
//
// This exercises the whole stack: topology generation, routing and key-node
// analysis, the discrete-event world, the CSA planner, the spoofing physics,
// and the detector suite.
#include <cstdlib>
#include <iostream>

#include "analysis/scenario.hpp"
#include "analysis/table.hpp"

int main(int argc, char** argv) {
  using namespace wrsn;

  analysis::ScenarioConfig config = analysis::default_scenario();
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);

  std::cout << "Simulating a " << config.topology.node_count
            << "-node WRSN for " << config.horizon / 3600.0
            << " h under the CSA attacker (seed " << config.seed << ")...\n";

  const analysis::ScenarioResult result =
      analysis::run_mission(config, analysis::ChargerMode::Attack);
  const csa::AttackReport& report = result.report;

  std::cout << "\nKey targets: " << report.keys_total
            << "  exhausted: " << report.keys_dead << " ("
            << analysis::fmt(100.0 * report.exhaustion_ratio, 1)
            << " %)\n";
  std::cout << "Exhausted before any detector fired: "
            << report.keys_dead_before_detection << " ("
            << analysis::fmt(100.0 * report.undetected_exhaustion_ratio, 1)
            << " %)\n";
  if (report.detected) {
    std::cout << "Detected by '" << report.detector_name << "' at t="
              << analysis::fmt(report.detection_time / 3600.0, 2) << " h\n";
  } else {
    std::cout << "Attack ran the whole mission undetected.\n";
  }
  std::cout << "Sessions: " << report.sessions_genuine << " genuine / "
            << report.sessions_spoofed << " spoofed\n";
  std::cout << "Cover utility delivered: "
            << analysis::fmt(report.utility_delivered / 1000.0, 1)
            << " kJ; energy 'delivered' by spoofed sessions: "
            << analysis::fmt(report.spoof_delivered, 3) << " J\n";
  std::cout << "Deaths: " << report.deaths_total
            << "  escalations: " << report.escalations << "\n";
  if (report.partition_time.has_value()) {
    std::cout << "Network partitioned at t="
              << analysis::fmt(*report.partition_time / 3600.0, 2) << " h\n";
  } else {
    std::cout << "Network never partitioned.\n";
  }
  std::cout << "Alive at end: " << result.alive_at_end << "/"
            << result.node_count << " (sink-connected "
            << result.sink_connected_at_end << ")\n";
  return 0;
}
