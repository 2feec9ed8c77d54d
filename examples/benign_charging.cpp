// Benign operation study: how the honest charging service keeps the network
// alive, and how the three scheduling policies compare.
//
//   $ ./benign_charging [seed]
//
// This is the baseline the attack is measured against: key-node survival,
// escalations, and depot energy accounting under an uncompromised charger.
#include <cstdlib>
#include <iostream>

#include "analysis/scenario.hpp"
#include "analysis/table.hpp"

int main(int argc, char** argv) {
  using namespace wrsn;

  std::uint64_t seed = 7;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  analysis::Table table("Benign charging service, policy comparison");
  table.headers({"policy", "alive@end", "key deaths", "escalations",
                 "sessions", "travel kJ", "radiated kJ"});

  const struct {
    mc::SchedulePolicy policy;
    const char* name;
  } policies[] = {
      {mc::SchedulePolicy::Njnp, "NJNP"},
      {mc::SchedulePolicy::Edf, "EDF"},
      {mc::SchedulePolicy::Fcfs, "FCFS"},
      {mc::SchedulePolicy::Tour, "TSP-tour"},
  };

  for (const auto& entry : policies) {
    analysis::ScenarioConfig config = analysis::default_scenario();
    config.seed = seed;
    config.benign.policy = entry.policy;

    const analysis::ScenarioResult result =
        analysis::run_mission(config, analysis::ChargerMode::Benign);

    std::size_t key_deaths = 0;
    for (const sim::DeathRecord& d : result.trace.deaths) {
      for (const net::NodeId key : result.keys) {
        if (d.node == key) ++key_deaths;
      }
    }
    table.row({entry.name,
               std::to_string(result.alive_at_end) + "/" +
                   std::to_string(result.node_count),
               std::to_string(key_deaths),
               std::to_string(result.report.escalations),
               std::to_string(result.trace.sessions.size()),
               analysis::fmt(result.ledger.travel / 1000.0, 1),
               analysis::fmt(result.ledger.radiated_total() / 1000.0, 1)});
  }
  table.print(std::cout);

  std::cout << "\nAn honest charger keeps (nearly) everyone alive; any death"
               " happens with a request outstanding, which the base station"
               " sees.\n";
  return 0;
}
