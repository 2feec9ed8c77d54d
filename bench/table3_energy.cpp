// Table III — Mobile-charger energy accounting: the depot-side ledger a
// network operator could audit, benign vs CSA.
//
// Expected shape: travel, radiated energy, and per-session radiated rate
// are statistically indistinguishable between the honest charger and the
// attacker (the stealth-by-construction property); the only divergent
// number — energy actually delivered to key nodes — is invisible to the
// depot.
#include <iostream>
#include <set>

#include "analysis/perf.hpp"
#include "analysis/scenario.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "runner/runner.hpp"

namespace {
constexpr int kSeeds = 10;
}

int main() {
  using namespace wrsn;

  struct Trial {
    int mode;
    int seed;
  };
  std::vector<Trial> trials;
  for (int mode = 0; mode < 2; ++mode) {
    for (int seed = 1; seed <= kSeeds; ++seed) trials.push_back({mode, seed});
  }

  runner::RunStats stats;
  const std::vector<analysis::ScenarioResult> results = runner::run_trials(
      std::span<const Trial>(trials),
      [](const Trial& trial, Rng&) {
        analysis::ScenarioConfig cfg = analysis::default_scenario();
        cfg.seed = static_cast<std::uint64_t>(trial.seed);
        return analysis::run_mission(cfg, trial.mode == 0
                                               ? analysis::ChargerMode::Benign
                                               : analysis::ChargerMode::Attack);
      },
      {.label = "table3"}, &stats);

  struct Row {
    std::vector<double> travel, radiated, drawn, sessions, rate, to_keys;
  };
  Row rows[2];

  std::size_t next = 0;
  for (int mode = 0; mode < 2; ++mode) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      const analysis::ScenarioResult& result = results[next++];
      Row& r = rows[mode];
      r.travel.push_back(result.ledger.travel / 1000.0);
      r.radiated.push_back(result.ledger.radiated_total() / 1000.0);
      r.drawn.push_back(result.ledger.drawn_for_radiation / 1000.0);
      r.sessions.push_back(double(result.trace.sessions.size()));
      double session_time = 0.0, delivered_keys = 0.0;
      const std::set<net::NodeId> keys(result.keys.begin(),
                                       result.keys.end());
      for (const sim::SessionRecord& s : result.trace.sessions) {
        session_time += s.end - s.start;
        if (keys.count(s.node) > 0) delivered_keys += s.delivered;
      }
      r.rate.push_back(session_time > 0.0
                           ? result.ledger.radiated_total() / session_time
                           : 0.0);
      r.to_keys.push_back(delivered_keys / 1000.0);
    }
  }

  analysis::Table table("Table III: depot-auditable MC energy ledger (mean "
                        "+- 95% CI, " + std::to_string(kSeeds) + " seeds)");
  table.headers({"metric", "benign", "CSA", "depot-visible?"});
  const auto emit = [&](const char* name, const std::vector<double>& a,
                        const std::vector<double>& b, const char* visible) {
    const auto sa = analysis::summarize(a);
    const auto sb = analysis::summarize(b);
    table.row({name, analysis::fmt_ci(sa.mean, sa.ci95, 1),
               analysis::fmt_ci(sb.mean, sb.ci95, 1), visible});
  };
  emit("travel energy [kJ]", rows[0].travel, rows[1].travel, "yes");
  emit("radiated energy [kJ]", rows[0].radiated, rows[1].radiated, "yes");
  emit("battery drawn for RF [kJ]", rows[0].drawn, rows[1].drawn, "yes");
  emit("sessions completed", rows[0].sessions, rows[1].sessions, "yes");
  emit("radiated W per session-s", rows[0].rate, rows[1].rate, "yes");
  emit("delivered to key nodes [kJ]", rows[0].to_keys, rows[1].to_keys,
       "NO (node-side only)");
  table.print(std::cout);
  analysis::print_perf(std::cout, stats);

  std::cout << "\nEvery depot-visible row overlaps across the two chargers;"
               " the one row that separates them cannot be audited without"
               " per-node coulomb counters.\n";
  return 0;
}
