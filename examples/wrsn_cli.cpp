// wrsn_cli — declarative experiment runner.
//
//   $ ./wrsn_cli [--config file.ini] [--mode benign|attack] [--fleet N]
//                [--compromised K] [--export prefix] [--seed S]
//                [--repro '<line>']
//
// Loads the calibrated defaults, applies the optional config file and flag
// overrides, runs one mission, prints the report, and (with --export) dumps
// the full trace as CSV for external analysis.  --repro takes a failing
// trial line printed by scenario_fuzzer and replays exactly that mission
// (the line's `mode` wins over --mode; an explicit --seed wins over the
// line's `seed`).
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <tuple>

#include "analysis/config_io.hpp"
#include "analysis/fuzz.hpp"
#include "analysis/metrics_io.hpp"
#include "analysis/scenario.hpp"
#include "analysis/table.hpp"
#include "analysis/tournament.hpp"
#include "analysis/trace_io.hpp"
#include "obs/metrics.hpp"
#include "svc/digest.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace {

void usage() {
  std::cout <<
      "usage: wrsn_cli [options]\n"
      "  --config <file.ini>   load scenario overrides (see config_io.hpp)\n"
      "  --mode benign|attack  charging service behaviour (default attack)\n"
      "  --fleet <N>           run N chargers (Voronoi territories)\n"
      "  --compromised <K>     fleet member K runs the CSA attack\n"
      "  --seed <S>            RNG seed override\n"
      "  --export <prefix>     write <prefix>_{sessions,requests,deaths,"
      "escalations}.csv\n"
      "  --metrics <file.json> collect obs metrics during the run; print the\n"
      "                        table and write the wrsn-metrics-v1 JSON\n"
      "  --repro <line>        replay a scenario_fuzzer repro line (k=v;k=v)\n"
      "  --tournament <out>    run the default attacker-policy x defender-\n"
      "                        policy grid over this scenario and write the\n"
      "                        wrsn-tournament-v1 JSON (--trials sizes it)\n"
      "  --trials <N>          tournament only: missions per cell/column\n"
      "  --serve <socket>      run the mission server on a unix socket\n"
      "                        (honors WRSN_THREADS; --cache/--queue size it;\n"
      "                        SIGINT/SIGTERM drain and print stats)\n"
      "  --client <socket>     send this invocation's scenario to a running\n"
      "                        server instead of executing locally; verifies\n"
      "                        the response against a direct run unless\n"
      "                        --no-verify\n"
      "  --binary              client only: use the binary protocol\n"
      "  --no-verify           client only: skip the direct-run cross-check\n"
      "  --cache <N>           serve only: result-cache entries (default 4096)\n"
      "  --queue <N>           serve only: admission limit (default 1024)\n"
      "  --help                this text\n";
}

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

/// --serve: host a MissionService on `socket_path` until SIGINT/SIGTERM,
/// then drain gracefully and print the service tallies.
int run_serve(const std::string& socket_path, std::size_t cache_entries,
              std::size_t queue_limit, const std::string& metrics_path) {
  using namespace wrsn;

  svc::ServiceOptions options;
  options.cache_capacity = cache_entries;
  options.queue_limit = queue_limit;
  svc::MissionService service(options);
  svc::MissionServer server(service, socket_path);
  server.start();

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  std::cout << "serving on " << socket_path << " (" << service.threads()
            << " worker thread" << (service.threads() == 1 ? "" : "s")
            << ")" << std::endl;

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::cout << "\ndraining..." << std::endl;
  server.stop();
  service.shutdown();

  const svc::ServiceStats stats = service.stats();
  analysis::Table table("Mission service (drained cleanly)");
  table.headers({"counter", "value"});
  table.row({"requests", std::to_string(stats.requests)});
  table.row({"executions", std::to_string(stats.executions)});
  table.row({"cache hits", std::to_string(stats.cache_hits)});
  table.row({"coalesced joins", std::to_string(stats.coalesced)});
  table.row({"shed", std::to_string(stats.shed)});
  table.row({"cache evictions", std::to_string(stats.evictions)});
  table.row({"queue peak", std::to_string(stats.queue_peak)});
  table.row({"connections", std::to_string(server.connections())});
  table.print(std::cout);

  if (!metrics_path.empty()) {
    obs::MetricRegistry metrics;
    obs::ScopedRegistry scope(&metrics);
    service.flush_obs();
    analysis::write_metrics_json(metrics, metrics_path);
    std::cout << "metrics JSON written to " << metrics_path << "\n";
  }
  return 0;
}

/// --client: round-trip the scenario through a running server.  Unless
/// --no-verify, the same scenario also runs directly in this process; any
/// digest divergence prints the exact REPRO line and fails the invocation.
int run_client(const std::string& socket_path, bool binary, bool verify,
               const wrsn::analysis::FuzzOverrides& overrides) {
  using namespace wrsn;

  const std::string repro = analysis::format_repro(overrides);
  svc::MissionClient client(socket_path, binary);
  const svc::MissionResponse resp = client.call(/*tenant=*/0, repro);

  analysis::Table table("Service response (" +
                        std::string(binary ? "binary" : "json") + ")");
  table.headers({"field", "value"});
  table.row({"status", std::string(svc::status_name(resp.status))});
  table.row({"route", std::string(svc::route_name(resp.route))});
  table.row({"scenario digest", std::to_string(resp.outcome.scenario_digest)});
  table.row({"seed", std::to_string(resp.outcome.seed)});
  table.row({"result digest", std::to_string(resp.outcome.result_digest)});
  table.row({"nodes alive at end",
             std::to_string(resp.outcome.alive_at_end) + "/" +
                 std::to_string(resp.outcome.node_count)});
  table.row({"keys exhausted", std::to_string(resp.outcome.keys_dead) + "/" +
                                   std::to_string(resp.outcome.keys_total)});
  table.row({"detected", resp.outcome.detected != 0
                             ? std::string(resp.outcome.detector)
                             : std::string("no")});
  table.print(std::cout);

  if (resp.status != svc::MissionStatus::kOk) {
    std::cerr << "service did not execute the mission: "
              << svc::status_name(resp.status) << "\n";
    return 1;
  }
  if (!verify) return 0;

  const auto [cfg, mode] = analysis::resolve_overrides(overrides);
  const analysis::ScenarioResult direct = analysis::run_mission(cfg, mode);
  const std::uint64_t expected = analysis::digest_result(direct);
  const std::uint64_t expected_scenario = svc::scenario_digest(cfg, mode);
  if (expected != resp.outcome.result_digest ||
      expected_scenario != resp.outcome.scenario_digest) {
    std::cerr << "SERVICE MISMATCH: direct result digest " << expected
              << " (scenario " << expected_scenario << ") vs served "
              << resp.outcome.result_digest << " (scenario "
              << resp.outcome.scenario_digest << ")\n"
              << "REPRO " << repro << "\n";
    return 1;
  }
  std::cout << "verified: service matches direct execution (digest "
            << expected << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wrsn;

  std::string config_path;
  std::string mode = "attack";
  std::string export_prefix;
  std::string metrics_path;
  std::string repro_line;
  std::string tournament_path;
  std::size_t tournament_trials = 4;
  std::string serve_path;
  std::string client_path;
  bool client_binary = false;
  bool client_verify = true;
  std::size_t cache_entries = 4096;
  std::size_t queue_limit = 1024;
  std::size_t fleet = 1;
  std::size_t compromised = SIZE_MAX;
  bool compromised_set = false;
  std::uint64_t seed = 0;
  bool seed_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      config_path = next();
    } else if (arg == "--mode") {
      mode = next();
    } else if (arg == "--fleet") {
      fleet = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--compromised") {
      compromised = std::strtoull(next().c_str(), nullptr, 10);
      compromised_set = true;
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
      seed_set = true;
    } else if (arg == "--export") {
      export_prefix = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--repro") {
      repro_line = next();
    } else if (arg == "--tournament") {
      tournament_path = next();
    } else if (arg == "--trials") {
      tournament_trials = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--serve") {
      serve_path = next();
    } else if (arg == "--client") {
      client_path = next();
    } else if (arg == "--binary") {
      client_binary = true;
    } else if (arg == "--no-verify") {
      client_verify = false;
    } else if (arg == "--cache") {
      cache_entries = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--queue") {
      queue_limit = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }

  try {
    if (!serve_path.empty()) {
      return run_serve(serve_path, cache_entries, queue_limit, metrics_path);
    }
    if (!client_path.empty()) {
      // The wire protocol carries overrides-over-defaults (a repro line), so
      // fold every local source into one override map: flags first, then the
      // config file, then an explicit --repro (later sources win).
      analysis::FuzzOverrides overrides;
      overrides["mode"] = mode;
      if (!config_path.empty()) {
        std::ifstream in(config_path);
        if (!in) throw ConfigError("cannot open " + config_path);
        for (auto& [k, v] : analysis::parse_ini(in)) overrides[k] = v;
      }
      if (!repro_line.empty()) {
        for (auto& [k, v] : analysis::parse_repro(repro_line)) {
          overrides[k] = v;
        }
      }
      if (seed_set) overrides["seed"] = std::to_string(seed);
      if (fleet > 1) overrides["fleet.size"] = std::to_string(fleet);
      if (compromised_set) {
        overrides["fleet.compromised"] = std::to_string(compromised);
      }
      return run_client(client_path, client_binary, client_verify, overrides);
    }

    // The repro line applies over the config file, and its `mode` wins over
    // --mode; both resolve through resolve_overrides, so a bad mode fails
    // with the same ConfigError the service and scenario_fuzzer give.
    analysis::FuzzOverrides overrides;
    if (!repro_line.empty()) overrides = analysis::parse_repro(repro_line);
    overrides.try_emplace("mode", mode);
    analysis::ScenarioConfig cfg;
    analysis::ChargerMode charger_mode = analysis::ChargerMode::Attack;
    std::tie(cfg, charger_mode) = analysis::resolve_overrides(
        config_path.empty() ? analysis::default_scenario()
                            : analysis::load_config_file(config_path),
        overrides);
    mode = charger_mode == analysis::ChargerMode::Attack ? "attack" : "benign";
    if (seed_set) cfg.seed = seed;

    if (!tournament_path.empty()) {
      // Default 3x3 policy grid over the resolved scenario; the tournament
      // re-seeds each mission itself, forked from --seed (default 1).
      analysis::TournamentConfig tc = analysis::default_tournament(cfg);
      tc.attack_trials = tournament_trials;
      tc.benign_trials = tournament_trials;
      tc.seed = seed_set ? seed : 1;
      const analysis::TournamentRunner runner(tc);
      const analysis::TournamentReport report = runner.run();

      analysis::Table table("Policy tournament (seed " +
                            std::to_string(tc.seed) + ", " +
                            std::to_string(tournament_trials) +
                            " missions per cell)");
      table.headers({"attacker", "defender", "damage", "detected",
                     "benign FP rate"});
      for (const analysis::TournamentCell& cell : report.cells) {
        table.row({cell.attacker, cell.defender,
                   analysis::fmt(cell.damage, 3),
                   analysis::fmt(cell.detection_rate, 3),
                   analysis::fmt(cell.fp_rate, 3)});
      }
      table.print(std::cout);

      const std::string json = analysis::tournament_json(tc, report);
      std::ofstream out(tournament_path);
      if (!out) throw ConfigError("cannot write " + tournament_path);
      out << json;
      std::cout << "tournament JSON written to " << tournament_path
                << " (digest " << report.digest << ")\n";
      return 0;
    }

    // The flags override the config-file / repro-line fleet keys, so
    // `--repro 'fleet.size=3;...'` replays the fleet mission the fuzzer
    // actually ran; run_mission resolves the crew exactly as the fuzzer and
    // the mission service do.
    if (fleet > 1) cfg.fleet_size = fleet;
    if (compromised_set) cfg.fleet_compromised = compromised;

    obs::MetricRegistry metrics;
    analysis::ScenarioResult result;
    {
      // Collect metrics only when asked: the scoped install makes every
      // instrumented layer under run_mission write into `metrics`.
      obs::ScopedRegistry obs_scope(metrics_path.empty() ? nullptr : &metrics);
      result = analysis::run_mission(cfg, charger_mode);
    }

    const csa::AttackReport& r = result.report;
    const std::size_t crew = std::max<std::size_t>(cfg.fleet_size, 1);
    analysis::Table table("Mission report (seed " + std::to_string(cfg.seed) +
                          ", " + mode + ", fleet " + std::to_string(crew) +
                          ")");
    table.headers({"metric", "value"});
    table.row({"nodes alive at end", std::to_string(result.alive_at_end) +
                                         "/" +
                                         std::to_string(result.node_count)});
    table.row({"sink-connected at end",
               std::to_string(result.sink_connected_at_end)});
    table.row({"key targets", std::to_string(r.keys_total)});
    table.row({"keys exhausted", std::to_string(r.keys_dead)});
    table.row({"keys exhausted undetected",
               std::to_string(r.keys_dead_before_detection)});
    table.row({"detected", r.detected ? r.detector_name + " @ " +
                                            analysis::fmt(
                                                r.detection_time / 3600.0, 1) +
                                            " h"
                                      : "no"});
    table.row({"sessions genuine/spoofed",
               std::to_string(r.sessions_genuine) + "/" +
                   std::to_string(r.sessions_spoofed)});
    table.row({"cover utility [kJ]",
               analysis::fmt(r.utility_delivered / 1000.0, 1)});
    table.row({"escalations", std::to_string(r.escalations)});
    table.row({"partitioned",
               r.partition_time.has_value()
                   ? analysis::fmt(*r.partition_time / 3600.0, 1) + " h"
                   : "never"});
    table.print(std::cout);

    if (!export_prefix.empty()) {
      analysis::export_trace(export_prefix, result.trace);
      std::cout << "\ntrace exported to " << export_prefix << "_*.csv\n";
    }
    if (!metrics_path.empty()) {
      analysis::print_metrics_tables(metrics, std::cout);
      analysis::write_metrics_json(metrics, metrics_path);
      std::cout << "metrics JSON written to " << metrics_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
