// Mission workloads (attack-1k6, benign-10k) and the outside-in stage
// tracer shared with the service workload.
#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>

#include "analysis/config_io.hpp"
#include "analysis/fuzz.hpp"
#include "bench.hpp"
#include "core/planners.hpp"
#include "core/report.hpp"
#include "net/keynodes.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace perfbench {
namespace {

using wrsn::analysis::ChargerMode;
using wrsn::analysis::ScenarioConfig;

/// Mission seeds of an op file, one per line.
std::vector<std::uint64_t> read_seeds(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read op file " + path);
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) seeds.push_back(std::stoull(line));
  }
  return seeds;
}

/// Forwards to a fresh CsaPlanner and accumulates the time spent planning
/// and the size of every instance it was handed.
class TimingPlanner final : public wrsn::csa::Planner {
 public:
  std::string_view name() const override { return inner_.name(); }

  wrsn::csa::Plan plan(const wrsn::csa::TideInstance& instance,
                       wrsn::Rng& rng) const override {
    const Clock::time_point start = Clock::now();
    wrsn::csa::Plan plan = inner_.plan(instance, rng);
    record(instance, start);
    return plan;
  }

  void plan_into(const wrsn::csa::TideInstance& instance, wrsn::Rng& rng,
                 wrsn::csa::Plan& out) const override {
    const Clock::time_point start = Clock::now();
    inner_.plan_into(instance, rng, out);
    record(instance, start);
  }

  mutable double seconds = 0.0;
  mutable std::uint64_t calls = 0;
  mutable std::uint64_t stops = 0;
  mutable std::uint64_t pairs = 0;

 private:
  void record(const wrsn::csa::TideInstance& instance,
              Clock::time_point start) const {
    seconds += seconds_since(start);
    const std::uint64_t n = instance.stops.size();
    ++calls;
    stops += n;
    pairs += n * n;
  }

  wrsn::csa::CsaPlanner inner_;
};

/// The mission workloads' scenarios, built the way a front end builds one:
/// `k=v` overrides applied over default_scenario().  Field side is 40*sqrt(N)
/// m (the calibrated default density); N=10k needs 80 m radios to stay above
/// the connectivity threshold.  The depot sits at the field centre.
ScenarioConfig workload_config(const std::string& workload,
                               std::uint64_t seed, ChargerMode& mode) {
  std::map<std::string, std::string> overrides;
  double side = 0.0;
  if (workload == "attack-1k6") {
    mode = ChargerMode::Attack;
    overrides = {{"topology.node_count", "1600"},
                 {"topology.region_size", "1600"},
                 {"topology.comm_range", "65"}};
    side = 1600.0;
  } else if (workload == "benign-10k") {
    mode = ChargerMode::Benign;
    overrides = {{"topology.node_count", "10000"},
                 {"topology.region_size", "4000"},
                 {"topology.comm_range", "80"}};
    side = 4000.0;
  } else {
    throw std::invalid_argument("unknown mission workload " + workload);
  }
  overrides["horizon"] = "432000";  // 120 h; also the campaign deadline
  overrides["seed"] = std::to_string(seed);
  ScenarioConfig config =
      wrsn::analysis::apply_config(wrsn::analysis::default_scenario(),
                                   overrides);
  config.attack.charger.depot = {side / 2.0, side / 2.0};
  config.benign.charger.depot = config.attack.charger.depot;
  return config;
}

bool same_detections(const std::vector<wrsn::detect::SuiteResult>& a,
                     const std::vector<wrsn::detect::SuiteResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].detector != b[i].detector) return false;
    if (a[i].detection.has_value() != b[i].detection.has_value()) return false;
    if (a[i].detection && (a[i].detection->time != b[i].detection->time ||
                           a[i].detection->node != b[i].detection->node)) {
      return false;
    }
  }
  return true;
}

}  // namespace

StageSample trace_mission(const ScenarioConfig& config, ChargerMode mode) {
  namespace an = wrsn::analysis;
  StageSample s;
  const TimingPlanner planner;
  Clock::time_point start = Clock::now();
  const an::ScenarioResult result = an::run_mission(config, mode, &planner);
  s.op_s = seconds_since(start);
  s.plan_s = planner.seconds;
  s.replans = planner.calls;
  s.stops = planner.stops;
  s.instance_pairs = planner.pairs;

  // Re-run the stages that have a public entry point on the op's inputs,
  // with the same rng forks run_scenario uses.
  wrsn::Rng rng(config.seed);
  wrsn::Rng topo_rng = rng.fork("topology");
  start = Clock::now();
  const wrsn::net::Network network =
      wrsn::net::generate_topology(config.topology, topo_rng);
  s.topology_s = seconds_since(start);

  wrsn::net::Network world_network = network;
  wrsn::sim::Simulator simulator;
  const wrsn::Rng world_rng = rng.fork("world");
  start = Clock::now();
  const wrsn::sim::World world(simulator, std::move(world_network),
                               config.world, world_rng);
  s.world_init_s = seconds_since(start);

  // The attacker surveys every candidate (max_count = N) before pruning;
  // the benign run selects the configured count for its report.
  wrsn::net::KeyNodeConfig key_config = config.attack.key_selection;
  if (mode == ChargerMode::Attack) key_config.max_count = network.size();
  start = Clock::now();
  const std::vector<wrsn::net::NodeId> keys =
      wrsn::net::select_key_nodes(world.network(), world.loads(), key_config);
  s.keys_s = seconds_since(start);
  if (keys.empty()) throw std::runtime_error("standalone key selection empty");

  start = Clock::now();
  const an::DetectorSetup detectors = an::make_detector_setup(config, world);
  const std::vector<wrsn::detect::SuiteResult> detections =
      detectors.suite.run(result.trace, detectors.context);
  s.detect_s = seconds_since(start);

  start = Clock::now();
  const wrsn::csa::AttackReport report =
      wrsn::csa::build_report(network, result.trace, result.keys, detections);
  s.report_s = seconds_since(start);

  if (!same_detections(detections, result.detections) ||
      report.deaths_total != result.report.deaths_total ||
      report.keys_dead != result.report.keys_dead ||
      report.sessions_spoofed != result.report.sessions_spoofed) {
    throw std::runtime_error("standalone stages disagree with the mission");
  }

  s.events = result.events_executed;
  s.deaths = result.trace.deaths.size();
  s.requests = result.trace.requests.size();
  s.sessions = result.trace.sessions.size();
  s.spoofed_sessions = static_cast<std::uint64_t>(std::count_if(
      result.trace.sessions.begin(), result.trace.sessions.end(),
      [](const wrsn::sim::SessionRecord& session) {
        return session.kind == wrsn::sim::SessionKind::Spoofed;
      }));
  s.faults_injected = result.fault_stats.injected_total();
  s.digest = an::digest_result(result);
  return s;
}

void write_stage_totals(JsonOut& out, const std::vector<StageSample>& samples) {
  StageSample sum;
  for (const StageSample& s : samples) {
    sum.op_s += s.op_s;
    sum.topology_s += s.topology_s;
    sum.world_init_s += s.world_init_s;
    sum.keys_s += s.keys_s;
    sum.plan_s += s.plan_s;
    sum.detect_s += s.detect_s;
    sum.report_s += s.report_s;
    sum.events += s.events;
    sum.deaths += s.deaths;
    sum.requests += s.requests;
    sum.replans += s.replans;
    sum.stops += s.stops;
    sum.instance_pairs += s.instance_pairs;
    sum.sessions += s.sessions;
    sum.spoofed_sessions += s.spoofed_sessions;
    sum.faults_injected += s.faults_injected;
  }
  JsonOut stages;
  stages.integer("missions", samples.size());
  stages.num("op_s", sum.op_s);
  stages.num("topology_s", sum.topology_s);
  stages.num("world_init_s", sum.world_init_s);
  stages.num("keys_s", sum.keys_s);
  stages.num("plan_s", sum.plan_s);
  stages.num("detect_s", sum.detect_s);
  stages.num("report_s", sum.report_s);
  stages.integer("events", sum.events);
  stages.integer("deaths", sum.deaths);
  stages.integer("requests", sum.requests);
  stages.integer("replans", sum.replans);
  stages.integer("stops", sum.stops);
  stages.integer("instance_pairs", sum.instance_pairs);
  stages.integer("sessions", sum.sessions);
  stages.integer("spoofed_sessions", sum.spoofed_sessions);
  stages.integer("faults_injected", sum.faults_injected);
  out.object("stages", stages);
}

int run_missions(const std::string& workload, const std::string& ops_path,
                 bool trace) {
  namespace an = wrsn::analysis;

  const std::vector<std::uint64_t> seeds = read_seeds(ops_path);

  // Set-up: build every op's config.  No mission runs here.
  ChargerMode mode = ChargerMode::Attack;
  const auto build_configs = [&] {
    std::vector<ScenarioConfig> configs;
    configs.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) {
      configs.push_back(workload_config(workload, seed, mode));
    }
    return configs;
  };
  std::vector<double> setup_s;
  Clock::time_point start = Clock::now();
  const std::vector<ScenarioConfig> configs = build_configs();
  setup_s.push_back(seconds_since(start));

  std::vector<double> op_ms(seeds.size(), 0.0);
  std::vector<std::uint64_t> digests(seeds.size(), 0);
  std::vector<std::string> errors(seeds.size());
  std::vector<double> traced_op_ms;
  std::vector<StageSample> samples;

  // One op: run_mission at the op's seed, timed alone; the digest is taken
  // afterwards for run.py's pin check.
  const auto untraced = [&](std::size_t i) {
    const Clock::time_point op_start = Clock::now();
    const an::ScenarioResult result = an::run_mission(configs[i], mode);
    op_ms[i] = 1e3 * seconds_since(op_start);
    digests[i] = an::digest_result(result);
  };

  const std::vector<bool> resample = setup_sample_points(seeds.size());
  double resample_s = 0.0;
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    try {
      if (!trace) {
        untraced(i);
      } else {
        // Traced runs time every op both ways, alternating which goes
        // first, so the overhead compares like with like.
        if (i % 2 == 0) untraced(i);
        const StageSample sample = trace_mission(configs[i], mode);
        if (i % 2 == 1) untraced(i);
        if (sample.digest != digests[i]) {
          throw std::runtime_error("traced run digest differs from untraced");
        }
        traced_op_ms.push_back(1e3 * sample.op_s);
        samples.push_back(sample);
      }
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
    if (resample[i]) {
      // Repeat the set-up into scratch configs; excluded from timed_s.
      start = Clock::now();
      {
        const std::vector<ScenarioConfig> again = build_configs();
        setup_s.push_back(seconds_since(start));
      }
      resample_s += seconds_since(start);
    }
    // Hand freed heap back between ops (outside the op's timing), so peak
    // RSS is the largest mission's footprint, not the allocator's history.
    malloc_trim(0);
  }
  const double timed_s = seconds_since(timed_start) - resample_s;
  const std::uint64_t peak_kib = peak_rss_kib();

  JsonOut out;
  out.str("workload", workload);
  out.nums("setup_s", setup_s);
  out.num("timed_s", timed_s);
  out.nums("op_ms", op_ms);
  out.hexes("digests", digests);
  out.strs("errors", errors);
  out.integer("peak_rss_kib", peak_kib);
  if (trace) {
    out.nums("traced_op_ms", traced_op_ms);
    write_stage_totals(out, samples);
  }
  std::cout << out.finish() << '\n';
  return 0;
}

}  // namespace perfbench
