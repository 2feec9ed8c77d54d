// service_throughput — mission-server throughput on multi-tenant what-if
// workloads (BENCH_service.json, schema wrsn-service-bench-v1).
//
//   $ ./service_throughput [out.json]
//
// The workload models a planning-as-a-service deployment: many clients
// submitting what-if missions where most requests duplicate a recently-asked
// scenario (same config digest + seed).  Cases sweep
//
//   * worker threads 1/2/4/8 on an all-unique stream (scaling row),
//   * a 90 %-duplicate stream with the cache+coalescing enabled vs the
//     cache disabled (the headline speedup: shared results vs re-execution),
//   * a fully-warm stream (every request a cache hit: the floor latency).
//
// Four client threads issue blocking submits and record per-request wall
// latency; the JSON carries throughput, p50/p99, and the service tallies so
// validate_metrics.py can cross-check requests = executions + hits +
// coalesced + shed.  Numbers are wall-clock: record on quiet Release
// machines only (run_benchmarks.sh enforces the build type).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/scenario.hpp"
#include "svc/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kRequestsPerCase = 2'000;
constexpr std::size_t kClientThreads = 4;

wrsn::svc::MissionRequest mission(std::uint64_t seed) {
  wrsn::svc::MissionRequest request;
  request.config = wrsn::analysis::default_scenario();
  request.config.seed = seed;
  request.config.topology.node_count = 16;
  request.config.topology.region = {{0.0, 0.0}, {160.0, 160.0}};
  request.config.topology.battery_capacity = 2'000.0;
  request.config.world.drain.sensing_power = 0.05;
  request.config.horizon = 7'200.0;
  return request;
}

/// Request stream with the given duplicate fraction: request i is a
/// duplicate (cycling through the unique pool) when i % 10 < 10*dup.
std::vector<wrsn::svc::MissionRequest> make_stream(double duplicate_fraction,
                                                   std::uint64_t seed_base) {
  const auto dup_slots =
      static_cast<std::size_t>(duplicate_fraction * 10.0 + 0.5);
  std::vector<wrsn::svc::MissionRequest> stream;
  stream.reserve(kRequestsPerCase);
  std::uint64_t next_unique = seed_base;
  std::uint64_t dup_cursor = seed_base;
  for (std::size_t i = 0; i < kRequestsPerCase; ++i) {
    if (i % 10 < dup_slots && next_unique > seed_base) {
      stream.push_back(mission(seed_base + (dup_cursor++ % (next_unique - seed_base))));
    } else {
      stream.push_back(mission(next_unique++));
    }
  }
  return stream;
}

struct CaseResult {
  std::string name;
  std::size_t threads = 0;
  double duplicate_fraction = 0.0;
  bool cache = true;
  bool warm = false;
  wrsn::svc::ServiceStats stats;
  double wall_ms = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Runs one case: `clients` threads issue blocking submits over disjoint
/// slices of the stream, per-request latencies pooled for percentiles.
CaseResult run_case(const std::string& name, std::size_t threads,
                    double duplicate_fraction, bool cache, bool warm,
                    std::uint64_t seed_base) {
  wrsn::svc::ServiceOptions options;
  options.threads = threads;
  options.cache_capacity = cache ? 4'096 : 0;
  options.queue_limit = kRequestsPerCase + 16;
  wrsn::svc::MissionService service(options);

  const std::vector<wrsn::svc::MissionRequest> stream =
      make_stream(duplicate_fraction, seed_base);
  if (warm) {
    // Pre-execute every unique scenario so the measured pass is all hits.
    for (const auto& request : stream) service.submit(request);
    service.drain();
  }

  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<std::thread> clients;
  const auto begin = Clock::now();
  for (std::size_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      latencies[c].reserve(kRequestsPerCase / kClientThreads + 1);
      for (std::size_t i = c; i < stream.size(); i += kClientThreads) {
        const auto t0 = Clock::now();
        const wrsn::svc::MissionResponse resp = service.submit(stream[i]);
        const auto t1 = Clock::now();
        if (resp.status != wrsn::svc::MissionStatus::kOk) {
          std::fprintf(stderr, "request %zu failed (status %d)\n", i,
                       int(resp.status));
          std::exit(1);
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - begin).count();

  std::vector<double> all;
  all.reserve(kRequestsPerCase);
  for (const auto& slice : latencies) {
    all.insert(all.end(), slice.begin(), slice.end());
  }
  std::sort(all.begin(), all.end());

  CaseResult r;
  r.name = name;
  r.threads = threads;
  r.duplicate_fraction = duplicate_fraction;
  r.cache = cache;
  r.warm = warm;
  r.stats = service.stats();
  r.wall_ms = wall_ms;
  r.throughput_rps = double(all.size()) / (wall_ms / 1'000.0);
  r.p50_ms = all[all.size() / 2];
  r.p99_ms = all[std::min(all.size() - 1, (all.size() * 99) / 100)];
  return r;
}

void append_case(std::string& out, const CaseResult& r, bool last) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"threads\": %zu,\n"
      "      \"duplicate_fraction\": %.2f,\n"
      "      \"cache\": %s,\n"
      "      \"warm\": %s,\n"
      "      \"requests\": %llu,\n"
      "      \"executions\": %llu,\n"
      "      \"cache_hits\": %llu,\n"
      "      \"coalesced\": %llu,\n"
      "      \"shed\": %llu,\n"
      "      \"wall_ms\": %.3f,\n"
      "      \"throughput_rps\": %.1f,\n"
      "      \"latency_ms\": { \"p50\": %.4f, \"p99\": %.4f }\n"
      "    }%s\n",
      r.name.c_str(), r.threads, r.duplicate_fraction,
      r.cache ? "true" : "false", r.warm ? "true" : "false",
      (unsigned long long)r.stats.requests,
      (unsigned long long)r.stats.executions,
      (unsigned long long)r.stats.cache_hits,
      (unsigned long long)r.stats.coalesced,
      (unsigned long long)r.stats.shed, r.wall_ms, r.throughput_rps, r.p50_ms,
      r.p99_ms, last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_service.json";

  // Each case gets a disjoint seed range so no cross-case cache effects
  // hide in a warm allocator or (hypothetically) shared state.
  std::vector<CaseResult> cases;
  std::uint64_t seed_base = 1'000;
  const auto next_base = [&] { return seed_base += 100'000; };

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    // Appended piecewise: `"t" + std::to_string(...)` inlines a
    // basic_string::insert that GCC 12 flags with a false -Wrestrict.
    std::string name = "t";
    name += std::to_string(threads);
    name += "_unique";
    cases.push_back(run_case(name, threads, 0.0, /*cache=*/true,
                             /*warm=*/false, next_base()));
  }
  cases.push_back(run_case("t1_dup90_cache_on", 1, 0.9, true, false,
                           next_base()));
  cases.push_back(run_case("t1_dup90_cache_off", 1, 0.9, false, false,
                           next_base()));
  cases.push_back(run_case("t8_dup90_cache_on", 8, 0.9, true, false,
                           next_base()));
  cases.push_back(run_case("t1_warm_hits", 1, 0.0, true, /*warm=*/true,
                           next_base()));

  const auto find = [&](const std::string& name) -> const CaseResult& {
    for (const CaseResult& c : cases) {
      if (c.name == name) return c;
    }
    std::fprintf(stderr, "missing case %s\n", name.c_str());
    std::exit(1);
  };
  const double dup90_speedup = find("t1_dup90_cache_on").throughput_rps /
                               find("t1_dup90_cache_off").throughput_rps;
  const double unique_scaling_8v1 = find("t8_unique").throughput_rps /
                                    find("t1_unique").throughput_rps;

  std::string out;
  out += "{\n";
  out += "  \"schema\": \"wrsn-service-bench-v1\",\n";
  out += "  \"context\": {\n";
#ifdef NDEBUG
  out += "    \"library_build_type\": \"release\",\n";
#else
  out += "    \"library_build_type\": \"debug\",\n";
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    \"hardware_threads\": %u,\n"
                "    \"client_threads\": %zu,\n"
                "    \"requests_per_case\": %zu\n"
                "  },\n",
                std::thread::hardware_concurrency(), kClientThreads,
                kRequestsPerCase);
  out += buf;
  out += "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    append_case(out, cases[i], i + 1 == cases.size());
  }
  out += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"derived\": {\n"
                "    \"dup90_speedup\": %.2f,\n"
                "    \"unique_scaling_8v1\": %.2f\n"
                "  }\n"
                "}\n",
                dup90_speedup, unique_scaling_8v1);
  out += buf;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);

  std::printf("%s", out.c_str());
  std::printf("wrote %s\n", out_path.c_str());
  std::printf("dup90 speedup (cache+coalesce vs off): %.2fx\n", dup90_speedup);
  std::printf("unique throughput scaling 1->8 threads: %.2fx\n",
              unique_scaling_8v1);
  return 0;
}
