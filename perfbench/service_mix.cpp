// service-mix workload: a MissionServer on a unix socket in a per-run
// directory, a MissionService with two workers, and a closed loop of two
// client connections (one JSON lines, one WRB1) walking a fixed request
// stream.  Request i goes to connection i % 2.
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "svc/digest.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

namespace svc = wrsn::svc;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 2;

/// The request stream, stored once per distinct (scenario, seed) so the
/// benchmark's own memory stays small next to the service's.
struct Stream {
  std::vector<std::string> keys;     ///< distinct repro lines, first-seen order
  std::vector<std::uint32_t> order;  ///< request i -> index into keys

  explicit Stream(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read op file " + path);
    std::unordered_map<std::string, std::uint32_t> index;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto [it, fresh] =
          index.emplace(line, static_cast<std::uint32_t>(keys.size()));
      if (fresh) keys.push_back(line);
      order.push_back(it->second);
    }
  }
  const std::string& line(std::size_t i) const { return keys[order[i]]; }
};

/// Server, service and client connections of one run.
struct Rig {
  std::unique_ptr<svc::MissionService> service;
  std::unique_ptr<svc::MissionServer> server;
  std::vector<std::unique_ptr<svc::MissionClient>> clients;

  void start(const std::string& socket_path) {
    service = std::make_unique<svc::MissionService>(
        svc::ServiceOptions{.threads = kWorkers});
    server = std::make_unique<svc::MissionServer>(*service, socket_path);
    server->start();
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(
          std::make_unique<svc::MissionClient>(socket_path, c % 2 == 1));
    }
  }

  void stop() {
    clients.clear();
    if (server) server->stop();
    if (service) service->shutdown();
    server.reset();
    service.reset();
  }
};

struct Reply {
  double rt_us = 0.0;
  std::uint64_t digest = 0;
  svc::MissionStatus status = svc::MissionStatus::kOk;
  svc::MissionRoute route = svc::MissionRoute::kNone;
  bool transport_error = false;
};

/// Standalone per-layer timings of the service path, measured after the
/// load on the same request stream.  Adds svc.* figures and the mission
/// stage totals of every executed request to `out`.
void trace_service(const Stream& stream, const std::vector<Reply>& replies,
                   JsonOut& out) {
  const std::size_t n = stream.order.size();

  // Decode: the wire format a request arrived in, then scenario resolution.
  std::vector<std::string> encoded(n);
  for (std::size_t i = 0; i < n; ++i) {
    const svc::WireRequest wire{
        .id = i + 1, .tenant = i % kConnections, .repro = stream.line(i)};
    if (i % 2 == 1) {
      svc::encode_request_frame(wire, encoded[i]);
    } else {
      encoded[i] = svc::encode_request_json(wire);
    }
  }
  std::vector<svc::MissionRequest> requests(n);
  std::string error;
  Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    svc::WireRequest wire;
    const bool ok = i % 2 == 1
                        ? svc::decode_request_frame(encoded[i], wire, error)
                        : svc::decode_request_json(encoded[i], wire, error);
    if (!ok) throw std::runtime_error("decode failed: " + error);
    requests[i] = svc::to_mission_request(wire);
  }
  const double decode_s = seconds_since(start);
  encoded.clear();

  std::uint64_t fold = 0;
  start = Clock::now();
  for (const svc::MissionRequest& request : requests) {
    fold = fold * 0x100000001b3ull +
           svc::scenario_digest(request.config, request.mode);
  }
  const double digest_s = seconds_since(start);
  if (fold == 0) throw std::runtime_error("degenerate digest fold");

  // In-process hits: execute each repeated key once, then time submit() of
  // every repeat in stream order against the warm cache.
  std::vector<std::size_t> first(stream.keys.size(), n);
  std::vector<std::size_t> repeats;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t& seen = first[stream.order[i]];
    if (seen == n) {
      seen = i;
    } else {
      repeats.push_back(i);
    }
  }
  double submit_hit_s = 0.0;
  {
    svc::MissionService service(svc::ServiceOptions{.threads = kWorkers});
    for (const std::size_t i : repeats) {
      const svc::MissionRequest& warm = requests[first[stream.order[i]]];
      if (service.submit(warm).status != svc::MissionStatus::kOk) {
        throw std::runtime_error("in-process warm-up submit failed");
      }
    }
    start = Clock::now();
    for (const std::size_t i : repeats) {
      if (service.submit(requests[i]).route != svc::MissionRoute::kCacheHit) {
        throw std::runtime_error("warm in-process submit missed the cache");
      }
    }
    submit_hit_s = seconds_since(start);
  }

  // Executed requests: re-run each standalone through the stage tracer; its
  // wall time is the execution time the round trip contained.
  std::vector<double> exec_s(stream.keys.size(), -1.0);
  std::vector<StageSample> samples;
  std::vector<double> hit_rt_us;
  double queue_wait_ms = 0.0;
  std::size_t executions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (replies[i].route == svc::MissionRoute::kCacheHit) {
      hit_rt_us.push_back(replies[i].rt_us);
    }
    if (replies[i].route != svc::MissionRoute::kExecuted) continue;
    const std::uint32_t key = stream.order[i];
    if (exec_s[key] < 0.0) {
      const StageSample sample =
          trace_mission(requests[i].config, requests[i].mode);
      samples.push_back(sample);
      exec_s[key] = sample.op_s;
    }
    queue_wait_ms += replies[i].rt_us / 1e3 - exec_s[key] * 1e3;
    ++executions;
  }

  // Median hit round trip: the mean would mostly measure hits that queued
  // behind an execution for the one core.
  double hit_rt_p50 = 0.0;
  if (!hit_rt_us.empty()) {
    auto mid = hit_rt_us.begin() + hit_rt_us.size() / 2;
    std::nth_element(hit_rt_us.begin(), mid, hit_rt_us.end());
    hit_rt_p50 = *mid;
  }

  JsonOut svc_out;
  svc_out.num("decode_us", 1e6 * decode_s / double(n));
  svc_out.num("digest_us", 1e6 * digest_s / double(n));
  svc_out.num("submit_hit_us",
              repeats.empty() ? 0.0
                              : 1e6 * submit_hit_s / double(repeats.size()));
  svc_out.num("hit_rt_p50_us", hit_rt_p50);
  svc_out.num("queue_wait_ms",
              executions == 0 ? 0.0 : queue_wait_ms / double(executions));
  svc_out.integer("executed_requests", executions);
  out.object("svc", svc_out);
  write_stage_totals(out, samples);
}

/// Walks the closed loop: connection c sends the requests i with
/// i % kConnections == c, each after the previous reply.
void serve(Rig& rig, const Stream& stream, std::vector<Reply>& replies) {
  std::vector<std::thread> loops;
  for (std::size_t c = 0; c < kConnections; ++c) {
    loops.emplace_back([&, c] {
      svc::MissionClient& client = *rig.clients[c];
      for (std::size_t i = c; i < replies.size(); i += kConnections) {
        Reply& reply = replies[i];
        const Clock::time_point start = Clock::now();
        try {
          const svc::MissionResponse response =
              client.call(i % kConnections, stream.line(i));
          reply.digest = response.outcome.result_digest;
          reply.status = response.status;
          reply.route = response.route;
        } catch (const std::exception&) {
          reply.transport_error = true;
        }
        reply.rt_us = 1e6 * seconds_since(start);
      }
    });
  }
  for (std::thread& loop : loops) loop.join();
}

}  // namespace

int run_service(const std::string& ops_path, const std::string& dir,
                bool trace) {
  const std::string socket_path = dir + "/svc.sock";

  // Set-up: start the service and server and connect both clients.  The
  // request stream is loaded afterwards: set-up time grows with the
  // process's heap, and the stream is the benchmark's, not the service's.
  std::vector<double> setup_s;
  const auto timed_setup = [&](Rig& rig, const std::string& path) {
    const Clock::time_point start = Clock::now();
    rig.start(path);
    setup_s.push_back(seconds_since(start));
  };
  Rig rig;
  timed_setup(rig, socket_path);
  const Stream stream(ops_path);
  const std::size_t n = stream.order.size();

  std::vector<Reply> replies(n);
  const Clock::time_point timed_start = Clock::now();
  serve(rig, stream, replies);
  const double timed_s = seconds_since(timed_start);
  const std::uint64_t peak_kib = peak_rss_kib();
  const svc::ServiceStats stats = rig.service->stats();

  // Direct run of every distinct (scenario, seed), with the service still
  // up.  The set-up is repeated on a spare rig (its own socket) at evenly
  // spaced points of this phase: after the peak RSS is read, so the spare's
  // memory never counts, and while the CPU is as busy as under load.
  std::vector<std::uint64_t> direct(stream.keys.size(), 0);
  std::vector<std::string> direct_errors(stream.keys.size());
  const std::vector<bool> resample = setup_sample_points(stream.keys.size());
  for (std::size_t key = 0; key < stream.keys.size(); ++key) {
    try {
      direct[key] = direct_digest(stream.keys[key]);
    } catch (const std::exception& e) {
      direct_errors[key] = std::string("direct run: ") + e.what();
    }
    if (resample[key]) {
      Rig spare;
      timed_setup(spare, dir + "/setup.sock");
      spare.stop();
    }
  }

  // Teardown: close connections, stop the server (which unlinks the
  // socket), drain the service, then confirm it admits nothing more.
  svc::MissionService& service = *rig.service;
  rig.clients.clear();
  rig.server->stop();
  service.shutdown();
  const bool socket_unlinked = ::access(socket_path.c_str(), F_OK) != 0;
  const svc::ServiceStats drained = service.stats();
  const bool closed = service.submit(svc::MissionRequest{}).status ==
                      svc::MissionStatus::kClosed;
  rig.stop();

  JsonOut out;
  out.str("workload", "service-mix");
  out.nums("setup_s", setup_s);
  out.num("timed_s", timed_s);
  out.integer("peak_rss_kib", peak_kib);
  if (trace) trace_service(stream, replies, out);

  // Every response must be ok and equal the direct run of its
  // (scenario, seed).
  std::vector<double> rt_ms(n);
  std::vector<std::uint64_t> digests(n);
  std::vector<std::string> routes(n), errors(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Reply& reply = replies[i];
    const std::uint32_t key = stream.order[i];
    rt_ms[i] = reply.rt_us / 1e3;
    digests[i] = reply.digest;
    routes[i] = svc::route_name(reply.route);
    if (reply.transport_error) {
      errors[i] = "transport error";
    } else if (reply.status != svc::MissionStatus::kOk) {
      errors[i] = "status " + std::string(svc::status_name(reply.status));
    } else if (!direct_errors[key].empty()) {
      errors[i] = direct_errors[key];
    } else if (direct[key] != reply.digest) {
      errors[i] = "result digest differs from the direct run";
    }
  }
  out.nums("op_ms", rt_ms);
  out.hexes("digests", digests);
  out.strs("routes", routes);
  out.strs("errors", errors);

  JsonOut stats_out;
  stats_out.integer("requests", stats.requests);
  stats_out.integer("executions", stats.executions);
  stats_out.integer("cache_hits", stats.cache_hits);
  stats_out.integer("coalesced", stats.coalesced);
  stats_out.integer("shed", stats.shed);
  stats_out.integer("evictions", stats.evictions);
  stats_out.integer("queue_peak", stats.queue_peak);
  out.object("service_stats", stats_out);

  JsonOut teardown;
  teardown.boolean("socket_unlinked", socket_unlinked);
  teardown.boolean("drained",
                   drained.requests == drained.executions +
                                           drained.cache_hits +
                                           drained.coalesced + drained.shed &&
                       drained.requests == n);
  teardown.boolean("closed", closed);
  out.object("teardown", teardown);
  std::cout << out.finish() << '\n';
  return 0;
}

}  // namespace perfbench
