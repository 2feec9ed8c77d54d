#include "svc/service.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "runner/runner.hpp"

namespace wrsn::svc {
namespace {

MissionResponse rejection(MissionStatus status, const MissionKey& key) {
  MissionResponse resp;
  resp.status = status;
  resp.route = MissionRoute::kNone;
  // The identity fields still fill in, so a shed client can retry or log
  // exactly which scenario was rejected.
  resp.outcome.scenario_digest = key.digest;
  resp.outcome.seed = key.seed;
  return resp;
}

}  // namespace

MissionService::MissionService(ServiceOptions options)
    : queue_limit_(options.queue_limit),
      pool_(options.threads > 0 ? options.threads
                                : runner::configured_threads()) {
  cache_.init(options.cache_capacity);
}

MissionService::~MissionService() { shutdown(); }

void MissionService::set_execution_hook(std::function<void()> hook) {
  hook_ = std::move(hook);
}

MissionService::Ticket MissionService::stage(const MissionRequest& request) {
  const MissionKey key{scenario_digest(request.config, request.mode),
                       request.config.seed};
  Ticket ticket;
  std::unique_lock<std::mutex> lock(m_);
  ++stats_.requests;
  if (!accepting_) {
    ++stats_.shed;
    ticket.immediate = rejection(MissionStatus::kClosed, key);
    return ticket;
  }
  if (cache_.lookup(key, ticket.immediate)) {
    ticket.immediate.route = MissionRoute::kCacheHit;
    ++stats_.cache_hits;
    return ticket;
  }
  if (const auto it = flights_.find(key); it != flights_.end()) {
    ++stats_.coalesced;
    ticket.flight = it->second;
    ticket.route = MissionRoute::kCoalesced;
    return ticket;
  }
  // Admission: hold a pending slot or shed.  The shed policy is
  // deterministic by construction — the ARRIVING request is rejected, never
  // a queued one, so admitted work is never abandoned.
  if (pending_ >= queue_limit_) {
    ++stats_.shed;
    ticket.immediate = rejection(MissionStatus::kShed, key);
    return ticket;
  }
  ++pending_;
  stats_.queue_peak = std::max<std::uint64_t>(stats_.queue_peak, pending_);

  // Miss path: these allocations are fine — this request is about to run a
  // full mission.
  auto flight = std::make_shared<Flight>();
  flight->key = key;
  flights_.emplace(key, flight);
  lock.unlock();

  ticket.flight = flight;
  ticket.route = MissionRoute::kExecuted;
  pool_.submit([this, flight = std::move(flight), request] {
    execute(*flight, request);
  });
  return ticket;
}

MissionResponse MissionService::collect(Ticket& ticket) {
  if (!ticket.flight) return ticket.immediate;
  Flight& flight = *ticket.flight;
  MissionResponse resp;
  {
    std::unique_lock<std::mutex> lock(m_);
    flight.cv.wait(lock, [&flight] { return flight.done; });
    resp = flight.response;
  }
  resp.route = ticket.route;
  return resp;
}

void MissionService::execute(Flight& flight, const MissionRequest& request) {
  if (hook_) hook_();
  // The runner's convention: workers run with explicitly NO registry, so
  // mission behavior never depends on the submitting thread's obs state.
  obs::ScopedRegistry no_obs(nullptr);

  MissionResponse resp;
  resp.route = MissionRoute::kExecuted;
  try {
    const analysis::ScenarioResult result =
        analysis::run_mission(request.config, request.mode);
    resp.status = MissionStatus::kOk;
    resp.outcome = make_outcome(flight.key.digest, flight.key.seed, result);
  } catch (const std::exception&) {
    // A config that passes validation but cannot run (e.g. topology
    // generation gives up) yields an explicit kInvalid, not a dead flight.
    resp = rejection(MissionStatus::kInvalid, flight.key);
  }

  std::lock_guard<std::mutex> lock(m_);
  ++stats_.executions;
  if (resp.status == MissionStatus::kOk && cache_.insert(flight.key, resp)) {
    ++stats_.evictions;
  }
  flight.response = resp;
  flight.done = true;
  flights_.erase(flight.key);
  --pending_;
  flight.cv.notify_all();
}

MissionResponse MissionService::submit(const MissionRequest& request) {
  WRSN_OBS_SPAN(kSvcRequestNs);
  Ticket ticket = stage(request);
  return collect(ticket);
}

void MissionService::submit_batch(std::span<const MissionRequest> requests,
                                  std::span<MissionResponse> responses) {
  WRSN_REQUIRE(requests.size() == responses.size(),
               "submit_batch: responses span must match requests");
  // Stage everything first: duplicates inside the batch coalesce onto one
  // execution, and independent missions fan out across the pool instead of
  // serializing behind a blocking submit loop.
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  for (const MissionRequest& request : requests) {
    tickets.push_back(stage(request));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    responses[i] = collect(tickets[i]);
  }
}

std::vector<MissionResponse> MissionService::submit_batch(
    std::span<const MissionRequest> requests) {
  std::vector<MissionResponse> responses(requests.size());
  submit_batch(requests, responses);
  return responses;
}

void MissionService::drain() { pool_.wait_idle(); }

void MissionService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(m_);
    accepting_ = false;
  }
  drain();
}

ServiceStats MissionService::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

void MissionService::flush_obs() const {
  const ServiceStats s = stats();
  WRSN_OBS_ADD(kSvcRequests, double(s.requests));
  WRSN_OBS_ADD(kSvcExecutions, double(s.executions));
  WRSN_OBS_ADD(kSvcCacheHits, double(s.cache_hits));
  // Misses = everything that had to look past the cache.
  WRSN_OBS_ADD(kSvcCacheMisses, double(s.executions + s.coalesced));
  WRSN_OBS_ADD(kSvcCacheEvictions, double(s.evictions));
  WRSN_OBS_ADD(kSvcCoalesced, double(s.coalesced));
  WRSN_OBS_ADD(kSvcShed, double(s.shed));
  WRSN_OBS_GAUGE_MAX(kSvcQueuePeak, double(s.queue_peak));
}

}  // namespace wrsn::svc
