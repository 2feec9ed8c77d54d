// MissionService: a long-running mission server.
//
// Concurrent mission / what-if requests dispatch onto the repo's runner
// thread pool.  The perf core (DESIGN.md section 13):
//
//   * canonical scenario digest (svc/digest.hpp) — the order-invariant
//     identity of a request; the cache/coalescing key is (digest, seed);
//   * request coalescing — identical in-flight keys share ONE execution:
//     the miss that admits a mission creates its flight record, joiners
//     share it through their tickets, block on its condvar and copy the
//     finished response;
//   * bounded LRU result cache — one LruCore behind the service's one
//     mutex, which also guards the flight table, the pending count and the
//     stats, so completion publishes to the cache and retires the flight
//     atomically: a request sees exactly one of {execute, join, hit};
//   * admission control — at most `queue_limit` missions in flight; the
//     shed policy is deterministic (reject the arriving request, never a
//     queued one), so an overloaded service degrades to explicit kShed
//     responses instead of unbounded memory;
//   * graceful drain — shutdown() stops admitting and waits for in-flight
//     executions; the destructor drains implicitly.
//
// Determinism: a mission is a pure function of (config, mode) — every
// stochastic choice inside run_mission forks from config.seed — so worker
// scheduling cannot affect results.  Workers run under an explicit null
// obs registry (the runner's convention), keeping execution independent of
// the caller's thread-local state.  Responses are therefore bit-identical
// to a standalone `wrsn_cli` run of the same scenario, whichever route
// (execute / cache hit / coalesced join) served them, at any thread count.
//
// Steady-state allocation: after warmup, the cache-hit and coalesced-join
// paths allocate nothing — preallocated cache slots, an index map that
// never rehashes, a joiner only copies the flight's shared_ptr, and
// responses are trivially copyable (sim_alloc_test pins both paths with a
// counting operator new).  Misses allocate (the flight record among other
// things; they are about to run a multi-millisecond mission).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "runner/thread_pool.hpp"
#include "svc/cache.hpp"
#include "svc/digest.hpp"
#include "svc/types.hpp"

namespace wrsn::svc {

struct ServiceOptions {
  /// Worker threads; 0 = runner::configured_threads() (WRSN_THREADS).
  std::size_t threads = 0;
  /// Result-cache entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Max missions admitted (queued + executing) before shedding.
  std::size_t queue_limit = 1024;
};

/// Monotonic tallies since construction.  requests = executions +
/// cache_hits + coalesced + shed (+ closed rejections, counted under shed).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t executions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t queue_peak = 0;  ///< deepest in-flight backlog observed
};

class MissionService {
 public:
  explicit MissionService(ServiceOptions options = {});
  /// Drains in-flight work (shutdown()) before tearing down.
  ~MissionService();

  MissionService(const MissionService&) = delete;
  MissionService& operator=(const MissionService&) = delete;

  /// Serves one request, blocking until its response is ready.  Safe to
  /// call from any number of threads concurrently.
  MissionResponse submit(const MissionRequest& request);

  /// Serves a batch: stages every request first (so duplicates inside the
  /// batch coalesce onto one execution and independent missions fan out
  /// across the pool), then collects responses into `responses` in request
  /// order.  `responses.size()` must equal `requests.size()`.
  void submit_batch(std::span<const MissionRequest> requests,
                    std::span<MissionResponse> responses);
  std::vector<MissionResponse> submit_batch(
      std::span<const MissionRequest> requests);

  /// Blocks until every admitted mission has finished executing.
  void drain();
  /// Stops admitting (subsequent submits return kClosed) and drains.
  void shutdown();

  ServiceStats stats() const;
  /// Adds the stats to the installed obs registry (svc.* metrics, timing
  /// section).  No-op without a registry.
  void flush_obs() const;

  std::size_t threads() const { return pool_.size(); }

  /// Test seam: runs inside the worker immediately before each execution
  /// (e.g. to park an execution so a test can deterministically join it).
  /// Not thread-safe against in-flight work; set before submitting.
  void set_execution_hook(std::function<void()> hook);

 private:
  /// One in-flight execution, created by the miss that admits it.  Its
  /// joiners wait on `cv` under the service mutex; the table entry, the
  /// creator's ticket, each joiner's ticket and the worker share it.
  struct Flight {
    MissionKey key;
    MissionResponse response;
    bool done = false;
    std::condition_variable cv;
  };

  /// Staged request: either an immediate response (hit / shed / closed) or
  /// a flight to wait on.
  struct Ticket {
    std::shared_ptr<Flight> flight;
    MissionRoute route = MissionRoute::kNone;
    MissionResponse immediate;
  };

  Ticket stage(const MissionRequest& request);
  MissionResponse collect(Ticket& ticket);
  void execute(Flight& flight, const MissionRequest& request);

  const std::size_t queue_limit_;
  std::function<void()> hook_;

  mutable std::mutex m_;  ///< guards the five members below
  LruCore cache_;
  std::unordered_map<MissionKey, std::shared_ptr<Flight>, MissionKeyHash>
      flights_;
  std::size_t pending_ = 0;  ///< admitted missions not yet finished
  bool accepting_ = true;
  ServiceStats stats_;

  /// Declared last: its workers use every member above.
  runner::ThreadPool pool_;
};

}  // namespace wrsn::svc
