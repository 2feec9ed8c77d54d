// Request/response types of the mission service.
//
// The response payload (`MissionOutcome`) is deliberately a trivially
// copyable POD: it is copied between the cache, flight records and binary
// protocol frames, and the service's byte-identical guarantee
// ("a cache hit or coalesced join returns exactly what the execution
// returned") is literally a memcmp over this struct.  Transport metadata
// (how the request was served) lives outside it in `MissionResponse`, so
// the deterministic payload and the load-dependent routing never mix.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "analysis/scenario.hpp"

namespace wrsn::svc {

enum class MissionStatus : std::uint8_t {
  kOk = 0,
  kShed = 1,     ///< rejected by admission control (bounded queue full)
  kInvalid = 2,  ///< mission threw (bad config reached execution)
  kClosed = 3,   ///< service is shutting down; no longer accepting
};

/// How the service satisfied the request.  Load-dependent: whether a
/// duplicate lands as kCacheHit or kCoalesced depends on arrival timing.
/// The outcome bytes are identical either way.
enum class MissionRoute : std::uint8_t {
  kExecuted = 0,   ///< this request ran the mission
  kCacheHit = 1,   ///< served from the result cache
  kCoalesced = 2,  ///< joined an identical in-flight execution
  kNone = 3,       ///< not served (shed / closed / invalid request)
};

/// Deterministic mission summary: a pure function of (scenario, seed).
struct MissionOutcome {
  std::uint64_t scenario_digest = 0;  ///< canonical config digest (no seed)
  std::uint64_t seed = 0;             ///< seed the mission ran with
  std::uint64_t result_digest = 0;    ///< analysis::digest_result of the run

  std::uint32_t node_count = 0;
  std::uint32_t alive_at_end = 0;
  std::uint32_t sink_connected_at_end = 0;
  std::uint32_t keys_total = 0;
  std::uint32_t keys_dead = 0;
  std::uint32_t keys_dead_before_detection = 0;
  std::uint32_t sessions_genuine = 0;
  std::uint32_t sessions_spoofed = 0;
  std::uint32_t escalations = 0;
  std::uint32_t deaths_total = 0;
  std::uint64_t plans_computed = 0;
  std::uint64_t events_executed = 0;

  std::uint8_t detected = 0;
  double detection_time = 0.0;
  double utility_delivered = 0.0;

  /// First detector that fired, truncated; empty when !detected.
  char detector[24] = {};
};
static_assert(std::is_trivially_copyable_v<MissionOutcome>);

/// One mission request.  The config is fully resolved (defaults + overrides
/// already applied, config.seed included); `mode` selects the benign or
/// attacking service exactly as analysis::run_mission does.
struct MissionRequest {
  analysis::ScenarioConfig config;
  analysis::ChargerMode mode = analysis::ChargerMode::Attack;
};

struct MissionResponse {
  MissionStatus status = MissionStatus::kOk;
  MissionRoute route = MissionRoute::kNone;
  MissionOutcome outcome;
};
static_assert(std::is_trivially_copyable_v<MissionResponse>);

/// Fills an outcome from a finished mission (copies the report summary and
/// folds the result digest).
MissionOutcome make_outcome(std::uint64_t scenario_digest, std::uint64_t seed,
                            const analysis::ScenarioResult& result);

}  // namespace wrsn::svc
