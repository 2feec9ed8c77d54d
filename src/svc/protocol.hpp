// Wire protocol of the mission server: JSON-lines and length-prefixed
// binary framing over a local stream socket.
//
// A connection speaks exactly one mode, detected from its first byte:
//
//   * '{'  — JSON lines.  One request object per line:
//              {"id":7,"tenant":2,"repro":"mode=attack;seed=42;..."}
//            answered by one response object per line (same id; ids are
//            echoed, so pipelined requests match up order-independently).
//            The "repro" value is the repo's canonical scenario encoding —
//            the same `k=v;k=v` line scenario_fuzzer prints and
//            `wrsn_cli --repro` replays — so any failing request is
//            replayable standalone by construction.
//   * 'W'  — binary.  The 4-byte magic "WRB1", then length-prefixed frames
//            (u32 LE payload size, then the payload).  Requests carry
//            (id, tenant, repro string); responses carry (id, status,
//            route, packed MissionOutcome).  All integers little-endian,
//            doubles as IEEE-754 bit patterns; fields are packed one by
//            one (no struct memcpy), so frames are byte-deterministic.
//
// u64 values (digests, seeds) travel as decimal *strings* in JSON — JSON
// numbers lose precision past 2^53 and digests use all 64 bits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/types.hpp"

namespace wrsn::svc {

inline constexpr std::string_view kBinaryMagic = "WRB1";
/// Upper bound on accepted frame/line sizes (a repro line is < 2 KiB; this
/// is purely a garbage-input guard).
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

struct WireRequest {
  std::uint64_t id = 0;
  /// Client label.  Encoded, decoded and pinned like every other field, but
  /// carried only: the service ignores it (to_mission_request drops it).
  std::uint64_t tenant = 0;
  /// Scenario overrides as a repro line (`k=v;k=v`, pseudo-key "mode").
  std::string repro;
};

struct WireResponse {
  std::uint64_t id = 0;
  MissionResponse response;
};

// --- JSON lines (no trailing newline; the transport adds it) ---
std::string encode_request_json(const WireRequest& request);
bool decode_request_json(std::string_view line, WireRequest& out,
                         std::string& error);
std::string encode_response_json(const WireResponse& response);
bool decode_response_json(std::string_view line, WireResponse& out,
                          std::string& error);

// --- binary frame payloads (framing: u32 LE size prefix, added by the
// transport helpers in server.cpp) ---
void encode_request_frame(const WireRequest& request, std::string& out);
bool decode_request_frame(std::string_view payload, WireRequest& out,
                          std::string& error);
void encode_response_frame(const WireResponse& response, std::string& out);
bool decode_response_frame(std::string_view payload, WireResponse& out,
                           std::string& error);

/// Resolves a wire request into a service request: parses the repro line,
/// splits the "mode" pseudo-key, applies the rest over default_scenario().
/// Throws ConfigError on malformed repro lines or unknown keys.
MissionRequest to_mission_request(const WireRequest& request);

/// The inverse encoding used on mismatch reports: status/route as short
/// lowercase names.
std::string_view status_name(MissionStatus status);
std::string_view route_name(MissionRoute route);

}  // namespace wrsn::svc
