#include "svc/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "analysis/fuzz.hpp"

namespace wrsn::svc {
namespace {

// ---------------------------------------------------------------------------
// JSON: a flat object of string / integer / bool / double values is all the
// protocol needs, so the codec is deliberately minimal.  Encoding appends
// into one string; decoding reads members as views over the line and
// converts only the fields it knows.
//
// The decoder is not strict.  ProtocolSpec (tests/svc_test.cpp) pins what it
// accepts today, and that includes input a strict parser would refuse:
//   * bytes after the closing '}' are ignored (`{"id":1,"repro":"a"} x`);
//   * u64 fields go through strtoull, so `"-1"` reads as 2^64-1, `" 5"` and
//     `"+5"` as 5, a bare `-3` as 2^64-3, and an overflowing id as 2^64-1;
//   * u32 counters past 2^32 are truncated (`4294967297` reads as 1);
//   * `"detected":1` is read as false (only `true` is true).
// Rejecting these is open hostile-input work (ROADMAP item 6); until then
// every row of the corpus and the mutation-campaign digest hold them.
// ---------------------------------------------------------------------------

// Response members in wire order, each as the text that opens it on the
// wire; the encoder appends these and the decoder looks keys up in them.
enum ResponseKey : std::size_t {
  kId, kStatus, kRoute, kScenarioDigest, kSeed, kResultDigest, kNodeCount,
  kAliveAtEnd, kSinkConnectedAtEnd, kKeysTotal, kKeysDead,
  kKeysDeadBeforeDetection, kSessionsGenuine, kSessionsSpoofed, kEscalations,
  kDeathsTotal, kPlansComputed, kEventsExecuted, kDetected, kDetectionTime,
  kUtilityDelivered, kDetector, kResponseKeyCount
};
constexpr std::string_view kResponseMembers[kResponseKeyCount] = {
    "{\"id\":", ",\"status\":", ",\"route\":", ",\"scenario_digest\":",
    ",\"seed\":", ",\"result_digest\":", ",\"node_count\":",
    ",\"alive_at_end\":", ",\"sink_connected_at_end\":", ",\"keys_total\":",
    ",\"keys_dead\":", ",\"keys_dead_before_detection\":",
    ",\"sessions_genuine\":", ",\"sessions_spoofed\":", ",\"escalations\":",
    ",\"deaths_total\":", ",\"plans_computed\":", ",\"events_executed\":",
    ",\"detected\":", ",\"detection_time\":", ",\"utility_delivered\":",
    ",\"detector\":"};
/// The u32 counters, members kNodeCount..kDeathsTotal in order.
constexpr std::uint32_t MissionOutcome::*kCounters[] = {
    &MissionOutcome::node_count, &MissionOutcome::alive_at_end,
    &MissionOutcome::sink_connected_at_end, &MissionOutcome::keys_total,
    &MissionOutcome::keys_dead, &MissionOutcome::keys_dead_before_detection,
    &MissionOutcome::sessions_genuine, &MissionOutcome::sessions_spoofed,
    &MissionOutcome::escalations, &MissionOutcome::deaths_total};
static_assert(std::size(kCounters) == kPlansComputed - kNodeCount);

enum RequestKey : std::size_t { kRequestId, kTenant, kRepro, kRequestKeyCount };
constexpr std::string_view kRequestMembers[kRequestKeyCount] = {
    "{\"id\":", ",\"tenant\":", ",\"repro\":"};

/// The key inside a member's opening text (`{"id":` or `,"id":`).
constexpr std::string_view key_of(std::string_view member) {
  return member.substr(2, member.size() - 4);
}

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                               kHex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s, plain);
  out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// The text of printf's "%.17g": 17 significant digits, so every double
/// round-trips.
void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

/// Reads one flat JSON object, handing each member to `member(key, value)`
/// in line order.  Values are views that live as long as the reader and the
/// line: a scalar's raw text (number / true / false / null, charset-checked
/// only; the caller converts), a string's unescaped text.  A string without
/// a backslash is a view into the line; one with escapes is unescaped into
/// the reader's scratch, reserved once to the line's size, so no later
/// string moves an earlier one.  Nested containers are a decode error.
class FlatObjectReader {
 public:
  FlatObjectReader(std::string_view text, std::string& error)
      : text_(text), error_(error) {}

  template <class Member>
  bool read(Member&& member) {
    if (!expect('{')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') return true;
    while (true) {
      std::string_view key, value;
      if (!parse_string(key) || !expect(':')) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '"') {
        if (!parse_string(value)) return false;
      } else if (pos_ < text_.size() &&
                 (text_[pos_] == '{' || text_[pos_] == '[')) {
        return fail("nested containers unsupported");
      } else if (!parse_scalar(value)) {
        return false;
      }
      member(key, value);
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

 private:
  bool fail(std::string_view what) {
    error_ = std::string(what) + " at offset " + std::to_string(pos_);
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }
  bool expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }
  bool parse_string(std::string_view& out) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    const std::size_t start = ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '"') {
      out = text_.substr(start, pos_++ - start);
      return true;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    if (scratch_.capacity() < text_.size()) scratch_.reserve(text_.size());
    const std::size_t begin = scratch_.size();
    scratch_.append(text_.substr(start, pos_ - start));
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            if (code > 0x7f) return fail("non-ASCII \\u escape unsupported");
            c = static_cast<char>(code);
            break;
          }
          default:
            return fail("unknown escape");
        }
      }
      scratch_ += c;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    out = std::string_view(scratch_).substr(begin);
    return true;
  }
  bool parse_scalar(std::string_view& out) {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    out = text_.substr(start, pos_ - start);
    return true;
  }

  std::string_view text_;
  std::string& error_;
  std::string scratch_;
  std::size_t pos_ = 0;
};

/// The members a decoder knows, by key index; a later duplicate replaces an
/// earlier one and unknown keys are ignored.
template <std::size_t N>
struct Members {
  const std::string_view (&members)[N];
  std::string_view values[N] = {};
  bool present[N] = {};

  void operator()(std::string_view key, std::string_view value) {
    for (std::size_t i = 0; i < N; ++i) {
      if (key_of(members[i]) == key) {
        values[i] = value;
        present[i] = true;
        return;
      }
    }
  }
};

/// Runs `parse` on a NUL-terminated copy of `text`, so the C conversions
/// read exactly the token, as they would a std::string's c_str().
template <class Parse>
auto with_c_string(std::string_view text, Parse&& parse) {
  char buf[64];
  if (text.size() < sizeof(buf)) {
    std::memcpy(buf, text.data(), text.size());
    buf[text.size()] = '\0';
    return parse(static_cast<const char*>(buf));
  }
  const std::string copy(text);
  return parse(copy.c_str());
}

/// strtoull(text, &end, 10); `complete` is whether it read the whole token.
std::uint64_t to_u64(std::string_view text, bool& complete) {
  return with_c_string(text, [&](const char* s) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s, &end, 10);
    complete = end != s && *end == '\0';
    return v;
  });
}

template <std::size_t N>
bool parse_u64(const Members<N>& m, std::size_t key, std::uint64_t& out,
               bool required, std::string& error) {
  if (!m.present[key]) {
    if (required) {
      error = "missing field '" + std::string(key_of(m.members[key])) + "'";
    }
    return !required;
  }
  bool complete = false;
  out = to_u64(m.values[key], complete);
  if (!complete) {
    error = "field '" + std::string(key_of(m.members[key])) +
            "' is not an unsigned integer";
    return false;
  }
  return true;
}

template <std::size_t N>
std::uint64_t parse_u64_or(const Members<N>& m, std::size_t key,
                           std::uint64_t fallback) {
  bool complete = false;
  return m.present[key] ? to_u64(m.values[key], complete) : fallback;
}

template <std::size_t N>
double parse_double_or(const Members<N>& m, std::size_t key, double fallback) {
  if (!m.present[key]) return fallback;
  return with_c_string(m.values[key],
                       [](const char* s) { return std::strtod(s, nullptr); });
}

// ---------------------------------------------------------------------------
// Binary field packing: integers LE, doubles as IEEE bit patterns.  Fields
// are appended one by one — no struct memcpy, so padding never leaks and
// the bytes are deterministic.
// ---------------------------------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += char((v >> (8 * i)) & 0xff);
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += char((v >> (8 * i)) & 0xff);
}
void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

struct FrameCursor {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  bool take(void* out, std::size_t n) {
    if (!ok || pos + n > data.size()) {
      ok = false;
      return false;
    }
    std::memcpy(out, data.data() + pos, n);
    pos += n;
    return true;
  }
  std::uint32_t u32() {
    unsigned char b[4] = {};
    take(b, 4);
    return std::uint32_t(b[0]) | std::uint32_t(b[1]) << 8 |
           std::uint32_t(b[2]) << 16 | std::uint32_t(b[3]) << 24;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    unsigned char b[8] = {};
    take(b, 8);
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

}  // namespace

std::string_view status_name(MissionStatus status) {
  switch (status) {
    case MissionStatus::kOk: return "ok";
    case MissionStatus::kShed: return "shed";
    case MissionStatus::kInvalid: return "invalid";
    case MissionStatus::kClosed: return "closed";
  }
  return "unknown";
}

std::string_view route_name(MissionRoute route) {
  switch (route) {
    case MissionRoute::kExecuted: return "executed";
    case MissionRoute::kCacheHit: return "cache_hit";
    case MissionRoute::kCoalesced: return "coalesced";
    case MissionRoute::kNone: return "none";
  }
  return "unknown";
}

std::string encode_request_json(const WireRequest& request) {
  std::string out;
  out.reserve(64 + request.repro.size());
  out += kRequestMembers[kRequestId];
  append_u64(out, request.id);
  out += kRequestMembers[kTenant];
  append_u64(out, request.tenant);
  out += kRequestMembers[kRepro];
  append_escaped(out, request.repro);
  out += '}';
  return out;
}

bool decode_request_json(std::string_view line, WireRequest& out,
                         std::string& error) {
  Members<kRequestKeyCount> m{kRequestMembers};
  FlatObjectReader reader(line, error);
  if (!reader.read(m)) return false;
  out.id = 0;
  out.tenant = 0;
  out.repro.clear();
  if (!parse_u64(m, kRequestId, out.id, /*required=*/true, error) ||
      !parse_u64(m, kTenant, out.tenant, /*required=*/false, error)) {
    return false;
  }
  if (!m.present[kRepro]) {
    error = "missing field 'repro'";
    return false;
  }
  out.repro.assign(m.values[kRepro]);
  return true;
}

std::string encode_response_json(const WireResponse& wire) {
  const MissionResponse& r = wire.response;
  const MissionOutcome& o = r.outcome;
  std::string out;
  out.reserve(640);  // a full response is ~560 bytes; +1 for the newline
  out += kResponseMembers[kId];
  append_u64(out, wire.id);
  out += kResponseMembers[kStatus];
  append_escaped(out, status_name(r.status));
  out += kResponseMembers[kRoute];
  append_escaped(out, route_name(r.route));
  // 64-bit identities as strings: JSON numbers stop being exact at 2^53.
  const std::uint64_t identities[] = {o.scenario_digest, o.seed,
                                      o.result_digest};
  for (std::size_t i = 0; i < std::size(identities); ++i) {
    out += kResponseMembers[kScenarioDigest + i];
    out += '"';
    append_u64(out, identities[i]);
    out += '"';
  }
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    out += kResponseMembers[kNodeCount + i];
    append_u64(out, o.*kCounters[i]);
  }
  out += kResponseMembers[kPlansComputed];
  append_u64(out, o.plans_computed);
  out += kResponseMembers[kEventsExecuted];
  append_u64(out, o.events_executed);
  out += kResponseMembers[kDetected];
  out += o.detected != 0 ? "true" : "false";
  out += kResponseMembers[kDetectionTime];
  append_double(out, o.detection_time);
  out += kResponseMembers[kUtilityDelivered];
  append_double(out, o.utility_delivered);
  out += kResponseMembers[kDetector];
  append_escaped(out, o.detector);
  out += '}';
  return out;
}

bool decode_response_json(std::string_view line, WireResponse& out,
                          std::string& error) {
  Members<kResponseKeyCount> m{kResponseMembers};
  FlatObjectReader reader(line, error);
  if (!reader.read(m)) return false;
  out = WireResponse{};
  if (!parse_u64(m, kId, out.id, /*required=*/true, error)) return false;

  MissionResponse& r = out.response;
  const std::string_view status = m.present[kStatus] ? m.values[kStatus] : "ok";
  if (status == "ok") r.status = MissionStatus::kOk;
  else if (status == "shed") r.status = MissionStatus::kShed;
  else if (status == "invalid") r.status = MissionStatus::kInvalid;
  else if (status == "closed") r.status = MissionStatus::kClosed;
  else {
    error = "unknown status '" + std::string(status) + "'";
    return false;
  }
  const std::string_view route = m.present[kRoute] ? m.values[kRoute] : "none";
  if (route == "executed") r.route = MissionRoute::kExecuted;
  else if (route == "cache_hit") r.route = MissionRoute::kCacheHit;
  else if (route == "coalesced") r.route = MissionRoute::kCoalesced;
  else if (route == "none") r.route = MissionRoute::kNone;
  else {
    error = "unknown route '" + std::string(route) + "'";
    return false;
  }

  MissionOutcome& o = r.outcome;
  if (!parse_u64(m, kScenarioDigest, o.scenario_digest, true, error) ||
      !parse_u64(m, kSeed, o.seed, true, error) ||
      !parse_u64(m, kResultDigest, o.result_digest, true, error)) {
    return false;
  }
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    o.*kCounters[i] = std::uint32_t(parse_u64_or(m, kNodeCount + i, 0));
  }
  o.plans_computed = parse_u64_or(m, kPlansComputed, 0);
  o.events_executed = parse_u64_or(m, kEventsExecuted, 0);
  o.detected = m.present[kDetected] && m.values[kDetected] == "true" ? 1 : 0;
  o.detection_time = parse_double_or(m, kDetectionTime, 0.0);
  o.utility_delivered = parse_double_or(m, kUtilityDelivered, 0.0);
  if (m.present[kDetector]) {
    const std::string_view detector = m.values[kDetector];
    const std::size_t n = std::min(detector.size(), sizeof(o.detector) - 1);
    std::memcpy(o.detector, detector.data(), n);
  }
  return true;
}

void encode_request_frame(const WireRequest& request, std::string& out) {
  out.clear();
  put_u64(out, request.id);
  put_u64(out, request.tenant);
  put_u32(out, std::uint32_t(request.repro.size()));
  out += request.repro;
}

bool decode_request_frame(std::string_view payload, WireRequest& out,
                          std::string& error) {
  FrameCursor cur{payload};
  out.id = cur.u64();
  out.tenant = cur.u64();
  out.repro.clear();
  const std::uint32_t len = cur.u32();
  if (!cur.ok || cur.pos + len != payload.size()) {
    error = "malformed request frame";
    return false;
  }
  out.repro.assign(payload.substr(cur.pos, len));
  return true;
}

void encode_response_frame(const WireResponse& wire, std::string& out) {
  const MissionResponse& r = wire.response;
  const MissionOutcome& o = r.outcome;
  out.clear();
  put_u64(out, wire.id);
  out += char(std::uint8_t(r.status));
  out += char(std::uint8_t(r.route));
  put_u64(out, o.scenario_digest);
  put_u64(out, o.seed);
  put_u64(out, o.result_digest);
  put_u32(out, o.node_count);
  put_u32(out, o.alive_at_end);
  put_u32(out, o.sink_connected_at_end);
  put_u32(out, o.keys_total);
  put_u32(out, o.keys_dead);
  put_u32(out, o.keys_dead_before_detection);
  put_u32(out, o.sessions_genuine);
  put_u32(out, o.sessions_spoofed);
  put_u32(out, o.escalations);
  put_u32(out, o.deaths_total);
  put_u64(out, o.plans_computed);
  put_u64(out, o.events_executed);
  out += char(o.detected);
  put_double(out, o.detection_time);
  put_double(out, o.utility_delivered);
  out.append(o.detector, sizeof(o.detector));
}

bool decode_response_frame(std::string_view payload, WireResponse& out,
                           std::string& error) {
  FrameCursor cur{payload};
  out = WireResponse{};
  MissionResponse& r = out.response;
  MissionOutcome& o = r.outcome;
  out.id = cur.u64();
  std::uint8_t status = 0, route = 0, detected = 0;
  cur.take(&status, 1);
  cur.take(&route, 1);
  o.scenario_digest = cur.u64();
  o.seed = cur.u64();
  o.result_digest = cur.u64();
  o.node_count = cur.u32();
  o.alive_at_end = cur.u32();
  o.sink_connected_at_end = cur.u32();
  o.keys_total = cur.u32();
  o.keys_dead = cur.u32();
  o.keys_dead_before_detection = cur.u32();
  o.sessions_genuine = cur.u32();
  o.sessions_spoofed = cur.u32();
  o.escalations = cur.u32();
  o.deaths_total = cur.u32();
  o.plans_computed = cur.u64();
  o.events_executed = cur.u64();
  cur.take(&detected, 1);
  o.detection_time = cur.f64();
  o.utility_delivered = cur.f64();
  cur.take(o.detector, sizeof(o.detector));
  if (!cur.ok || cur.pos != payload.size() || status > 3 || route > 3) {
    error = "malformed response frame";
    return false;
  }
  r.status = MissionStatus(status);
  r.route = MissionRoute(route);
  o.detected = detected;
  o.detector[sizeof(o.detector) - 1] = '\0';
  return true;
}

MissionRequest to_mission_request(const WireRequest& wire) {
  const analysis::FuzzOverrides overrides = analysis::parse_repro(wire.repro);
  auto [config, mode] = analysis::resolve_overrides(overrides);
  MissionRequest request;
  request.config = std::move(config);
  request.mode = mode;
  return request;
}

}  // namespace wrsn::svc
