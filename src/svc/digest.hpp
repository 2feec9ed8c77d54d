// Canonical scenario digest: the service's cache/coalescing key.
//
// `scenario_digest` folds every ScenarioConfig field that determines a
// mission's result — topology, world physics, attack/benign service
// parameters, fault plan, fleet shape, detector suite — EXCEPT the seed,
// plus the charger mode.  The seed is kept separate so a what-if sweep
// (same scenario, many seeds) shares one digest and the cache key is the
// (digest, seed) pair.
//
// Order invariance is by construction: overrides land in a ScenarioConfig
// first and the digest walks the field list (analysis/config_fields.hpp) in
// its fixed order, so two requests describing the same scenario in different
// override orders — or via INI file vs repro line vs flags — produce the
// same key.  A field added to that list is digested and, if keyed, parsed;
// svc_test pins every key's digest and checks by hand that mutating any
// config field changes the digest.
#pragma once

#include <cstddef>
#include <cstdint>

#include "analysis/scenario.hpp"

namespace wrsn::svc {

/// FNV-1a fold of (mode, every non-seed config field).  Allocation-free.
std::uint64_t scenario_digest(const analysis::ScenarioConfig& config,
                              analysis::ChargerMode mode) noexcept;

/// Cache / coalescing key: one scenario at one seed.
struct MissionKey {
  std::uint64_t digest = 0;
  std::uint64_t seed = 0;

  friend bool operator==(const MissionKey&, const MissionKey&) = default;
};

struct MissionKeyHash {
  std::size_t operator()(const MissionKey& key) const noexcept {
    // splitmix64 finalizer over the xor-fold: the digest is already well
    // mixed, but seeds are small integers, so stir them in properly.
    std::uint64_t x = key.digest ^ (key.seed + 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

}  // namespace wrsn::svc
