#include "svc/digest.hpp"

#include <type_traits>
#include <vector>

#include "analysis/config_fields.hpp"
#include "common/fnv.hpp"

namespace wrsn::svc {
namespace {

// One overload per value kind of the field list (analysis/config_fields.hpp).
void mix(Fnv& fnv, double value) { fnv.mix(value); }
void mix(Fnv& fnv, std::uint64_t value) { fnv.mix(value); }
void mix(Fnv& fnv, bool value) { fnv.mix(std::uint64_t{value ? 1u : 0u}); }
template <class E>
  requires std::is_enum_v<E>
void mix(Fnv& fnv, E value) {
  fnv.mix(static_cast<std::uint64_t>(value));
}
void mix(Fnv& fnv, const std::vector<net::NodeId>& territory) {
  fnv.mix(std::uint64_t{territory.size()});
  for (const net::NodeId id : territory) fnv.mix(std::uint64_t{id});
}

}  // namespace

std::uint64_t scenario_digest(const analysis::ScenarioConfig& config,
                              analysis::ChargerMode mode) noexcept {
  Fnv fnv;
  fnv.mix(std::uint64_t(mode));
  // config.seed is not a field-list row: the key is (digest, seed).
  analysis::for_each_field(config,
                           [&](const auto& row) { mix(fnv, row.value); });
  return fnv.hash();
}

}  // namespace wrsn::svc
