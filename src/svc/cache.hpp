// Bounded LRU result cache.
//
// The mission service owns one `LruCore` behind the same mutex that guards
// its in-flight coalescing table — one lock acquisition per request, and the
// completion path publishes to the cache and retires the flight record
// atomically, so a request can never miss both the cache and the flight
// table for a scenario that already executed.
//
// Storage is preallocated at init: a fixed slot vector, an intrusive
// index-based LRU list (no node allocations, no pointers to chase), and a
// rehash-proofed index map.  The HIT path — find, relink, copy out — is
// allocation-free; sim_alloc_test pins that with a counting operator new.
// Inserts (the miss path, which just ran a multi-millisecond mission) may
// allocate an index node.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "svc/digest.hpp"
#include "svc/types.hpp"

namespace wrsn::svc {

class LruCore {
 public:
  /// Sizes the cache for `capacity` entries (0 = disabled: every lookup
  /// misses, inserts drop).  Call once before use.
  void init(std::size_t capacity);

  /// On hit: copies the cached response into `out`, promotes the entry to
  /// most-recently-used, returns true.  Allocation-free.
  bool lookup(const MissionKey& key, MissionResponse& out) noexcept;

  /// Inserts (or refreshes) `key`.  Evicts the least-recently-used entry
  /// when full; returns true iff an eviction happened.  Responses are
  /// deterministic per key, so refreshing an existing entry only touches
  /// recency.
  bool insert(const MissionKey& key, const MissionResponse& value);

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    MissionKey key;
    MissionResponse value;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void unlink(std::uint32_t i) noexcept;
  void push_front(std::uint32_t i) noexcept;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<MissionKey, std::uint32_t, MissionKeyHash> index_;
  std::uint32_t head_ = kNil;  ///< most recently used
  std::uint32_t tail_ = kNil;  ///< eviction candidate
};

}  // namespace wrsn::svc
