// Indexed 4-ary min-heap over dense ids.
//
// The heap is ordered by (key, id), a strict total order, so what it pops
// is fixed by the keys alone and never by the heap's shape.  Each queued
// id's heap slot is tracked, so changing a queued id's key moves its entry
// in place (decrease- or increase-key) instead of queueing a duplicate: the
// heap holds at most one entry per id and never pops a stale one.
//
// Two users share it: the routing Dijkstra's frontier (`net::FrontierHeap`,
// keyed by path cost) and the world's per-node timer queue
// (`sim::NodeTimerQueue`, keyed by (time, seq)).  `Key` needs `<` and `!=`
// forming a strict weak order over the keys in use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace wrsn {

template <typename Key>
class IndexedHeap {
 public:
  struct Entry {
    Key key;
    std::uint32_t id;
  };

  /// Empties the heap and sizes the slot index for ids below `n`.
  void reset(std::size_t n) {
    for (const Entry& entry : heap_) slot_[entry.id] = kNotQueued;
    heap_.clear();
    heap_.reserve(n);
    if (slot_.size() != n) slot_.assign(n, kNotQueued);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(std::uint32_t id) const { return slot_[id] != kNotQueued; }

  /// The entry with the smallest (key, id); requires a non-empty heap.
  const Entry& top() const {
    WRSN_ASSERT(!heap_.empty());
    return heap_.front();
  }

  /// Queues `id` at `key`, or lowers its key to `key` when it is already
  /// queued (`key` must not exceed the queued key).
  void push_or_decrease(std::uint32_t id, const Key& key) {
    std::uint32_t i = slot_[id];
    if (i == kNotQueued) {
      i = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back({key, id});
    } else {
      WRSN_ASSERT(!(heap_[i].key < key));
      heap_[i].key = key;
    }
    sift_up(i);
  }

  /// Queues `id` at `key`, or moves it to `key` in either direction.
  void update(std::uint32_t id, const Key& key) {
    const std::uint32_t i = slot_[id];
    if (i == kNotQueued) {
      push_or_decrease(id, key);
      return;
    }
    if (key < heap_[i].key) {
      heap_[i].key = key;
      sift_up(i);
    } else if (heap_[i].key < key) {
      heap_[i].key = key;
      sift_down(i);
    }
  }

  /// Removes `id` if it is queued.
  void erase(std::uint32_t id) {
    const std::uint32_t i = slot_[id];
    if (i == kNotQueued) return;
    slot_[id] = kNotQueued;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // `id` was the last entry
    place(i, last);
    if (i > 0 && before(last, heap_[(i - 1) / 4])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  /// Removes and returns the entry with the smallest (key, id).
  Entry pop() {
    WRSN_ASSERT(!heap_.empty());
    const Entry top = heap_.front();
    slot_[top.id] = kNotQueued;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(0, last);
      sift_down(0);
    }
    return top;
  }

  /// Bulk load: appends `id` (not queued) without restoring heap order.
  /// Nothing but further appends may follow until heapify().
  void append_unordered(std::uint32_t id, const Key& key) {
    WRSN_ASSERT(slot_[id] == kNotQueued);
    slot_[id] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back({key, id});
  }

  /// Restores heap order after append_unordered, in O(size).
  void heapify() {
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  static bool before(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
  void place(std::size_t i, const Entry& entry) {
    heap_[i] = entry;
    slot_[entry.id] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Entry item = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(item, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, item);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Entry item = heap_[i];
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], item)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, item);
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> slot_;  ///< heap index per id, or kNotQueued
};

}  // namespace wrsn
