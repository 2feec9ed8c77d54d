// Discrete-event simulation kernel.
//
// A minimal, deterministic event loop: events are (time, sequence) ordered,
// so same-time events fire in scheduling order and runs are exactly
// reproducible.  Two sources feed the loop:
//   * ordinary events (vehicles, faults, mobility epochs), scheduled with a
//     callback and held in the kernel's own heap;
//   * per-node timers (death, request-arm, emergency, escalation, hardware
//     failure), held in a NodeTimerQueue the world attaches.  The kernel
//     stamps every timer arm with the same sequence counter as
//     schedule_at and peeks at the queue's head beside its heap top, so
//     the merged order is the one a single heap of all events would give.
//
// An ordinary event cannot be cancelled once scheduled: a holder that may
// have to drop one guards its callback with a version (as vehicles do), and
// a per-node timer is disarmed in its queue.  So every heap entry is live.
//
// Storage layout of the kernel's own events (allocation- and hash-free):
//   * Callbacks live in a slab of reusable slots; a fired event's slot goes
//     back on a free list before its callback runs.
//   * The ready queue is a binary heap (std::push_heap / std::pop_heap) of
//     POD entries keyed by (time, seq); callbacks stay in the slab, so heap
//     moves copy 24 bytes.
//   * Callbacks are type-erased into EventCallback, which stores small
//     closures inline (no per-event heap allocation; larger ones fall back
//     to the heap transparently).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/node_timers.hpp"

namespace wrsn::sim {

/// Move-only type-erased `void()` callable with inline storage for small
/// closures.  Event callbacks capture a few words (object pointer, node id,
/// version), so the common case never touches the allocator.
class EventCallback {
 public:
  /// Inline storage size [bytes]; closures up to this size are stored
  /// in place, larger ones are boxed on the heap.
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*move)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = boxed_ops<D>();
    }
  }

  template <typename D>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
        [](void* dst, void* src) {
          D* from = std::launder(reinterpret_cast<D*>(src));
          ::new (dst) D(std::move(*from));
          from->~D();
        },
        [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); }};
    return &ops;
  }

  template <typename D>
  static const Ops* boxed_ops() {
    static constexpr Ops ops{
        [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); },
        [](void* dst, void* src) {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* s) { delete *std::launder(reinterpret_cast<D**>(s)); }};
    return &ops;
  }

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// Deterministic single-threaded event loop.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Flushes the kernel tallies (events scheduled/fired/cancelled, heap
  /// peak) to the installed obs registry in one shot — the per-event paths
  /// are too hot for a registry write each.
  ~Simulator();

  /// Current simulation time [s].
  Seconds now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now).
  void schedule_at(Seconds at, EventCallback fn);

  /// Schedules `fn` after `delay` seconds (>= 0).
  void schedule_in(Seconds delay, EventCallback fn);

  /// Merges `timers` into the loop as a second event source; nullptr
  /// detaches it.  At most one queue is attached at a time.
  void attach_timers(NodeTimerQueue* timers);

  /// Arms timer `kind` of `node` at absolute time `at` (>= now), replacing
  /// the armed one.  The arm draws the next seq exactly as schedule_at
  /// does, and a replaced timer counts as cancelled.
  void arm_timer(std::uint32_t node, NodeTimer kind, Seconds at);
  /// Disarms one timer; returns false (no state change) if it was not armed.
  bool disarm_timer(std::uint32_t node, NodeTimer kind);
  /// Disarms every timer of `node`.
  void disarm_timers(std::uint32_t node);
  /// Arms `kind` of node i at `at[i]` for every i, in node order — the
  /// seqs N schedule_at calls would draw — with one heapify.  Requires an
  /// empty timer queue.
  void load_timers(NodeTimer kind, const std::vector<Seconds>& at);

  /// Runs events with time <= `until`, then advances the clock to `until`.
  void run_until(Seconds until);

  /// Runs until both the heap and the timer queue are empty.
  void run_all();

  /// Fires the single earliest event or timer; returns false if none is
  /// pending.
  bool step();

  /// Number of events and timers fired so far.
  std::uint64_t executed() const { return executed_; }

  /// Number of scheduled events not yet fired, plus armed timers.
  std::size_t pending() const {
    return heap_.size() + (timers_ != nullptr ? timers_->armed_count() : 0);
  }

  /// Pre-sizes the slab, heap, and free list so a workload with at most
  /// `capacity` concurrently pending events never allocates after this call.
  void reserve(std::size_t capacity);

  /// Number of slab slots ever allocated (peak concurrent events).
  std::size_t slab_size() const { return slots_.size(); }

 private:
  /// POD heap entry; the callback stays in slab slot `slot`.
  struct HeapEntry {
    Seconds time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Heap order for std::push_heap / std::pop_heap, which keep the
  /// greatest entry in front: "greatest" is the earliest (time, seq).  The
  /// key is unique, so the pop order never depends on the heap's shape.
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  /// Tracks the peak of heap entries plus queued timer nodes.
  void note_peak() {
    const std::size_t queued = timers_ != nullptr ? timers_->size() : 0;
    heap_peak_ = std::max(heap_peak_, heap_.size() + queued);
  }

  /// Fires the earliest event or timer if its time is <= `until`.
  bool run_next(Seconds until);

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t heap_peak_ = 0;
  std::vector<EventCallback> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;
  NodeTimerQueue* timers_ = nullptr;
};

}  // namespace wrsn::sim
