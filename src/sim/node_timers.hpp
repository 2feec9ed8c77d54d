// Per-node timer queue: the event kernel's second event source.
//
// Each WRSN node is a handful of analytic timers (death, request-arm,
// emergency, escalation, hardware failure), each re-armed far more often
// than it fires.  Instead of one kernel event per timer, a node keeps its
// five (time, seq) stamps in a row, and an indexed 4-ary heap over nodes
// holds each node's earliest armed stamp: at most one entry per node, and
// re-arming a timer is one update-key, not a cancel and a push.
//
// The stamps come from the kernel's own sequence counter (Simulator::
// arm_timer), and the kernel pops whichever of its heap top and this
// queue's head is earlier by (time, seq).  Seqs are unique across both
// sources, so the merged firing order is exactly the order one heap of
// every event would produce.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/indexed_heap.hpp"
#include "common/units.hpp"

namespace wrsn::sim {

/// The (time, seq) stamp that orders every event the kernel fires.
struct EventKey {
  Seconds time;
  std::uint64_t seq;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  friend bool operator!=(const EventKey& a, const EventKey& b) {
    return a.time != b.time || a.seq != b.seq;
  }
};

/// The timers a node owns; each is armed at most once at a time.
enum class NodeTimer : std::uint8_t {
  Death,
  Request,
  Emergency,
  Escalation,
  Hardware,
};
inline constexpr std::size_t kNodeTimerKinds = 5;

class NodeTimerQueue {
 public:
  /// A timer that came due: popped from the queue and disarmed.
  struct Due {
    std::uint32_t node;
    NodeTimer kind;
    EventKey key;
  };
  using Handler = std::function<void(std::uint32_t node, NodeTimer kind)>;

  /// `fire` is what the kernel calls with each timer that comes due.
  explicit NodeTimerQueue(Handler fire) : fire_(std::move(fire)) {}

  /// Disarms everything and sizes the queue for nodes below `nodes`.
  void reset(std::size_t nodes);

  /// Arms `kind` of `node` at `key`, replacing an armed stamp; returns true
  /// when one was replaced.
  bool arm(std::uint32_t node, NodeTimer kind, EventKey key);
  /// Returns false when the timer was not armed.
  bool disarm(std::uint32_t node, NodeTimer kind);
  /// Disarms every timer of `node`; returns how many were armed.
  std::size_t disarm_all(std::uint32_t node);

  /// Bulk load of one timer kind at construction time: arms `kind` of node
  /// i at `times[i]` with seq `first_seq + i`, then heapifies once.
  /// Requires an empty queue.
  void load(NodeTimer kind, const std::vector<Seconds>& times,
            std::uint64_t first_seq);

  bool empty() const { return heap_.empty(); }
  /// Nodes queued (nodes with at least one armed timer).
  std::size_t size() const { return heap_.size(); }
  /// Timers armed over all nodes.
  std::size_t armed_count() const { return armed_; }
  /// The earliest armed stamp; requires a non-empty queue.
  const EventKey& head() const { return heap_.top().key; }
  /// Disarms and returns the earliest armed timer.
  Due pop();
  void fire(const Due& due) { fire_(due.node, due.kind); }

 private:
  static constexpr std::uint64_t kUnarmed =
      std::numeric_limits<std::uint64_t>::max();
  /// An unarmed slot sorts after every armed stamp.
  static constexpr EventKey kIdle{std::numeric_limits<double>::infinity(),
                                  kUnarmed};
  using Row = std::array<EventKey, kNodeTimerKinds>;

  static std::size_t index(NodeTimer kind) {
    return static_cast<std::size_t>(kind);
  }
  static std::size_t earliest(const Row& row);
  /// Re-keys `node` to its earliest armed stamp, or unqueues it.
  void requeue(std::uint32_t node);

  Handler fire_;
  std::vector<Row> rows_;
  IndexedHeap<EventKey> heap_;
  std::size_t armed_ = 0;
};

}  // namespace wrsn::sim
