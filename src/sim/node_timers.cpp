#include "sim/node_timers.hpp"

#include "common/check.hpp"

namespace wrsn::sim {

void NodeTimerQueue::reset(std::size_t nodes) {
  Row idle;
  idle.fill(kIdle);
  rows_.assign(nodes, idle);
  heap_.reset(nodes);
  armed_ = 0;
}

std::size_t NodeTimerQueue::earliest(const Row& row) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < kNodeTimerKinds; ++k) {
    if (row[k] < row[best]) best = k;
  }
  return best;
}

void NodeTimerQueue::requeue(std::uint32_t node) {
  const Row& row = rows_[node];
  const EventKey& head = row[earliest(row)];
  if (head.seq == kUnarmed) {
    heap_.erase(node);
  } else {
    heap_.update(node, head);
  }
}

bool NodeTimerQueue::arm(std::uint32_t node, NodeTimer kind, EventKey key) {
  WRSN_ASSERT(key.seq != kUnarmed);
  EventKey& slot = rows_[node][index(kind)];
  const bool replaced = slot.seq != kUnarmed;
  if (!replaced) ++armed_;
  slot = key;
  requeue(node);
  return replaced;
}

bool NodeTimerQueue::disarm(std::uint32_t node, NodeTimer kind) {
  EventKey& slot = rows_[node][index(kind)];
  if (slot.seq == kUnarmed) return false;
  slot = kIdle;
  --armed_;
  requeue(node);
  return true;
}

std::size_t NodeTimerQueue::disarm_all(std::uint32_t node) {
  std::size_t count = 0;
  for (EventKey& slot : rows_[node]) {
    if (slot.seq == kUnarmed) continue;
    slot = kIdle;
    ++count;
  }
  armed_ -= count;
  heap_.erase(node);
  return count;
}

void NodeTimerQueue::load(NodeTimer kind, const std::vector<Seconds>& times,
                          std::uint64_t first_seq) {
  WRSN_REQUIRE(heap_.empty(), "bulk timer load needs an empty queue");
  WRSN_REQUIRE(times.size() <= rows_.size(), "more timers than nodes");
  for (std::uint32_t node = 0; node < times.size(); ++node) {
    const EventKey key{times[node], first_seq + node};
    rows_[node][index(kind)] = key;
    heap_.append_unordered(node, key);
  }
  armed_ += times.size();
  heap_.heapify();
}

NodeTimerQueue::Due NodeTimerQueue::pop() {
  const std::uint32_t node = heap_.top().id;
  Row& row = rows_[node];
  const std::size_t k = earliest(row);
  const Due due{node, static_cast<NodeTimer>(k), row[k]};
  row[k] = kIdle;
  --armed_;
  requeue(node);
  return due;
}

}  // namespace wrsn::sim
