#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace wrsn::sim {
namespace {

constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

}  // namespace

Simulator::~Simulator() {
  // One-shot flush of the kernel tallies.  `next_seq_` increments on every
  // schedule and `executed_` on every fire, so the hot paths pay only plain
  // member updates; the registry sees the totals when the kernel dies
  // (while the trial's ScopedRegistry is still installed).
  WRSN_OBS_ADD(kSimEventsScheduled, double(next_seq_));
  WRSN_OBS_ADD(kSimEventsFired, double(executed_));
  WRSN_OBS_ADD(kSimEventsCancelled, double(cancelled_));
  WRSN_OBS_GAUGE_MAX(kSimHeapPeak, double(heap_peak_));
}

void Simulator::schedule_at(Seconds at, EventCallback fn) {
  WRSN_REQUIRE(at >= now_, "cannot schedule into the past");
  WRSN_REQUIRE(static_cast<bool>(fn), "null event callback");

  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    WRSN_REQUIRE(slots_.size() < 0xffffffffull, "event slab exhausted");
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[idx] = std::move(fn);

  heap_.push_back(HeapEntry{at, next_seq_++, idx});
  std::push_heap(heap_.begin(), heap_.end(), later);
  note_peak();
}

void Simulator::schedule_in(Seconds delay, EventCallback fn) {
  WRSN_REQUIRE(delay >= 0.0, "negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::attach_timers(NodeTimerQueue* timers) {
  WRSN_REQUIRE(timers == nullptr || timers_ == nullptr,
               "a timer queue is already attached");
  timers_ = timers;
}

void Simulator::arm_timer(std::uint32_t node, NodeTimer kind, Seconds at) {
  WRSN_REQUIRE(at >= now_, "cannot schedule into the past");
  WRSN_ASSERT(timers_ != nullptr);
  if (timers_->arm(node, kind, EventKey{at, next_seq_++})) ++cancelled_;
  note_peak();
}

bool Simulator::disarm_timer(std::uint32_t node, NodeTimer kind) {
  WRSN_ASSERT(timers_ != nullptr);
  if (!timers_->disarm(node, kind)) return false;
  ++cancelled_;
  return true;
}

void Simulator::disarm_timers(std::uint32_t node) {
  WRSN_ASSERT(timers_ != nullptr);
  cancelled_ += timers_->disarm_all(node);
}

void Simulator::load_timers(NodeTimer kind, const std::vector<Seconds>& at) {
  WRSN_ASSERT(timers_ != nullptr);
  for (const Seconds t : at) {
    WRSN_REQUIRE(t >= now_, "cannot schedule into the past");
  }
  timers_->load(kind, at, next_seq_);
  next_seq_ += at.size();
  note_peak();
}

bool Simulator::run_next(Seconds until) {
  const bool have_timer = timers_ != nullptr && !timers_->empty();
  if (have_timer &&
      (heap_.empty() ||
       timers_->head() < EventKey{heap_.front().time, heap_.front().seq})) {
    if (timers_->head().time > until) return false;
    // Popping disarms the timer before it fires, so the handler may re-arm
    // it, exactly as an event callback may reschedule into its own slot.
    const NodeTimerQueue::Due due = timers_->pop();
    WRSN_ASSERT(due.key.time >= now_);
    now_ = due.key.time;
    ++executed_;
    timers_->fire(due);
    return true;
  }
  if (heap_.empty() || heap_.front().time > until) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  WRSN_ASSERT(top.time >= now_);
  // Move the callback out and free the slot *before* invoking, so the
  // callback can schedule new events, possibly into this very slot.
  EventCallback fn = std::move(slots_[top.slot]);
  free_.push_back(top.slot);
  now_ = top.time;
  ++executed_;
  fn();
  return true;
}

void Simulator::run_until(Seconds until) {
  WRSN_REQUIRE(until >= now_, "cannot run backwards");
  while (run_next(until)) {
  }
  now_ = until;
}

void Simulator::run_all() {
  while (run_next(kNever)) {
  }
}

bool Simulator::step() { return run_next(kNever); }

void Simulator::reserve(std::size_t capacity) {
  slots_.reserve(capacity);
  free_.reserve(capacity);
  heap_.reserve(capacity);
}

}  // namespace wrsn::sim
