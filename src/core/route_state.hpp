// Incrementally maintained TIDE route with O(1) insertion feasibility.
//
// The classic insertion check walks the downstream tail of the route to see
// whether the delay introduced by a new stop breaks any later time window —
// O(route) per candidate position, O(route^2) per best_insertion.  This
// RouteState instead maintains two suffix arrays over the current schedule
// (the push-forward slack technique of the deadline-driven charging
// literature):
//
//   slack_[pos]   — the largest arrival delay the tail starting at position
//                   `pos` can absorb before some downstream service would
//                   start after its window closes.  Encodes the evaluator's
//                   exact semantics, including the kWindowEpsilon tolerance
//                   and the "delay fully absorbed by waiting" early exit.
//   waitsum_[pos] — total waiting time (service_start - arrival) from
//                   position `pos` to the end of the route.  An arrival
//                   delay d at `pos` propagates to the route completion as
//                   max(0, d - waitsum_[pos]) because each wait absorbs
//                   delay before it reaches the next leg.
//
// With these, try_insert answers both feasibility and the completion-time
// delta in O(1), so best_insertion is O(route) and the CSA planner's greedy
// fill drops from O(U^2 R^2) to roughly O(U R) per plan.  Both arrays are
// recomputed by rebuild() in O(route) after every committed insertion; the
// invariant is checked against the naive tail walk by core_test and the
// plan-equivalence property test (tests/property_test.cpp) which pins this
// implementation to the retained reference in core/reference_planner.hpp.
//
// The route computes its own travel times, only where the scans read them:
// bind() computes the start row (start position to every stop) and
// insert() computes the inserted stop's row (that stop to every stop).  A
// leg next to a route stop is that stop's row, by symmetry, so a candidate
// never costs a row of its own and a plan holds (route + 1) rows, not an
// n x n matrix.  The scans index the rows through cached pointers, so the
// inner loops perform no sqrt.  Every cell is geom::distance(a, b) / speed:
// bit-identical to TideInstance::travel_time on the same endpoints, in
// either direction (hypot is sign-symmetric).
//
// Rows are written into a pool of row buffers the route owns: the k-th stop
// inserted since bind() takes buffer k.  Every buffer is as wide as the
// largest stop count bound so far and the pool is kept across bind(), so a
// steady-state replan allocates nothing.  A buffer never moves while its
// row pointer is cached; only a bind() that raises the stop count past
// every earlier one frees the pool.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/tide.hpp"

namespace wrsn::csa {

class RouteState {
 public:
  /// Unbound state; call bind() before use.  Lets planners keep a RouteState
  /// arena across plan() calls (storage is reused, not reallocated).
  RouteState() = default;
  /// Binds to `instance` (not owned).
  explicit RouteState(const TideInstance& instance);

  /// Rebinds to `instance`, computes its start row and resets to the empty
  /// route, KEEPING the existing array capacity and row pool — the
  /// zero-alloc replan path.  Rows reflect the stops as they are now: after
  /// changing the instance, bind() again before the next scan.  try_insert,
  /// best_insertion and insert throw PreconditionError for a stop index past
  /// the binding or once the stop count differs from it.
  void bind(const TideInstance& instance);
  /// Grows every internal array's capacity to hold a route of `stops` stops
  /// so later inserts cannot reallocate.
  void reserve(std::size_t stops);

  /// The instance of the last bind().
  const TideInstance& instance() const { return *inst_; }
  const std::vector<std::size_t>& order() const { return order_; }
  /// Travel time from the instance start position to stop `stop`.
  Seconds from_start(std::size_t stop) const { return start_row_[stop]; }
  /// Travel times from the stop at route position `pos` to every stop; the
  /// pointer stays valid until the next bind().
  const Seconds* row(std::size_t pos) const { return rows_[pos]; }
  Seconds completion() const {
    return depart_.empty() ? inst_->start_time : depart_.back();
  }

  /// Completion-time increase if `stop` were inserted at `pos`;
  /// nullopt when any window (the stop's or a downstream one) would break.
  /// O(1): the downstream check is `delay <= slack_[pos]`.
  std::optional<Seconds> try_insert(std::size_t stop, std::size_t pos) const;

  /// Best insertion position for `stop` by minimum completion-time increase
  /// (ties: smallest position).  O(route).
  std::optional<std::pair<std::size_t, Seconds>> best_insertion(
      std::size_t stop) const;

  void insert(std::size_t stop, std::size_t pos);

  Plan to_plan() const;
  /// Allocation-free variant: evaluates the route into `out` in place.
  void to_plan_into(Plan& out) const;

 private:
  void rebuild();
  /// Throws PreconditionError unless `stop` is within the binding and the
  /// instance still has the stop count it was bound with.
  void require_bound(std::size_t stop) const;

  const TideInstance* inst_ = nullptr;
  std::vector<std::size_t> order_;
  std::vector<Seconds> start_row_;
  /// rows_[pos]: the pool buffer holding order_[pos]'s row.
  std::vector<const Seconds*> rows_;
  /// Row buffers of row_width_ cells each; buffers [0, order_.size()) hold
  /// the current route's rows, in insertion order.
  std::vector<std::unique_ptr<Seconds[]>> pool_;
  std::size_t row_width_ = 0;
  std::vector<Seconds> arrival_;
  std::vector<Seconds> start_;
  std::vector<Seconds> depart_;
  /// Max absorbable arrival delay per position; size order_.size() + 1,
  /// slack_[order_.size()] = +inf (empty tail absorbs anything).
  std::vector<Seconds> slack_;
  /// Suffix sums of waiting time; size order_.size() + 1, last entry 0.
  std::vector<Seconds> waitsum_;
};

}  // namespace wrsn::csa
