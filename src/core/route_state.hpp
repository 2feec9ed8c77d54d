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
// All travel times come from the instance's TravelMatrix, read from the
// rows of stops already on the route (the matrix is symmetric): a stop's
// row is materialised when the stop is inserted, and the scans index those
// rows through cached pointers, so the inner loops perform no sqrt and no
// row-fill check, and a candidate never costs a row of its own.
#pragma once

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
  /// Binds to `instance` (not owned) and forces its travel matrix.
  explicit RouteState(const TideInstance& instance);

  /// Rebinds to `instance` and resets to the empty route, KEEPING the
  /// existing array capacity — the zero-alloc replan path.
  void bind(const TideInstance& instance);
  /// Grows every internal array's capacity to hold a route of `stops` stops
  /// so later inserts cannot reallocate.
  void reserve(std::size_t stops);

  const std::vector<std::size_t>& order() const { return order_; }
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

  const TideInstance* inst_ = nullptr;
  const TravelMatrix* tt_ = nullptr;
  std::vector<std::size_t> order_;
  /// rows_[pos] == tt_->row(order_[pos]), cached at insert (valid until the
  /// matrix is rebuilt, which always precedes a bind()).
  std::vector<const Seconds*> rows_;
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
