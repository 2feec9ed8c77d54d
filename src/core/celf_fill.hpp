// Shared lazy (CELF-style) cost-benefit greedy fill engine.
//
// Both the single-charger CsaPlanner and the fleet planner's per-cell fill
// run the same greedy loop: pick the feasible candidate maximizing
// utility / max(delta, 1) (ties to the smallest stop index), insert it,
// repeat.  This engine owns that loop and its candidate arena, so a
// steady-state replan allocates nothing:
//
//   - add() builds the pool, dropping stops the charger cannot reach in
//     time even driving straight from the start;
//   - run() sorts the pool by utility (descending, ties to the smaller
//     stop) and scores candidates in that order with
//     RouteState::best_insertion until the CELF cutoff: utility bounds any
//     candidate's score (the denominator is >= 1), so a round stops once
//     the remaining utilities fall below the incumbent.
//
// A round always follows a committed insertion, so no score survives into
// the next round and none is kept.  Selection is bit-identical to the
// classic full-rescore reference loop (core/reference_planner.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/route_state.hpp"
#include "core/tide.hpp"

namespace wrsn::csa {

/// Per-stop entry of the lazy greedy fill.
struct CelfCandidate {
  std::size_t stop = 0;
  double utility = 0.0;  ///< stops[stop].utility (the CELF bound)
  bool inserted = false;
};

/// The fill engine.  Reuse one instance across plan() calls: the candidate
/// pool is an arena, so a steady-state replan over a previously seen problem
/// size performs no heap allocation.
class CelfFill {
 public:
  /// Empties the pool, keeping room for `stops` candidates.
  void clear(std::size_t stops);
  /// Adds `stop` of the instance `route` is bound to to the pool.  Returns
  /// false, adding nothing, when the charger cannot reach the stop's window
  /// even straight from the start (any route prefix only arrives later).
  /// The guard keeps borderline floating-point cases in play so the
  /// reference planner's per-round rejections are reproduced exactly.
  bool add(const RouteState& route, std::size_t stop);

  /// The pool after run(): sorted, with the inserted candidates marked.
  const std::vector<CelfCandidate>& candidates() const { return candidates_; }

  /// Runs greedy rounds on `route` until no feasible candidate remains,
  /// marking inserted candidates.  Adds one to `insertions_tried` per
  /// best_insertion scan.
  void run(RouteState& route, std::uint64_t& insertions_tried);

 private:
  std::vector<CelfCandidate> candidates_;
};

}  // namespace wrsn::csa
