// TIDE: the charging-uTility optImization problem with key-noDe timE window
// constraints — the formal core of the Charging Spoofing Attack.
//
// Given the mobile charger's position, a set of KEY stops (nodes to be
// spoof-charged; each must have its service START inside a hard time window,
// i.e. after the node's charging request and before the base station's
// escalation deadline) and a set of UTILITY stops (genuine charging jobs,
// each with its own window and a utility equal to the energy it restores),
// find a route and schedule that services every key stop inside its window
// while maximizing the total utility of the genuine stops served.  Waiting
// at a stop until its window opens is allowed.  TIDE contains TSP with time
// windows as the special case of zero utility stops, hence it is NP-hard.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "geom/vec2.hpp"
#include "net/network.hpp"

namespace wrsn::csa {

struct TideInstance;

/// One candidate visit in a TIDE instance.
struct Stop {
  net::NodeId node = net::kInvalidNode;
  geom::Vec2 position;
  /// Earliest allowed service start [s] (the node's request time).
  Seconds window_open = 0.0;
  /// Latest allowed service start [s] (escalation deadline minus margin).
  Seconds window_close = 0.0;
  /// Service duration [s].
  Seconds service_time = 0.0;
  /// Utility of serving this stop (0 for key stops by convention).
  double utility = 0.0;
  /// Key stops are hard constraints (spoof targets); others are optional.
  bool is_key = false;
};

/// Symmetric travel-time matrix over an instance's stops plus a row for the
/// charger's start position, filled ROW BY ROW ON DEMAND.  rebuild() is
/// O(n): it snapshots the stop positions and the speed, computes the start
/// row and starts a generation with no rows; row i is computed the first
/// time it is read in the current generation.  Insertion planners only read
/// the rows of stops already on the route (a leg next to a route stop is
/// that stop's row, by symmetry), so a plan touches O(route * n) cells, not
/// O(n^2).  Every cell is geom::distance(a, b) / speed — bit-identical to
/// TideInstance::travel_time on the same endpoints, in either direction
/// (hypot is sign-symmetric).  The lazy fill mutates through const
/// accessors: one thread at a time, like every planner arena.
///
/// Storage is a pool of row buffers, not an n x n block: the k-th row filled
/// in a generation is written into pool buffer k, so a generation holds
/// (rows filled) x n cells whichever stop indices its route visits.  Every
/// buffer is as wide as the largest stop count rebuilt so far, and the pool
/// is kept across rebuild(), so a steady-state replan allocates nothing.
/// Buffers are raw storage: a row is written in full when it is filled, and
/// cells a generation never fills hold whatever an earlier generation left,
/// which nothing reads.  A buffer is neither moved nor freed while its
/// generation is live (RouteState caches row pointers); only the rebuild()
/// that raises the stop count past every earlier one frees the pool.
class TravelMatrix {
 public:
  TravelMatrix() = default;
  static TravelMatrix build(const TideInstance& instance);

  /// In-place variant of build(): rebinds this matrix to `instance` and
  /// starts a new generation, invalidating every row pointer handed out
  /// before.  Reuses the existing storage (allocation-free once the pool
  /// covers the stop count and the rows a plan fills).
  void rebuild(const TideInstance& instance);

  std::size_t size() const { return n_; }
  /// Travel time from the instance start position to stop `i`.
  Seconds from_start(std::size_t i) const { return start_row_[i]; }
  /// Travel time between stops `i` and `j` (symmetric); fills row i.
  Seconds between(std::size_t i, std::size_t j) const { return row(i)[j]; }
  /// Row `i` as a flat lane: row(i)[j] == between(i, j).  The pointer stays
  /// valid until the next rebuild().
  const Seconds* row(std::size_t i) const {
    const Seconds* const r = row_[i];
    return r != nullptr ? r : fill_row(i);
  }
  /// Rows materialised since the last rebuild().
  std::size_t rows_filled() const { return rows_filled_; }

 private:
  const Seconds* fill_row(std::size_t i) const;

  std::size_t n_ = 0;
  MetersPerSecond speed_ = 1.0;
  std::vector<geom::Vec2> positions_;
  std::vector<Seconds> start_row_;
  /// row_[i]: the pool buffer holding stop i's row in this generation, or
  /// nullptr while the row is unfilled.
  mutable std::vector<const Seconds*> row_;
  /// Row buffers of row_width_ cells each; buffers [0, rows_filled_) hold
  /// this generation's rows, in fill order.
  mutable std::vector<std::unique_ptr<Seconds[]>> pool_;
  std::size_t row_width_ = 0;
  mutable std::size_t rows_filled_ = 0;
};

/// A static TIDE planning problem.
struct TideInstance {
  geom::Vec2 start_position;
  Seconds start_time = 0.0;
  MetersPerSecond speed = 3.0;
  std::vector<Stop> stops;

  std::size_t key_count() const;
  /// Travel time between two stop positions at the instance speed.
  Seconds travel_time(geom::Vec2 from, geom::Vec2 to) const;
  /// The cached travel-time matrix, bound on first call (planners call this
  /// once per plan).  The matrix snapshots `stops`: after changing them,
  /// install a matrix again (set_travel_matrix) before the next plan.  A
  /// matrix whose size no longer matches `stops` throws PreconditionError
  /// here instead of being read past its end.  Lazy init and row fill are
  /// NOT thread-safe; every runner thread owns its instances, which is the
  /// repo-wide convention.
  const TravelMatrix& travel_matrix() const;
  /// Shares an externally owned matrix without copying it — the zero-alloc
  /// replan path: the caller rebuild()s its arena matrix in place and
  /// re-installs the same shared_ptr (a refcount bump, no allocation).
  /// Must cover `stops`.
  void set_travel_matrix(std::shared_ptr<const TravelMatrix> matrix);
  /// Throws ConfigError on inconsistent data (closed-before-open windows,
  /// non-positive speed, negative service times).
  void validate() const;

 private:
  mutable std::shared_ptr<const TravelMatrix> matrix_;
};

/// Feasibility tolerance on window-close comparisons [s]; shared by the
/// evaluators and the planners' incremental insertion checks so a schedule
/// accepted by one is never rejected by the other over rounding.
inline constexpr Seconds kWindowEpsilon = 1e-9;

/// One scheduled visit of an evaluated plan.
struct Visit {
  std::size_t stop_index = 0;
  Seconds arrival = 0.0;        ///< when the MC reaches the stop
  Seconds service_start = 0.0;  ///< max(arrival, window_open)
  Seconds departure = 0.0;      ///< service_start + service_time
};

/// An evaluated route through a TIDE instance.
struct Plan {
  std::vector<Visit> visits;
  double utility = 0.0;          ///< total utility of non-key stops served
  std::size_t keys_scheduled = 0;
  std::size_t keys_total = 0;
  Seconds completion_time = 0.0;

  bool covers_all_keys() const { return keys_scheduled == keys_total; }
};

/// Walks `order` (stop indices) through the instance: arrivals, in-window
/// waits, departures.  Returns nullopt if any stop's service would start
/// after its window closes.  `keys_total` is filled from the instance (not
/// from the order), so a feasible order that omits keys yields a Plan with
/// covers_all_keys() == false.
std::optional<Plan> evaluate_order(const TideInstance& instance,
                                   std::span<const std::size_t> order);

/// Allocation-free variant: fills `out` in place (reusing its visit storage)
/// and returns false instead of nullopt on an infeasible order.  `out` is
/// cleared in both cases.
bool evaluate_order_into(const TideInstance& instance,
                         std::span<const std::size_t> order, Plan& out);

/// Like evaluate_order but drops infeasible stops instead of failing:
/// greedily keeps each stop whose window can still be met.  Used by the
/// baseline planners that ignore deadlines when choosing their order.
Plan evaluate_order_dropping(const TideInstance& instance,
                             std::span<const std::size_t> order);

}  // namespace wrsn::csa
