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
#include <cstdint>
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
/// row and bumps a generation stamp; row i is computed the first time it is
/// read in the current generation.  Insertion planners only read the rows of
/// stops already on the route (a leg next to a route stop is that stop's
/// row, by symmetry), so a plan touches O(route * n) cells, not O(n^2).
/// Every cell is geom::distance(a, b) / speed — bit-identical to
/// TideInstance::travel_time on the same endpoints, in either direction
/// (hypot is sign-symmetric).  The lazy fill mutates through const
/// accessors: one thread at a time, like every planner arena.
class TravelMatrix {
 public:
  TravelMatrix() = default;
  static TravelMatrix build(const TideInstance& instance);

  /// In-place variant of build(): rebinds this matrix to `instance`,
  /// reusing the existing storage (allocation-free once capacity covers the
  /// stop count).  Storage only grows and is never cleared; the generation
  /// bump alone invalidates every previously filled row.
  void rebuild(const TideInstance& instance);

  std::size_t size() const { return n_; }
  /// Travel time from the instance start position to stop `i`.
  Seconds from_start(std::size_t i) const { return start_row_[i]; }
  /// Travel time between stops `i` and `j` (symmetric); fills row i.
  Seconds between(std::size_t i, std::size_t j) const { return row(i)[j]; }
  /// Row `i` as a flat lane: row(i)[j] == between(i, j).  The pointer stays
  /// valid until the next rebuild().
  const Seconds* row(std::size_t i) const {
    if (row_gen_[i] != generation_) fill_row(i);
    return cells_.get() + i * n_;
  }
  /// Rows materialised since the last rebuild().
  std::size_t rows_filled() const { return rows_filled_; }

 private:
  void fill_row(std::size_t i) const;

  std::size_t n_ = 0;
  MetersPerSecond speed_ = 1.0;
  std::uint64_t generation_ = 0;
  std::vector<geom::Vec2> positions_;
  std::vector<Seconds> start_row_;
  /// n_ x n_ row-major cells; only the rows stamped with the current
  /// generation hold values.  Raw (uninitialised) storage: a row that is
  /// never read is never written, not even zero-filled.
  std::unique_ptr<Seconds[]> cells_;
  std::size_t cell_capacity_ = 0;
  mutable std::vector<std::uint64_t> row_gen_;
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
  /// once per plan).  Lazy init and row fill are NOT thread-safe; every
  /// runner thread owns its instances, which is the repo-wide convention.
  const TravelMatrix& travel_matrix() const;
  /// Installs a pre-built matrix.  Must cover `stops`.
  void set_travel_matrix(TravelMatrix matrix);
  /// Shares an externally owned matrix without copying it — the zero-alloc
  /// replan path: the caller rebuild()s its arena matrix in place and
  /// re-installs the same shared_ptr (a refcount bump, no allocation).
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
