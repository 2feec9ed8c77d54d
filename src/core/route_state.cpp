#include "core/route_state.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace wrsn::csa {
namespace {

constexpr Seconds kInfSlack = std::numeric_limits<Seconds>::infinity();

}  // namespace

RouteState::RouteState(const TideInstance& instance) { bind(instance); }

void RouteState::require_bound(std::size_t stop) const {
  // A stop past the binding has no start-row cell, and an instance that
  // grew since bind() would overrun the row buffers and filled_.
  WRSN_REQUIRE(stop < start_row_.size() &&
                   inst_->stops.size() == start_row_.size(),
               "stop count changed since bind(); bind() again");
}

void RouteState::bind(const TideInstance& instance) {
  inst_ = &instance;
  const std::size_t n = instance.stops.size();
  start_row_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    start_row_[i] =
        geom::distance(instance.start_position, instance.stops[i].position) /
        instance.speed;
  }
  travel_cells_ += n;
  filled_.assign(n, 0);
  if (n > row_width_) {
    // Every buffer is too narrow now, and no cached row pointer survives
    // this bind.
    pool_.clear();
    row_width_ = n;
  }
  order_.clear();
  rows_.clear();
  from_.clear();
  arrival_.clear();
  start_.clear();
  depart_.clear();
  slack_.assign(1, kInfSlack);
  waitsum_.assign(1, 0.0);
}

void RouteState::reserve(std::size_t stops) {
  order_.reserve(stops);
  rows_.reserve(stops);
  from_.reserve(stops);
  arrival_.reserve(stops);
  start_.reserve(stops);
  depart_.reserve(stops);
  slack_.reserve(stops + 1);
  waitsum_.reserve(stops + 1);
}

void RouteState::fill_column(std::size_t stop) {
  const std::size_t end = from_.size();
  std::size_t k = filled_[stop];
  if (k == end) return;
  travel_cells_ += end - k;
  const geom::Vec2 to = inst_->stops[stop].position;
  const MetersPerSecond speed = inst_->speed;
  for (; k < end; ++k) {
    pool_[k][stop] = geom::distance(from_[k], to) / speed;
  }
  filled_[stop] = end;
}

Seconds RouteState::leg(std::size_t pos, std::size_t stop) {
  require_bound(stop);
  WRSN_ASSERT(pos < order_.size());
  fill_column(stop);
  return rows_[pos][stop];
}

std::optional<Seconds> RouteState::try_insert(std::size_t stop,
                                              std::size_t pos) {
  require_bound(stop);
  WRSN_ASSERT(pos <= order_.size());
  fill_column(stop);
  const Stop& s = inst_->stops[stop];

  const Seconds prev_depart = pos == 0 ? inst_->start_time : depart_[pos - 1];
  // Legs are read from the route stops' rows (travel times are symmetric),
  // so only stops already on the route ever have a row; the column
  // filled above holds both legs.
  const Seconds leg_in = pos == 0 ? from_start(stop) : rows_[pos - 1][stop];
  const Seconds arrival = prev_depart + leg_in;
  const Seconds start = std::max(arrival, s.window_open);
  if (start > s.window_close + kWindowEpsilon) return std::nullopt;

  const Seconds depart = start + s.service_time;
  if (pos == order_.size()) return depart - completion();

  // Arrival delay imposed on the first downstream stop (>= 0 up to rounding
  // by the triangle inequality).  Feasible iff the tail can absorb it.
  const Seconds delay =
      depart + rows_[pos][stop] - arrival_[pos];
  if (delay > slack_[pos]) return std::nullopt;

  // Waiting along the tail soaks up the delay; whatever survives the suffix
  // of waits reaches the completion time.  Residuals within the feasibility
  // epsilon count as fully absorbed, mirroring the naive walk's early exit.
  const Seconds residual = delay - waitsum_[pos];
  return residual > kWindowEpsilon ? residual : 0.0;
}

std::optional<std::pair<std::size_t, Seconds>> RouteState::best_insertion(
    std::size_t stop) {
  // Flattened position scan: one pass with try_insert's exact arithmetic,
  // but the per-position invariants hoisted out of the loop — the stop's
  // window/service fields, a running previous-departure instead of
  // re-branching on pos == 0, and the leg into position pos + 1 carried
  // over from position pos's leg out (both are rows_[pos][stop]).  Legs
  // come from the route stops' rows, never the candidate's, so a scan
  // needs no row for a stop that is not on the route, only its column in
  // the route stops' rows, brought up to date first.  Every
  // candidate delta is >= 0 (appending never shortens the route; interior
  // deltas are clamped residuals), so a delta of exactly 0.0 cannot be
  // beaten and, with the first-strict-min tie-break, cannot even be tied
  // away from — scan over.
  require_bound(stop);
  fill_column(stop);
  const Stop& s = inst_->stops[stop];
  const std::size_t n = order_.size();
  const Seconds open = s.window_open;
  const Seconds close_eps = s.window_close + kWindowEpsilon;
  const Seconds service = s.service_time;

  // Positions whose predecessor already departs past the window close are
  // all rejected by the window check below (start >= prev_depart >
  // close_eps); departures are nondecreasing, so they form a suffix of the
  // position range — skip it outright instead of rejecting one by one.
  const std::size_t pos_end = std::min(
      n, static_cast<std::size_t>(
             std::upper_bound(depart_.begin(), depart_.end(), close_eps) -
             depart_.begin()));

  std::size_t best_pos = n + 1;
  Seconds best_delta = kInfSlack;
  Seconds prev_depart = inst_->start_time;
  Seconds leg_in = from_start(stop);
  for (std::size_t pos = 0; pos <= pos_end; ++pos) {
    const Seconds arrival = prev_depart + leg_in;
    const Seconds start = std::max(arrival, open);
    if (pos == n) {
      if (start <= close_eps) {
        const Seconds delta = start + service - completion();
        if (delta < best_delta) {
          best_delta = delta;
          best_pos = pos;
        }
      }
      break;  // last position either way
    }
    const Seconds leg_out = rows_[pos][stop];
    if (start <= close_eps) {
      const Seconds delay = start + service + leg_out - arrival_[pos];
      if (delay <= slack_[pos]) {
        const Seconds residual = delay - waitsum_[pos];
        const Seconds delta = residual > kWindowEpsilon ? residual : 0.0;
        if (delta < best_delta) {
          best_delta = delta;
          best_pos = pos;
          if (delta == 0.0) break;
        }
      }
    }
    prev_depart = depart_[pos];
    leg_in = leg_out;
  }
  if (best_pos > n) return std::nullopt;
  return std::make_pair(best_pos, best_delta);
}

void RouteState::insert(std::size_t stop, std::size_t pos) {
  require_bound(stop);
  fill_column(stop);  // the stop's cells in the existing rows
  WRSN_ASSERT(try_insert(stop, pos).has_value());
  const std::size_t k = order_.size();
  if (k == pool_.size()) {
    pool_.push_back(std::make_unique_for_overwrite<Seconds[]>(row_width_));
  }
  Seconds* const row = pool_[k].get();
  const Stop* const stops = inst_->stops.data();
  const geom::Vec2 from = stops[stop].position;
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos), stop);
  rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(pos), row);
  from_.push_back(from);
  // The new row's cells for the route stops, the stop itself included:
  // every route stop's column is complete again.
  const MetersPerSecond speed = inst_->speed;
  for (const std::size_t j : order_) {
    row[j] = geom::distance(from, stops[j].position) / speed;
    filled_[j] = k + 1;
  }
  travel_cells_ += order_.size();
  rebuild();
}

Plan RouteState::to_plan() const {
  const auto plan = evaluate_order(*inst_, order_);
  WRSN_ASSERT(plan.has_value());
  return *plan;
}

void RouteState::to_plan_into(Plan& out) const {
  const bool ok = evaluate_order_into(*inst_, order_, out);
  WRSN_ASSERT(ok);
  (void)ok;
}

void RouteState::rebuild() {
  const std::size_t n = order_.size();
  arrival_.resize(n);
  start_.resize(n);
  depart_.resize(n);
  slack_.resize(n + 1);
  waitsum_.resize(n + 1);

  Seconds clock = inst_->start_time;
  for (std::size_t k = 0; k < n; ++k) {
    const Stop& s = inst_->stops[order_[k]];
    const Seconds leg =
        k == 0 ? from_start(order_[0]) : rows_[k - 1][order_[k]];
    arrival_[k] = clock + leg;
    start_[k] = std::max(arrival_[k], s.window_open);
    WRSN_ASSERT(start_[k] <= s.window_close + kWindowEpsilon);
    depart_[k] = start_[k] + s.service_time;
    clock = depart_[k];
  }

  // Backward pass.  Two thresholds per suffix, matching the naive tail walk
  // stop by stop:
  //   slack_[k]: delay bound when stop k is the FIRST downstream stop (its
  //     window is checked before any absorbed-delay early exit can trigger);
  //   interior[k]: bound for stops deeper in the walk, where a delay that
  //     has shrunk to <= kWindowEpsilon exits early as "absorbed" before
  //     the stop's window is consulted — hence the max(..., epsilon).
  slack_[n] = kInfSlack;
  waitsum_[n] = 0.0;
  Seconds interior = kInfSlack;
  for (std::size_t k = n; k-- > 0;) {
    const Stop& s = inst_->stops[order_[k]];
    const Seconds wait = start_[k] - arrival_[k];
    const Seconds margin = s.window_close + kWindowEpsilon - start_[k];
    waitsum_[k] = wait + waitsum_[k + 1];
    slack_[k] = std::min(wait + margin, wait + interior);
    interior =
        std::min(std::max(wait + margin, kWindowEpsilon), wait + interior);
  }
}

}  // namespace wrsn::csa
