#include "core/tide.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace wrsn::csa {

std::size_t TideInstance::key_count() const {
  return static_cast<std::size_t>(
      std::count_if(stops.begin(), stops.end(),
                    [](const Stop& s) { return s.is_key; }));
}

Seconds TideInstance::travel_time(geom::Vec2 from, geom::Vec2 to) const {
  return geom::distance(from, to) / speed;
}

void TideInstance::validate() const {
  if (speed <= 0.0) throw ConfigError("TIDE speed must be > 0");
  for (const Stop& stop : stops) {
    if (stop.window_close < stop.window_open) {
      throw ConfigError("TIDE stop window closes before it opens");
    }
    if (stop.service_time < 0.0) {
      throw ConfigError("TIDE stop has negative service time");
    }
    if (stop.utility < 0.0) {
      throw ConfigError("TIDE stop has negative utility");
    }
  }
}

std::optional<Plan> evaluate_order(const TideInstance& instance,
                                   std::span<const std::size_t> order) {
  Plan plan;
  if (!evaluate_order_into(instance, order, plan)) return std::nullopt;
  return plan;
}

bool evaluate_order_into(const TideInstance& instance,
                         std::span<const std::size_t> order, Plan& out) {
  out.visits.clear();
  out.utility = 0.0;
  out.keys_scheduled = 0;
  out.keys_total = instance.key_count();
  out.completion_time = instance.start_time;

  geom::Vec2 pos = instance.start_position;
  Seconds clock = instance.start_time;
  for (const std::size_t idx : order) {
    WRSN_REQUIRE(idx < instance.stops.size(), "stop index out of range");
    const Stop& stop = instance.stops[idx];
    const Seconds arrival = clock + instance.travel_time(pos, stop.position);
    const Seconds start = std::max(arrival, stop.window_open);
    if (start > stop.window_close + kWindowEpsilon) {
      out.visits.clear();
      return false;
    }

    Visit visit;
    visit.stop_index = idx;
    visit.arrival = arrival;
    visit.service_start = start;
    visit.departure = start + stop.service_time;
    out.visits.push_back(visit);

    if (stop.is_key) {
      ++out.keys_scheduled;
    } else {
      out.utility += stop.utility;
    }
    clock = visit.departure;
    pos = stop.position;
  }
  out.completion_time = clock;
  return true;
}

Plan evaluate_order_dropping(const TideInstance& instance,
                             std::span<const std::size_t> order) {
  Plan plan;
  plan.keys_total = instance.key_count();

  geom::Vec2 pos = instance.start_position;
  Seconds clock = instance.start_time;
  for (const std::size_t idx : order) {
    WRSN_REQUIRE(idx < instance.stops.size(), "stop index out of range");
    const Stop& stop = instance.stops[idx];
    const Seconds arrival = clock + instance.travel_time(pos, stop.position);
    const Seconds start = std::max(arrival, stop.window_open);
    if (start > stop.window_close + kWindowEpsilon) {
      continue;  // window missed: skip the stop
    }

    Visit visit;
    visit.stop_index = idx;
    visit.arrival = arrival;
    visit.service_start = start;
    visit.departure = start + stop.service_time;
    plan.visits.push_back(visit);

    if (stop.is_key) {
      ++plan.keys_scheduled;
    } else {
      plan.utility += stop.utility;
    }
    clock = visit.departure;
    pos = stop.position;
  }
  plan.completion_time = clock;
  return plan;
}

}  // namespace wrsn::csa
