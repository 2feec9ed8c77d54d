#include "core/celf_fill.hpp"

#include <algorithm>
#include <limits>

namespace wrsn::csa {

void CelfFill::clear(std::size_t stops) {
  candidates_.clear();
  candidates_.reserve(stops);
}

bool CelfFill::add(const RouteState& route, std::size_t stop) {
  const TideInstance& instance = route.instance();
  const Stop& s = instance.stops[stop];
  if (instance.start_time + route.from_start(stop) >
      s.window_close + kWindowEpsilon + 1e-6) {
    return false;
  }
  candidates_.push_back({stop, s.utility, false});
  return true;
}

void CelfFill::run(RouteState& route, std::uint64_t& insertions_tried) {
  // Utility-descending traversal order (ties: ascending stop index) is what
  // makes the CELF cutoff valid; it does not affect selection, which has
  // its own total-order tie-break below.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const CelfCandidate& a, const CelfCandidate& b) {
              return a.utility != b.utility ? a.utility > b.utility
                                            : a.stop < b.stop;
            });
  // A local tally: a write into the caller's accumulator per scan step
  // would dominate the loop.
  std::uint64_t tried = 0;
  while (true) {
    double best_score = -std::numeric_limits<double>::infinity();
    CelfCandidate* best = nullptr;
    std::size_t best_pos = 0;
    for (CelfCandidate& c : candidates_) {
      if (c.inserted) continue;
      if (best != nullptr && c.utility < best_score) break;  // CELF cutoff
      ++tried;
      const auto bi = route.best_insertion(c.stop);
      if (!bi) continue;
      const double score = c.utility / std::max(bi->second, 1.0);
      if (best == nullptr || score > best_score ||
          (score == best_score && c.stop < best->stop)) {
        best = &c;
        best_score = score;
        best_pos = bi->first;
      }
    }
    if (best == nullptr) break;
    route.insert(best->stop, best_pos);
    best->inserted = true;
  }
  insertions_tried += tried;
}

}  // namespace wrsn::csa
