#include "stats/kaplan_meier.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace uucs::stats {

void KaplanMeier::add(double level, std::size_t n, bool event) {
  UUCS_CHECK_MSG(level >= 0, "level must be >= 0");
  if (n == 0) return;
  entries_.push_back({level, n, event});
  (event ? events_ : censored_) += n;
}

void KaplanMeier::add_events(double level, std::size_t n) { add(level, n, true); }

void KaplanMeier::add_censored(double level, std::size_t n) {
  add(level, n, false);
}

std::vector<std::pair<double, double>> KaplanMeier::curve_points() const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    if (a.level != b.level) return a.level < b.level;
    // Events before censorings at the same level: the censored runs were
    // still at risk when the event occurred.
    return a.event && !b.event;
  });

  std::vector<std::pair<double, double>> points;
  double survival = 1.0;
  std::size_t at_risk = size();
  std::size_t i = 0;
  while (i < sorted.size()) {
    const double level = sorted[i].level;
    std::size_t events_here = 0;
    std::size_t total_here = 0;
    while (i < sorted.size() && sorted[i].level == level) {
      if (sorted[i].event) events_here += sorted[i].count;
      total_here += sorted[i].count;
      ++i;
    }
    if (events_here > 0) {
      survival *= 1.0 - static_cast<double>(events_here) /
                            static_cast<double>(at_risk);
      points.emplace_back(level, 1.0 - survival);
    }
    at_risk -= total_here;
  }
  return points;
}

double KaplanMeier::discomfort_probability(double x) const {
  double prob = 0.0;
  for (const auto& [level, p] : curve_points()) {
    if (level > x) break;
    prob = p;
  }
  return prob;
}

std::optional<double> KaplanMeier::level_at_probability(double q) const {
  UUCS_CHECK_MSG(q > 0 && q <= 1, "probability must be in (0,1]");
  for (const auto& [level, p] : curve_points()) {
    if (p >= q) return level;
  }
  return std::nullopt;
}

}  // namespace uucs::stats
