#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace uucs::stats {

/// Kaplan–Meier product-limit estimator over right-censored observations.
///
/// The discomfort data is textbook right-censored survival data in the
/// *contention* dimension: a run that ends in discomfort at level L is an
/// event at L; a run whose testcase exhausted observed the user surviving
/// to the testcase's maximum level (censored at x_max). The naive
/// discomfort CDF (Figs 10-12) divides by all runs regardless of each run's
/// censoring level, which biases the aggregate when tasks explore different
/// ramp maxima (Word's CPU ramp reaches 7.0, Quake's only 1.3). The KM
/// estimator handles exactly this.
///
/// Observations are stored as (level, event, count) entries, so a caller
/// holding per-level counts (the streaming accumulator) builds the
/// estimator in O(distinct levels); n single adds and one add of n give
/// bit-identical curves.
class KaplanMeier {
 public:
  /// Records a discomfort event at `level`.
  void add_event(double level) { add_events(level, 1); }

  /// Records `n` discomfort events at `level` (n = 0 records nothing).
  void add_events(double level, std::size_t n);

  /// Records a run censored at `level` (survived to there, then the
  /// testcase ended).
  void add_censored(double level) { add_censored(level, 1); }

  /// Records `n` runs censored at `level` (n = 0 records nothing).
  void add_censored(double level, std::size_t n);

  std::size_t event_count() const { return events_; }
  std::size_t censored_count() const { return censored_; }
  std::size_t size() const { return events_ + censored_; }

  /// Estimated probability of discomfort at contention <= x:
  /// 1 - prod_{levels l <= x} (1 - d_l / n_l).
  double discomfort_probability(double x) const;

  /// Smallest event level where discomfort probability reaches `q`;
  /// nullopt if the curve never gets there (data too censored).
  std::optional<double> level_at_probability(double q) const;

  /// Step-curve points (level, discomfort probability) at each event level.
  std::vector<std::pair<double, double>> curve_points() const;

 private:
  struct Entry {
    double level;
    std::size_t count;
    bool event;
  };
  void add(double level, std::size_t n, bool event);

  std::vector<Entry> entries_;
  std::size_t events_ = 0;
  std::size_t censored_ = 0;
};

}  // namespace uucs::stats
