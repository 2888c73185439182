#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/task.hpp"
#include "stats/ecdf.hpp"
#include "stats/kaplan_meier.hpp"
#include "testcase/run_record.hpp"

namespace uucs::analysis {

/// The single resource a run exercised (RunRecord::single_resource);
/// nullopt for blank, multi-resource or non-canonically keyed runs (the
/// controlled study uses single-resource testcases only).
std::optional<uucs::Resource> run_resource(const uucs::RunRecord& run);

/// True if the run executed a blank testcase (uucs::is_blank_testcase).
bool is_blank_run(const uucs::RunRecord& run);

/// True if the run's testcase was a ramp / step on `r`
/// (uucs::is_ramp_testcase / is_step_testcase).
bool is_ramp_run(const uucs::RunRecord& run, uucs::Resource r);
bool is_step_run(const uucs::RunRecord& run, uucs::Resource r);

/// Builds the paper's discomfort CDF from runs: each discomforted run
/// contributes its contention level at feedback, each exhausted run is
/// censored. Runs without a level for `r` are skipped.
uucs::stats::DiscomfortCdf build_discomfort_cdf(
    const std::vector<const uucs::RunRecord*>& runs, uucs::Resource r);

/// The paper's three per-cell metrics (§3.3.1): f_d, c_0.05 and c_a.
struct CellMetrics {
  std::size_t df_count = 0;
  std::size_t ex_count = 0;
  double fd = 0.0;                                ///< Fig 14
  std::optional<double> c05;                      ///< Fig 15 ('*' when absent)
  std::optional<uucs::stats::MeanCi> ca;          ///< Fig 16 with 95% CI
};

CellMetrics metrics_from_cdf(const uucs::stats::DiscomfortCdf& cdf);

/// Ramp runs for (task, resource) drawn from a result set; `task` empty
/// selects all tasks (the aggregated Figs 10-12).
std::vector<const uucs::RunRecord*> select_ramp_runs(const uucs::ResultStore& results,
                                                     const std::string& task,
                                                     uucs::Resource r);

/// Per-cell metrics for (task, resource) over ramp runs.
CellMetrics compute_cell(const uucs::ResultStore& results, const std::string& task,
                         uucs::Resource r);

/// Aggregated (all-task) CDF for `r` over ramp runs — Figs 10-12.
uucs::stats::DiscomfortCdf aggregate_cdf(const uucs::ResultStore& results,
                                         uucs::Resource r);

/// Kaplan–Meier estimator over the same runs: discomforted runs are events
/// at their feedback level; exhausted runs are right-censored at the last
/// level they reached. This corrects the differential-censoring bias of the
/// naive aggregate CDF when tasks explore different ramp maxima (Word's CPU
/// ramp reaches 7.0 while Quake's stops at 1.3) — see `bench_km_estimator`.
uucs::stats::KaplanMeier build_km(const std::vector<const uucs::RunRecord*>& runs,
                                  uucs::Resource r);

/// Aggregated (all-task) KM estimator for `r` over ramp runs.
uucs::stats::KaplanMeier aggregate_km(const uucs::ResultStore& results,
                                      uucs::Resource r);

/// Percentile-bootstrap confidence interval for a CDF level metric such as
/// c_0.05: runs (discomfort levels + censored count) are resampled with
/// replacement and the level recomputed per replicate. `coverage` reports
/// the fraction of replicates where the level existed (fd >= q); the
/// interval is valid when that fraction is high.
struct LevelCi {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double coverage = 0.0;
  bool valid = false;
};
LevelCi bootstrap_level_ci(const uucs::stats::DiscomfortCdf& cdf, double q = 0.05,
                           double confidence = 0.95, std::size_t resamples = 1000,
                           std::uint64_t seed = 17);

}  // namespace uucs::analysis
