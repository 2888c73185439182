#include "analysis/metrics.hpp"

#include "util/rng.hpp"

namespace uucs::analysis {

std::optional<uucs::Resource> run_resource(const uucs::RunRecord& run) {
  return run.single_resource();
}

bool is_blank_run(const uucs::RunRecord& run) {
  return uucs::is_blank_testcase(run.testcase_id);
}

bool is_ramp_run(const uucs::RunRecord& run, uucs::Resource r) {
  return uucs::is_ramp_testcase(run.testcase_id, r);
}

bool is_step_run(const uucs::RunRecord& run, uucs::Resource r) {
  return uucs::is_step_testcase(run.testcase_id, r);
}

namespace {

/// Host-faulted runs (degraded/failed/hung/aborted) did not deliver their
/// contention schedule faithfully; mixing them into the comfort estimates
/// would blur "the user was discomforted" with "the host was sick".
bool is_comfort_ramp(const uucs::RunIndex::Row& row, uucs::Resource r) {
  return !row.host_fault && row.ramp(r);
}

/// Calls fn(discomforted, level) for each of select_ramp_runs(results,
/// task, r) that has a level for `r`, in record order, read off the run
/// index — exactly what build_discomfort_cdf / build_km consume.
template <class Fn>
void for_each_ramp_level(const uucs::ResultStore& results, const std::string& task,
                         uucs::Resource r, Fn&& fn) {
  const auto ri = static_cast<std::size_t>(r);
  results.index().for_each(task, [&](std::size_t, const uucs::RunIndex::Row& row) {
    if (is_comfort_ramp(row, r) && row.has_level(r)) fn(row.discomforted, row.level[ri]);
  });
}

uucs::stats::DiscomfortCdf ramp_cdf(const uucs::ResultStore& results,
                                    const std::string& task, uucs::Resource r) {
  uucs::stats::DiscomfortCdf cdf;
  for_each_ramp_level(results, task, r, [&](bool discomforted, double level) {
    if (discomforted) {
      cdf.add_discomfort(level);
    } else {
      cdf.add_exhausted();
    }
  });
  return cdf;
}

}  // namespace

uucs::stats::DiscomfortCdf build_discomfort_cdf(
    const std::vector<const uucs::RunRecord*>& runs, uucs::Resource r) {
  uucs::stats::DiscomfortCdf cdf;
  for (const auto* run : runs) {
    const auto level = run->level_at_feedback(r);
    if (!level) continue;
    if (run->discomforted) {
      cdf.add_discomfort(*level);
    } else {
      cdf.add_exhausted();
    }
  }
  return cdf;
}

CellMetrics metrics_from_cdf(const uucs::stats::DiscomfortCdf& cdf) {
  CellMetrics m;
  m.df_count = cdf.discomfort_count();
  m.ex_count = cdf.exhausted_count();
  m.fd = cdf.fraction_discomforted();
  m.c05 = cdf.level_at_fraction(0.05);
  m.ca = cdf.mean_discomfort_level(0.95);
  return m;
}

std::vector<const uucs::RunRecord*> select_ramp_runs(const uucs::ResultStore& results,
                                                     const std::string& task,
                                                     uucs::Resource r) {
  std::vector<const uucs::RunRecord*> out;
  const auto& records = results.records();
  results.index().for_each(task, [&](std::size_t i, const uucs::RunIndex::Row& row) {
    if (is_comfort_ramp(row, r)) out.push_back(&records[i]);
  });
  return out;
}

CellMetrics compute_cell(const uucs::ResultStore& results, const std::string& task,
                         uucs::Resource r) {
  return metrics_from_cdf(ramp_cdf(results, task, r));
}

uucs::stats::DiscomfortCdf aggregate_cdf(const uucs::ResultStore& results,
                                         uucs::Resource r) {
  return ramp_cdf(results, "", r);
}

uucs::stats::KaplanMeier build_km(const std::vector<const uucs::RunRecord*>& runs,
                                  uucs::Resource r) {
  uucs::stats::KaplanMeier km;
  for (const auto* run : runs) {
    const auto level = run->level_at_feedback(r);
    if (!level) continue;
    if (run->discomforted) {
      km.add_event(*level);
    } else {
      km.add_censored(*level);
    }
  }
  return km;
}

uucs::stats::KaplanMeier aggregate_km(const uucs::ResultStore& results,
                                      uucs::Resource r) {
  uucs::stats::KaplanMeier km;
  for_each_ramp_level(results, "", r, [&](bool discomforted, double level) {
    if (discomforted) {
      km.add_event(level);
    } else {
      km.add_censored(level);
    }
  });
  return km;
}

LevelCi bootstrap_level_ci(const uucs::stats::DiscomfortCdf& cdf, double q,
                           double confidence, std::size_t resamples,
                           std::uint64_t seed) {
  LevelCi out;
  const auto total = cdf.run_count();
  if (total == 0) return out;
  const auto& levels = cdf.discomfort_levels();

  const auto point = cdf.level_at_fraction(q);
  if (point) out.estimate = *point;

  uucs::Rng rng(seed);
  std::vector<double> replicates;
  replicates.reserve(resamples);
  for (std::size_t rep = 0; rep < resamples; ++rep) {
    uucs::stats::DiscomfortCdf sample;
    for (std::size_t i = 0; i < total; ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
      if (pick < levels.size()) {
        sample.add_discomfort(levels[pick]);
      } else {
        sample.add_exhausted();
      }
    }
    const auto level = sample.level_at_fraction(q);
    if (level) replicates.push_back(*level);
  }
  out.coverage = static_cast<double>(replicates.size()) /
                 static_cast<double>(resamples);
  if (replicates.size() < 10 || !point) return out;
  const double alpha = 1.0 - confidence;
  out.lo = uucs::stats::quantile(replicates, alpha / 2.0);
  out.hi = uucs::stats::quantile(replicates, 1.0 - alpha / 2.0);
  out.valid = out.coverage > 0.9;
  return out;
}

}  // namespace uucs::analysis
