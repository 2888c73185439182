#include "analysis/streaming.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/breakdown.hpp"
#include "analysis/metrics.hpp"
#include "analysis/offsets.hpp"
#include "study/controlled_study.hpp"
#include "study/internet_study.hpp"
#include "util/error.hpp"

namespace uucs::study {
namespace {

using analysis::BreakdownScope;
using analysis::StudyAccumulator;

const PopulationParams& params() {
  static const PopulationParams p = calibrate_population();
  return p;
}

ControlledStudyConfig small_config() {
  ControlledStudyConfig cfg;
  cfg.participants = 6;
  cfg.seed = 512;
  cfg.jobs = 1;
  return cfg;
}

/// The in-memory reference run every equivalence test compares against.
const ControlledStudyOutput& mem_run() {
  static const ControlledStudyOutput out =
      run_controlled_study(small_config(), params());
  return out;
}

StudyAccumulator accumulate(const ResultStore& results) {
  StudyAccumulator acc;
  for (const RunRecord& rec : results.records()) acc.add(rec);
  return acc;
}

void expect_breakdown_eq(const analysis::RunBreakdown& a,
                         const analysis::RunBreakdown& b) {
  EXPECT_EQ(a.nonblank_discomforted, b.nonblank_discomforted);
  EXPECT_EQ(a.nonblank_exhausted, b.nonblank_exhausted);
  EXPECT_EQ(a.blank_discomforted, b.blank_discomforted);
  EXPECT_EQ(a.blank_exhausted, b.blank_exhausted);
}

TEST(StudyAccumulator, BreakdownMatchesAnalysis) {
  const StudyAccumulator acc = accumulate(mem_run().results);
  EXPECT_EQ(acc.runs(), mem_run().results.size());
  for (const BreakdownScope scope :
       {BreakdownScope::kCpuAndBlank, BreakdownScope::kAllRuns}) {
    for (std::size_t i = 0; i < sim::kTaskCount; ++i) {
      expect_breakdown_eq(
          acc.breakdown(i, scope),
          analysis::compute_breakdown(mem_run().results,
                                      sim::task_name(sim::kAllTasks[i]), scope));
    }
    expect_breakdown_eq(acc.breakdown_total(scope),
                        analysis::compute_breakdown(mem_run().results, "", scope));
  }
}

TEST(StudyAccumulator, SingleResourceRuleMatchesAnalysisOnEveryPath) {
  // Fig 9's CPU class is the exact canonical level key everywhere: runs
  // keyed "CPU", " cpu", "mem" or "gpu" are "other" runs in the in-memory
  // breakdown and on both accumulator paths, and nothing throws. A
  // canonical trail longer than FlatRunRecord::kTrailMax, which the flat
  // layout spills, is still a CPU run.
  StringInterner pool;
  ResultStore store;
  const std::vector<double> short_trail = {0.5, 1.0};
  const std::vector<double> long_trail = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  std::size_t serial = 0;
  const auto add = [&](const std::string& key, const std::vector<double>& trail,
                       const std::string& task, bool discomforted) {
    RunRecord rec;
    rec.run_id = "run-" + std::to_string(serial++);
    rec.task = task;
    rec.testcase_id = "cpu-ramp-x2-t120";
    rec.discomforted = discomforted;
    rec.offset_s = 10.0;
    rec.last_levels[key] = trail;
    store.add(std::move(rec));
  };
  for (const std::string key : {"cpu", "CPU", " cpu", "mem", "gpu"}) {
    add(key, short_trail, "word", true);
    add(key, short_trail, "quake", false);
  }
  add("cpu", long_trail, "ie", true);

  StudyAccumulator from_records(pool);
  StudyAccumulator from_flat(pool);
  for (const RunRecord& rec : store.records()) {
    EXPECT_NO_THROW(from_records.add(rec));
    EXPECT_NO_THROW(from_flat.add(FlatRunRecord::from_run_record(rec, pool)));
  }
  for (const BreakdownScope scope :
       {BreakdownScope::kCpuAndBlank, BreakdownScope::kAllRuns}) {
    for (std::size_t i = 0; i < sim::kTaskCount; ++i) {
      const std::string& task = sim::task_name(sim::kAllTasks[i]);
      analysis::RunBreakdown want;
      ASSERT_NO_THROW(want = analysis::compute_breakdown(store, task, scope)) << task;
      expect_breakdown_eq(from_records.breakdown(i, scope), want);
      expect_breakdown_eq(from_flat.breakdown(i, scope), want);
    }
    const analysis::RunBreakdown total = analysis::compute_breakdown(store, "", scope);
    expect_breakdown_eq(from_records.breakdown_total(scope), total);
    expect_breakdown_eq(from_flat.breakdown_total(scope), total);
  }
  const analysis::RunBreakdown cpu =
      analysis::compute_breakdown(store, "", BreakdownScope::kCpuAndBlank);
  EXPECT_EQ(cpu.nonblank_discomforted, 2u);  // word "cpu", ie long "cpu"
  EXPECT_EQ(cpu.nonblank_exhausted, 1u);     // quake "cpu"
}

TEST(StudyAccumulator, CellMetricsMatchAnalysis) {
  const StudyAccumulator acc = accumulate(mem_run().results);
  for (std::size_t ti = 0; ti <= StudyAccumulator::kAllTasks; ++ti) {
    const std::string task =
        ti == StudyAccumulator::kAllTasks ? "" : sim::task_name(sim::kAllTasks[ti]);
    for (std::size_t ri = 0; ri < kStudyResources.size(); ++ri) {
      const analysis::CellMetrics want =
          analysis::compute_cell(mem_run().results, task, kStudyResources[ri]);
      const analysis::CellMetrics got = acc.cell(ti, ri);
      EXPECT_EQ(got.df_count, want.df_count) << task << "/" << ri;
      EXPECT_EQ(got.ex_count, want.ex_count) << task << "/" << ri;
      EXPECT_DOUBLE_EQ(got.fd, want.fd) << task << "/" << ri;
      ASSERT_EQ(got.c05.has_value(), want.c05.has_value()) << task << "/" << ri;
      if (want.c05) {
        EXPECT_DOUBLE_EQ(*got.c05, *want.c05) << task << "/" << ri;
      }
      ASSERT_EQ(got.ca.has_value(), want.ca.has_value()) << task << "/" << ri;
      if (want.ca) {
        EXPECT_DOUBLE_EQ(got.ca->mean, want.ca->mean) << task << "/" << ri;
        EXPECT_DOUBLE_EQ(got.ca->lo, want.ca->lo) << task << "/" << ri;
        EXPECT_DOUBLE_EQ(got.ca->hi, want.ca->hi) << task << "/" << ri;
      }
    }
  }
}

TEST(StudyAccumulator, KaplanMeierMatchesAnalysis) {
  const StudyAccumulator acc = accumulate(mem_run().results);
  for (std::size_t ri = 0; ri < kStudyResources.size(); ++ri) {
    const stats::KaplanMeier want =
        analysis::aggregate_km(mem_run().results, kStudyResources[ri]);
    const stats::KaplanMeier got = acc.aggregate_km(ri);
    EXPECT_EQ(got.event_count(), want.event_count());
    EXPECT_EQ(got.censored_count(), want.censored_count());
    const auto wc = want.curve_points();
    const auto gc = got.curve_points();
    ASSERT_EQ(gc.size(), wc.size());
    for (std::size_t i = 0; i < wc.size(); ++i) {
      EXPECT_DOUBLE_EQ(gc[i].first, wc[i].first);
      EXPECT_DOUBLE_EQ(gc[i].second, wc[i].second);
    }
  }
}

TEST(StudyAccumulator, KaplanMeierFromCountsMatchesAnalysisAt20kUsers) {
  // At 20k users every KM level carries thousands of tied runs, which the
  // accumulator passes to the estimator as counts. Short sessions keep the
  // in-memory reference store to ~4 runs per user.
  ControlledStudyConfig cfg;
  cfg.participants = 20000;
  cfg.seed = 2006;
  cfg.jobs = 0;
  cfg.session_s = 240.0;
  const ControlledStudyOutput mem = run_controlled_study(cfg, params());
  cfg.streaming = true;
  const ControlledStudyOutput streamed = run_controlled_study(cfg, params());
  ASSERT_GT(mem.results.size(), 20000u);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t ri = 0; ri < kStudyResources.size(); ++ri) {
    const stats::KaplanMeier want =
        analysis::aggregate_km(mem.results, kStudyResources[ri]);
    const stats::KaplanMeier got = streamed.aggregates->aggregate_km(ri);
    ASSERT_GT(want.event_count(), 1000u) << ri;
    EXPECT_EQ(got.event_count(), want.event_count()) << ri;
    EXPECT_EQ(got.censored_count(), want.censored_count()) << ri;
    const auto wc = want.curve_points();
    const auto gc = got.curve_points();
    ASSERT_EQ(gc.size(), wc.size()) << ri;
    for (std::size_t i = 0; i < wc.size(); ++i) {
      EXPECT_EQ(bits(gc[i].first), bits(wc[i].first)) << ri << "/" << i;
      EXPECT_EQ(bits(gc[i].second), bits(wc[i].second)) << ri << "/" << i;
    }
    for (const double q : {0.05, 0.5}) {
      const auto wl = want.level_at_probability(q);
      const auto gl = got.level_at_probability(q);
      ASSERT_EQ(gl.has_value(), wl.has_value()) << ri << "/" << q;
      if (wl) {
        EXPECT_EQ(bits(*gl), bits(*wl)) << ri << "/" << q;
      }
    }
  }
}

TEST(StudyAccumulator, OffsetSummariesMatchAnalysis) {
  const StudyAccumulator acc = accumulate(mem_run().results);
  for (std::size_t ti = 0; ti <= StudyAccumulator::kAllTasks; ++ti) {
    const std::string task =
        ti == StudyAccumulator::kAllTasks ? "" : sim::task_name(sim::kAllTasks[ti]);
    const auto want = analysis::summarize_offsets(mem_run().results, task);
    const auto got = acc.offsets(ti);
    ASSERT_EQ(got.has_value(), want.has_value()) << task;
    if (!want) continue;
    EXPECT_EQ(got->n, want->n) << task;
    // Mean and CI are exact (superaccumulator); quartiles are binned at
    // kOffsetBinWidth resolution.
    EXPECT_DOUBLE_EQ(got->mean_ci.mean, want->mean_ci.mean) << task;
    EXPECT_DOUBLE_EQ(got->mean_ci.lo, want->mean_ci.lo) << task;
    EXPECT_DOUBLE_EQ(got->mean_ci.hi, want->mean_ci.hi) << task;
    EXPECT_NEAR(got->q25, want->q25, StudyAccumulator::kOffsetBinWidth) << task;
    EXPECT_NEAR(got->median, want->median, StudyAccumulator::kOffsetBinWidth) << task;
    EXPECT_NEAR(got->q75, want->q75, StudyAccumulator::kOffsetBinWidth) << task;
  }
}

TEST(StudyAccumulator, MergeIsOrderAndPartitionInvariant) {
  const StudyAccumulator whole = accumulate(mem_run().results);
  const std::string want = whole.serialize();
  // Round-robin split into three shards, merged in two different orders.
  StudyAccumulator parts[3];
  const auto& records = mem_run().results.records();
  for (std::size_t i = 0; i < records.size(); ++i) parts[i % 3].add(records[i]);
  StudyAccumulator forward;
  forward.merge(parts[0]);
  forward.merge(parts[1]);
  forward.merge(parts[2]);
  EXPECT_EQ(forward.serialize(), want);
  StudyAccumulator backward;
  backward.merge(parts[2]);
  backward.merge(parts[0]);
  backward.merge(parts[1]);
  EXPECT_EQ(backward.serialize(), want);
  EXPECT_EQ(forward.runs(), whole.runs());
}

TEST(ControlledStudyStreaming, MatchesInMemoryAggregatesByteForByte) {
  const std::string want = accumulate(mem_run().results).serialize();

  ControlledStudyConfig cfg = small_config();
  cfg.streaming = true;
  const ControlledStudyOutput s1 = run_controlled_study(cfg, params());
  ASSERT_NE(s1.aggregates, nullptr);
  EXPECT_TRUE(s1.results.empty());
  EXPECT_EQ(s1.aggregates->runs(), mem_run().results.size());
  EXPECT_EQ(s1.aggregates->serialize(), want);

  cfg.jobs = 8;
  const ControlledStudyOutput s8 = run_controlled_study(cfg, params());
  ASSERT_NE(s8.aggregates, nullptr);
  EXPECT_EQ(s8.aggregates->serialize(), want);
}

TEST(ControlledStudyStreaming, TraceMatchesInMemoryPath) {
  // Streaming changes record storage, not the simulation: with tracing on,
  // both modes must emit byte-identical event streams.
  ControlledStudyConfig cfg = small_config();
  cfg.participants = 3;
  cfg.trace = true;
  const ControlledStudyOutput plain = run_controlled_study(cfg, params());
  cfg.streaming = true;
  const ControlledStudyOutput streamed = run_controlled_study(cfg, params());
  EXPECT_EQ(streamed.trace.serialize(), plain.trace.serialize());
}

TEST(ControlledStudyStreaming, SpillGuardAbortsOverfullInMemoryRun) {
  ControlledStudyConfig cfg = small_config();
  cfg.max_records_in_memory = 10;  // the study produces far more
  try {
    run_controlled_study(cfg, params());
    FAIL() << "expected the spill guard to abort the study";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("max_records_in_memory"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--streaming"), std::string::npos);
  }
  // Streaming mode retains nothing, so the same cap is irrelevant there.
  cfg.streaming = true;
  const ControlledStudyOutput out = run_controlled_study(cfg, params());
  EXPECT_GT(out.aggregates->runs(), 10u);
}

InternetStudyConfig small_internet_config() {
  InternetStudyConfig cfg;
  cfg.clients = 8;
  cfg.duration_s = 1.5 * 24 * 3600;
  cfg.mean_run_interarrival_s = 3600.0;
  cfg.sync_interval_s = 6 * 3600.0;
  cfg.seed = 431;
  cfg.jobs = 1;
  cfg.suite.steps_per_resource = 4;
  cfg.suite.ramps_per_resource = 4;
  cfg.suite.sines_per_resource = 2;
  cfg.suite.saws_per_resource = 2;
  cfg.suite.expexp_per_resource = 6;
  cfg.suite.exppar_per_resource = 6;
  cfg.suite.blanks = 4;
  return cfg;
}

TEST(InternetStudyStreaming, MatchesUploadedRecordsByteForByte) {
  const InternetStudyOutput plain =
      run_internet_study(small_internet_config(), params());
  const std::string want = accumulate(plain.server->results()).serialize();

  InternetStudyConfig cfg = small_internet_config();
  cfg.streaming = true;
  const InternetStudyOutput s1 = run_internet_study(cfg, params());
  ASSERT_NE(s1.aggregates, nullptr);
  EXPECT_TRUE(s1.server->results().empty());
  EXPECT_EQ(s1.total_runs, plain.total_runs);
  EXPECT_EQ(s1.aggregates->runs(), plain.total_runs);
  EXPECT_EQ(s1.aggregates->serialize(), want);

  cfg.jobs = 4;
  const InternetStudyOutput s4 = run_internet_study(cfg, params());
  ASSERT_NE(s4.aggregates, nullptr);
  EXPECT_EQ(s4.aggregates->serialize(), want);
}

}  // namespace
}  // namespace uucs::study
