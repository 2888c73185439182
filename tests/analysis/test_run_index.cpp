// The analysis scans read ResultStore::index() rows; these tests hold them
// to the record-walking scans they replaced, kept here as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "analysis/breakdown.hpp"
#include "analysis/metrics.hpp"
#include "analysis/offsets.hpp"
#include "server/server.hpp"
#include "study/controlled_study.hpp"
#include "study/internet_study.hpp"
#include "util/fs.hpp"

namespace uucs::analysis {
namespace {

// --- the reference: scans over the records themselves ----------------------

namespace ref {

RunBreakdown compute_breakdown(const ResultStore& results, const std::string& task,
                               BreakdownScope scope) {
  RunBreakdown b;
  for (const auto* run : results.filter(task)) {
    if (is_blank_run(*run)) {
      ++(run->discomforted ? b.blank_discomforted : b.blank_exhausted);
    } else {
      if (scope == BreakdownScope::kCpuAndBlank && run_resource(*run) != Resource::kCpu) {
        continue;
      }
      ++(run->discomforted ? b.nonblank_discomforted : b.nonblank_exhausted);
    }
  }
  return b;
}

std::vector<const RunRecord*> select_ramp_runs(const ResultStore& results,
                                               const std::string& task, Resource r) {
  std::vector<const RunRecord*> out;
  for (const auto* run : results.filter(task)) {
    if (run->host_fault()) continue;
    if (is_ramp_run(*run, r)) out.push_back(run);
  }
  return out;
}

CellMetrics compute_cell(const ResultStore& results, const std::string& task, Resource r) {
  return metrics_from_cdf(build_discomfort_cdf(select_ramp_runs(results, task, r), r));
}

stats::KaplanMeier aggregate_km(const ResultStore& results, Resource r) {
  return build_km(select_ramp_runs(results, "", r), r);
}

std::vector<double> discomfort_offsets(const ResultStore& results, const std::string& task,
                                       const std::string& testcase_prefix) {
  std::vector<double> out;
  for (const auto* run : results.filter(task, testcase_prefix)) {
    if (run->discomforted) out.push_back(run->offset_s);
  }
  return out;
}

}  // namespace ref

// --- bit-for-bit comparison -------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr Resource kAllResources[] = {Resource::kCpu, Resource::kMemory, Resource::kDisk,
                                      Resource::kNetwork};

void expect_same_cell(const CellMetrics& got, const CellMetrics& want,
                      const std::string& where) {
  EXPECT_EQ(got.df_count, want.df_count) << where;
  EXPECT_EQ(got.ex_count, want.ex_count) << where;
  EXPECT_EQ(bits(got.fd), bits(want.fd)) << where;
  ASSERT_EQ(got.c05.has_value(), want.c05.has_value()) << where;
  if (want.c05) {
    EXPECT_EQ(bits(*got.c05), bits(*want.c05)) << where;
  }
  ASSERT_EQ(got.ca.has_value(), want.ca.has_value()) << where;
  if (want.ca) {
    EXPECT_EQ(got.ca->n, want.ca->n) << where;
    EXPECT_EQ(bits(got.ca->mean), bits(want.ca->mean)) << where;
    EXPECT_EQ(bits(got.ca->lo), bits(want.ca->lo)) << where;
    EXPECT_EQ(bits(got.ca->hi), bits(want.ca->hi)) << where;
  }
}

void expect_same_km(const stats::KaplanMeier& got, const stats::KaplanMeier& want,
                    const std::string& where) {
  EXPECT_EQ(got.event_count(), want.event_count()) << where;
  EXPECT_EQ(got.censored_count(), want.censored_count()) << where;
  const auto gc = got.curve_points();
  const auto wc = want.curve_points();
  ASSERT_EQ(gc.size(), wc.size()) << where;
  for (std::size_t i = 0; i < wc.size(); ++i) {
    EXPECT_EQ(bits(gc[i].first), bits(wc[i].first)) << where << " point " << i;
    EXPECT_EQ(bits(gc[i].second), bits(wc[i].second)) << where << " point " << i;
  }
}

void expect_same_breakdown(const RunBreakdown& got, const RunBreakdown& want,
                           const std::string& where) {
  EXPECT_EQ(got.nonblank_discomforted, want.nonblank_discomforted) << where;
  EXPECT_EQ(got.nonblank_exhausted, want.nonblank_exhausted) << where;
  EXPECT_EQ(got.blank_discomforted, want.blank_discomforted) << where;
  EXPECT_EQ(got.blank_exhausted, want.blank_exhausted) << where;
}

/// Every indexed scan equals its record-walking reference on `store`, for
/// the study tasks, every task the store holds, all tasks ("") and a task
/// no record has; all four resources; both breakdown scopes; and several
/// testcase-prefix filters.
void expect_matches_reference(const ResultStore& store, const std::string& label) {
  std::vector<std::string> tasks = {"", "word", "powerpoint", "ie", "quake", "no-such-task"};
  for (const RunRecord& rec : store.records()) {
    if (std::find(tasks.begin(), tasks.end(), rec.task) == tasks.end()) {
      tasks.push_back(rec.task);
    }
  }
  for (const std::string& task : tasks) {
    const std::string where = label + " task '" + task + "'";
    for (const BreakdownScope scope :
         {BreakdownScope::kCpuAndBlank, BreakdownScope::kAllRuns}) {
      expect_same_breakdown(compute_breakdown(store, task, scope),
                            ref::compute_breakdown(store, task, scope), where);
    }
    for (const Resource r : kAllResources) {
      const std::string at = where + " " + resource_name(r);
      EXPECT_EQ(select_ramp_runs(store, task, r), ref::select_ramp_runs(store, task, r))
          << at;
      expect_same_cell(compute_cell(store, task, r), ref::compute_cell(store, task, r), at);
    }
    for (const std::string prefix : {"", "blank", "cpu", "inet-", "disk-step", "zzz"}) {
      const auto got = discomfort_offsets(store, task, prefix);
      const auto want = ref::discomfort_offsets(store, task, prefix);
      ASSERT_EQ(got.size(), want.size()) << where << " prefix '" << prefix << "'";
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(bits(got[i]), bits(want[i])) << where << " prefix '" << prefix << "'";
      }
    }
  }
  for (const Resource r : kAllResources) {
    expect_same_km(aggregate_km(store, r), ref::aggregate_km(store, r),
                   label + " km " + resource_name(r));
  }
  EXPECT_EQ(store.index().rows.size(), store.size()) << label;
}

// --- stores -----------------------------------------------------------------

const study::PopulationParams& params() {
  static const study::PopulationParams p = study::calibrate_population();
  return p;
}

const ResultStore& controlled_store() {
  static const ResultStore store = [] {
    study::ControlledStudyConfig cfg;
    cfg.participants = 2000;
    cfg.seed = 88;
    cfg.jobs = 0;
    return study::run_controlled_study(cfg, params()).results;
  }();
  return store;
}

const ResultStore& internet_store() {
  static const ResultStore store = [] {
    study::InternetStudyConfig cfg;
    cfg.clients = 24;
    cfg.duration_s = 3 * 24 * 3600.0;
    cfg.mean_run_interarrival_s = 1800.0;
    cfg.sync_interval_s = 6 * 3600.0;
    cfg.seed = 93;
    cfg.jobs = 0;
    cfg.suite.steps_per_resource = 4;
    cfg.suite.ramps_per_resource = 4;
    cfg.suite.sines_per_resource = 2;
    cfg.suite.saws_per_resource = 2;
    cfg.suite.expexp_per_resource = 6;
    cfg.suite.exppar_per_resource = 6;
    cfg.suite.blanks = 4;
    return ResultStore(study::run_internet_study(cfg, params()).server->results());
  }();
  return store;
}

RunRecord make_run(std::string id, std::string task, std::string testcase, bool discomforted,
                   double offset_s) {
  RunRecord rec;
  rec.run_id = std::move(id);
  rec.task = std::move(task);
  rec.testcase_id = std::move(testcase);
  rec.discomforted = discomforted;
  rec.offset_s = offset_s;
  return rec;
}

/// Edge shapes: host-faulted ramps, blank runs, multi-resource runs, empty
/// level vectors, non-canonical and unknown level keys, tasks outside the
/// study, and ids the prefix filters split.
ResultStore hand_built_store() {
  ResultStore store;
  std::size_t serial = 0;
  const auto id = [&] { return "hand-" + std::to_string(serial++); };
  for (const bool df : {true, false}) {
    RunRecord cpu = make_run(id(), "word", "cpu-ramp-x2-t120", df, df ? 31.5 : 120.0);
    cpu.set_last_levels(Resource::kCpu, {0.4, 0.8, 1.2});
    store.add(cpu);

    RunRecord faulted = cpu;
    faulted.run_id = id();
    faulted.metadata["run.outcome"] = "degraded";
    store.add(faulted);

    RunRecord ok_outcome = cpu;
    ok_outcome.run_id = id();
    ok_outcome.metadata["run.outcome"] = "ok";
    store.add(ok_outcome);

    RunRecord blank = make_run(id(), "quake", "blank-t120", df, 60.0);
    store.add(blank);

    RunRecord blank_levels = make_run(id(), "ie", "blank-t60", df, 12.25);
    blank_levels.set_last_levels(Resource::kCpu, {0.0});
    store.add(blank_levels);

    RunRecord multi = make_run(id(), "powerpoint", "cpu-ramp-x1-t120", df, 44.0);
    multi.set_last_levels(Resource::kCpu, {0.3, 0.6});
    multi.set_last_levels(Resource::kDisk, {1.5});
    store.add(multi);

    RunRecord empty = make_run(id(), "word", "memory-ramp-x1-t120", df, 70.0);
    empty.set_last_levels(Resource::kMemory, {});
    store.add(empty);

    RunRecord no_levels = make_run(id(), "word", "disk-ramp-x3-t120", df, 80.0);
    store.add(no_levels);

    for (const std::string key : {"CPU", " cpu", "mem", "gpu"}) {
      RunRecord odd = make_run(id(), "ie", "cpu-ramp-x2-t120", df, 22.0);
      odd.last_levels[key] = {0.9};
      store.add(odd);
    }

    RunRecord inet = make_run(id(), "quake", "inet-memory-ramp-0042", df, 15.0);
    inet.set_last_levels(Resource::kMemory, {0.1, 0.2});
    store.add(inet);

    RunRecord step = make_run(id(), "quake", "disk-step-x1-t120-b30", df, 90.0);
    step.set_last_levels(Resource::kDisk, {1.0});
    store.add(step);

    RunRecord net = make_run(id(), "word", "network-ramp-x1-t120", df, 33.0);
    net.set_last_levels(Resource::kNetwork, {0.25});
    store.add(net);

    RunRecord outsider = make_run(id(), "solitaire", "cpu-ramp-x2-t120", df, 5.0);
    outsider.set_last_levels(Resource::kCpu, {2.0});
    store.add(outsider);

    RunRecord no_task = make_run(id(), "", "cpu-ramp-x2-t120", df, 6.0);
    no_task.set_last_levels(Resource::kCpu, {1.0});
    store.add(no_task);
  }
  return store;
}

// --- tests ------------------------------------------------------------------

TEST(RunIndex, MatchesRecordScansOnControlledStudy) {
  ASSERT_GT(controlled_store().size(), 50000u);
  expect_matches_reference(controlled_store(), "controlled");
}

TEST(RunIndex, MatchesRecordScansOnInternetStudy) {
  const ResultStore& store = internet_store();
  ASSERT_GT(store.size(), 100u);
  bool inet_ramp = false;
  for (const RunRecord& rec : store.records()) {
    inet_ramp |= rec.testcase_id.starts_with("inet-") && is_ramp_run(rec, Resource::kCpu);
  }
  EXPECT_TRUE(inet_ramp);
  expect_matches_reference(store, "internet");
}

TEST(RunIndex, MatchesRecordScansOnEdgeRecords) {
  expect_matches_reference(hand_built_store(), "hand-built");
  expect_matches_reference(ResultStore(), "empty");
}

TEST(RunIndex, EveryMutationRebuildsTheIndex) {
  ResultStore store = hand_built_store();
  expect_matches_reference(store, "initial");

  store.add(make_run("extra-0", "word", "cpu-ramp-x2-t120", true, 9.0));
  expect_matches_reference(store, "after add");

  store.merge(hand_built_store());
  expect_matches_reference(store, "after merge");

  EXPECT_EQ(store.remove_ids({"hand-0", "hand-3", "extra-0"}), 5u);
  expect_matches_reference(store, "after remove_ids");

  store.reserve(store.size() * 2);
  expect_matches_reference(store, "after reserve");

  std::vector<RunRecord> drained = store.drain();
  expect_matches_reference(store, "after drain");
  for (std::size_t i = drained.size() / 2; i < drained.size(); ++i) store.add(drained[i]);
  expect_matches_reference(store, "after refill");

  ResultStore copy(store);
  expect_matches_reference(copy, "copy-constructed");
  copy.add(make_run("extra-1", "quake", "blank-t120", true, 3.0));
  expect_matches_reference(copy, "copy after add");
  expect_matches_reference(store, "source after copy's add");

  ResultStore assigned = hand_built_store();
  expect_matches_reference(assigned, "before copy-assign");
  assigned = copy;
  expect_matches_reference(assigned, "copy-assigned");
  assigned = assigned;
  expect_matches_reference(assigned, "self-assigned");

  ResultStore moved(std::move(copy));
  expect_matches_reference(moved, "move-constructed");
  expect_matches_reference(copy, "moved-from");  // NOLINT(bugprone-use-after-move)
  copy.add(make_run("extra-2", "ie", "disk-ramp-x3-t120", false, 4.0));
  expect_matches_reference(copy, "moved-from after add");

  ResultStore move_assigned = hand_built_store();
  expect_matches_reference(move_assigned, "before move-assign");
  move_assigned = std::move(moved);
  expect_matches_reference(move_assigned, "move-assigned");
  expect_matches_reference(moved, "move-assigned-from");  // NOLINT(bugprone-use-after-move)

  uucs::TempDir dir;
  move_assigned.save(dir.file("results.txt"));
  ResultStore loaded = hand_built_store();
  expect_matches_reference(loaded, "before load");
  loaded = ResultStore::load(dir.file("results.txt"));
  EXPECT_EQ(loaded.size(), move_assigned.size());
  expect_matches_reference(loaded, "loaded");
}

TEST(RunIndex, ConcurrentFirstCallsAgree) {
  // Four threads make the first analysis call on one fresh store at once:
  // each may build an index, exactly one is published, and all read it.
  ResultStore base;
  for (int copies = 0; copies < 40; ++copies) base.merge(hand_built_store());
  base.merge(internet_store());
  for (const Resource r : {Resource::kCpu, Resource::kMemory}) {
    const CellMetrics want = ref::compute_cell(base, "", r);
    for (int round = 0; round < 25; ++round) {
      const ResultStore store(base);
      std::vector<CellMetrics> got(4);
      std::latch start(4);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          got[t] = compute_cell(store, "", r);
        });
      }
      for (std::thread& th : threads) th.join();
      for (std::size_t t = 0; t < got.size(); ++t) {
        expect_same_cell(got[t], want, "thread " + std::to_string(t));
      }
    }
  }
}

}  // namespace
}  // namespace uucs::analysis
