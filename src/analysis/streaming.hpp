#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/breakdown.hpp"
#include "analysis/metrics.hpp"
#include "analysis/offsets.hpp"
#include "sim/task.hpp"
#include "stats/kaplan_meier.hpp"
#include "testcase/run_record.hpp"
#include "testcase/run_record_flat.hpp"
#include "util/exact_sum.hpp"
#include "util/kvtext.hpp"
#include "util/table.hpp"

namespace uucs::analysis {

/// Order-independent streaming aggregation of a study's run records —
/// everything the analysis layer derives from a ResultStore, in O(1) space
/// per run (DESIGN.md §10).
///
/// Each engine worker owns one accumulator and absorbs runs in whatever
/// order the scheduler hands them out; after the engine drains, the
/// per-worker accumulators merge. The state is chosen so that the merged
/// result is an exact, associative, commutative function of the *multiset*
/// of runs — never of their order:
///
///  - classification tallies (breakdown cells, df/ex counts) are integers,
///  - discomfort/censoring levels go into exact per-level count maps
///    (distinct levels are bounded by the testcase suite, not by run
///    count), reproducing c_0.05, f_d and the Kaplan–Meier inputs exactly,
///  - discomfort-offset sums use util::ExactSum superaccumulators (exact
///    ⇒ order-free), with a fixed-bin histogram for binned quantiles.
///
/// Hence a streaming run with any worker count serializes byte-identically
/// to a sequential in-memory pass over the same records — the equivalence
/// tests compare serialize() output, and round-tripped doubles to the last
/// ulp.
///
/// Classification uses the rules beside RunRecord (testcase/run_record),
/// like src/analysis: blank and ramp runs by testcase id, the single-CPU
/// breakdown class by the exact canonical level key; host-faulted runs
/// (meta run.outcome != "ok") are excluded from comfort cells like
/// select_ramp_runs() does; runs whose task string is not one of the four
/// study tasks count toward runs() only.
class StudyAccumulator {
 public:
  /// Binned-quantile resolution for discomfort offsets: offsets are
  /// continuous (per-user reaction delays), so unlike levels they cannot
  /// be counted exactly per distinct value. [0, 1024) s in 1/8 s bins,
  /// plus an overflow bin.
  static constexpr std::size_t kOffsetBins = 8192;
  static constexpr double kOffsetBinWidth = 0.125;

  /// `pool` is the string pool the absorbed FlatRunRecords were interned
  /// against — the worker-local pool on sharded drivers, the process-wide
  /// one by default. The accumulator resolves flat ids only against this
  /// pool (classification caches, well-known key ids); its own state and
  /// serialize() output carry no ids at all, which is why accumulators
  /// built over *different* pools still merge exactly (DESIGN.md §11).
  explicit StudyAccumulator(StringInterner& pool = StringInterner::global());

  /// Absorbs one run (the map-based and flat representations tally
  /// identically; the flat overload is the hot path).
  void add(const RunRecord& rec);
  void add(const FlatRunRecord& rec);

  /// Exact merge: *this becomes the accumulator of both input multisets.
  void merge(const StudyAccumulator& other);

  std::uint64_t runs() const { return runs_; }
  std::uint64_t host_faulted() const { return host_faulted_; }

  /// Fig 9 breakdown for one task (index into sim::kAllTasks) or, via
  /// breakdown_total(), the study total.
  RunBreakdown breakdown(std::size_t task_index, BreakdownScope scope) const;
  RunBreakdown breakdown_total(BreakdownScope scope) const;

  /// §3.3.1 cell metrics over ramp runs for (task, study resource);
  /// task_index == kAllTasks aggregates across tasks (Figs 10-12).
  /// f_d and c_0.05 are exact (per-level counts); c_a's mean/CI are
  /// derived from the exact level histogram (same Student-t formula as
  /// stats::mean_confidence_interval, evaluated in sorted-level order).
  static constexpr std::size_t kAllTasks = sim::kTaskCount;
  CellMetrics cell(std::size_t task_index, std::size_t resource_index) const;

  /// Kaplan–Meier estimator built from the exact per-level counts in
  /// O(distinct levels) — identical to analysis::aggregate_km over the same
  /// records.
  stats::KaplanMeier aggregate_km(std::size_t resource_index) const;

  /// Discomfort-offset summary (mean/CI exact via ExactSum; quartiles
  /// binned at kOffsetBinWidth); nullopt when no discomfort was seen.
  std::optional<OffsetSummary> offsets(std::size_t task_index) const;

  /// Lossless dump of the exact state: integer tallies, hexfloat level
  /// keys and exact sums. Two accumulators over the same run multiset
  /// serialize byte-identically regardless of add/merge order.
  std::vector<KvRecord> to_records() const;
  std::string serialize() const;

  /// Human-readable digest (breakdown, per-resource cells, offsets).
  TextTable summary() const;

 private:
  struct CellTally {
    std::map<double, std::uint64_t> events;    ///< discomfort level → count
    std::map<double, std::uint64_t> censored;  ///< exhaustion level → count
    void merge(const CellTally& other);
  };

  struct TaskTally {
    // Breakdown counters; both BreakdownScopes derive from these.
    std::uint64_t blank_df = 0, blank_ex = 0;
    std::uint64_t cpu_df = 0, cpu_ex = 0;      ///< non-blank, single cpu level
    std::uint64_t other_df = 0, other_ex = 0;  ///< remaining non-blank
    // Discomfort offsets: exact sums + binned histogram (see kOffsetBins).
    ExactSum offset_sum, offset_sumsq;
    std::vector<std::uint64_t> offset_bins;  ///< kOffsetBins + overflow
    std::array<CellTally, 3> cells;          ///< per study resource
    TaskTally();
    void merge(const TaskTally& other);
  };

  /// Everything add() needs, extracted uniformly from either record shape.
  struct Classified {
    int task_index = -1;                ///< -1: not a study task
    bool blank = false;
    std::uint8_t ramp_mask = 0;         ///< bit i: ramp on kStudyResources[i]
    bool host_fault = false;
    bool single_cpu = false;            ///< run_resource == cpu
    bool discomforted = false;
    double offset_s = 0.0;
    std::array<std::optional<double>, 3> levels;  ///< level_at_feedback per study resource
  };
  void add_classified(const Classified& c);
  std::uint8_t testcase_class(std::string_view testcase_id);

  /// Ids of the well-known strings the flat add() path compares against,
  /// interned into pool_ at construction.
  struct FlatIds {
    std::uint32_t run_outcome = 0;
    std::uint32_t ok = 0;
    std::array<std::uint32_t, 3> study_resources{};  ///< canonical names
    std::uint32_t cpu_name = 0;
    std::array<std::uint32_t, sim::kTaskCount> task_names{};
  };

  StringInterner* pool_;  ///< the pool flat-record ids resolve against
  FlatIds ids_;
  std::uint64_t runs_ = 0;
  std::uint64_t host_faulted_ = 0;
  std::array<TaskTally, sim::kTaskCount> tasks_;

  // Flat-path caches: interned id → classification, built lazily per
  // accumulator (no locks; workers never share an accumulator).
  std::unordered_map<std::uint32_t, std::uint8_t> tc_class_;  ///< bit 7: blank
  std::unordered_map<std::uint32_t, int> task_index_;
};

}  // namespace uucs::analysis
