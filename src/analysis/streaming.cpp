#include "analysis/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "stats/special.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace uucs::analysis {

namespace {

constexpr std::uint8_t kBlankBit = 0x80;

std::size_t offset_bin(double offset_s) {
  if (!(offset_s >= 0)) return 0;
  const auto b = static_cast<std::size_t>(offset_s /
                                          StudyAccumulator::kOffsetBinWidth);
  return std::min(b, StudyAccumulator::kOffsetBins);  // last slot = overflow
}

std::string serialize_level_map(const std::map<double, std::uint64_t>& m) {
  std::string out;
  for (const auto& [level, count] : m) {
    if (!out.empty()) out.push_back(',');
    out += strprintf("%a:%llu", level, static_cast<unsigned long long>(count));
  }
  return out;
}

std::string serialize_bins(const std::vector<std::uint64_t>& bins) {
  std::string out;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i] == 0) continue;
    if (!out.empty()) out.push_back(',');
    out += strprintf("%zu:%llu", i, static_cast<unsigned long long>(bins[i]));
  }
  return out;
}

}  // namespace

void StudyAccumulator::CellTally::merge(const CellTally& other) {
  for (const auto& [level, count] : other.events) events[level] += count;
  for (const auto& [level, count] : other.censored) censored[level] += count;
}

StudyAccumulator::TaskTally::TaskTally()
    : offset_bins(StudyAccumulator::kOffsetBins + 1, 0) {}

void StudyAccumulator::TaskTally::merge(const TaskTally& other) {
  blank_df += other.blank_df;
  blank_ex += other.blank_ex;
  cpu_df += other.cpu_df;
  cpu_ex += other.cpu_ex;
  other_df += other.other_df;
  other_ex += other.other_ex;
  offset_sum.merge(other.offset_sum);
  offset_sumsq.merge(other.offset_sumsq);
  for (std::size_t i = 0; i < offset_bins.size(); ++i) {
    offset_bins[i] += other.offset_bins[i];
  }
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].merge(other.cells[i]);
}

StudyAccumulator::StudyAccumulator(StringInterner& pool) : pool_(&pool) {
  ids_.run_outcome = pool.intern("run.outcome");
  ids_.ok = pool.intern("ok");
  for (std::size_t i = 0; i < kStudyResources.size(); ++i) {
    ids_.study_resources[i] = pool.intern(resource_name(kStudyResources[i]));
  }
  ids_.cpu_name = pool.intern(resource_name(Resource::kCpu));
  for (std::size_t i = 0; i < sim::kTaskCount; ++i) {
    ids_.task_names[i] = pool.intern(sim::task_name(static_cast<sim::Task>(i)));
  }
}

std::uint8_t StudyAccumulator::testcase_class(std::string_view testcase_id) {
  std::uint8_t cls = 0;
  if (is_blank_testcase(testcase_id)) cls |= kBlankBit;
  for (std::size_t i = 0; i < kStudyResources.size(); ++i) {
    if (is_ramp_testcase(testcase_id, kStudyResources[i])) {
      cls |= static_cast<std::uint8_t>(1u << i);
    }
  }
  return cls;
}

void StudyAccumulator::add(const RunRecord& rec) {
  Classified c;
  for (std::size_t i = 0; i < sim::kTaskCount; ++i) {
    if (rec.task == sim::task_name(static_cast<sim::Task>(i))) {
      c.task_index = static_cast<int>(i);
      break;
    }
  }
  const std::uint8_t cls = testcase_class(rec.testcase_id);
  c.blank = (cls & kBlankBit) != 0;
  c.ramp_mask = cls & 0x7f;
  c.host_fault = rec.host_fault();
  c.single_cpu = rec.single_resource() == Resource::kCpu;
  c.discomforted = rec.discomforted;
  c.offset_s = rec.offset_s;
  for (std::size_t i = 0; i < kStudyResources.size(); ++i) {
    c.levels[i] = rec.level_at_feedback(kStudyResources[i]);
  }
  add_classified(c);
}

void StudyAccumulator::add(const FlatRunRecord& rec) {
  const FlatIds& ids = ids_;
  Classified c;
  {
    const auto it = task_index_.find(rec.task);
    if (it != task_index_.end()) {
      c.task_index = it->second;
    } else {
      c.task_index = -1;
      for (std::size_t i = 0; i < sim::kTaskCount; ++i) {
        if (rec.task == ids.task_names[i]) {
          c.task_index = static_cast<int>(i);
          break;
        }
      }
      task_index_.emplace(rec.task, c.task_index);
    }
  }
  std::uint8_t cls;
  {
    const auto it = tc_class_.find(rec.testcase_id);
    if (it != tc_class_.end()) {
      cls = it->second;
    } else {
      cls = testcase_class(pool_->str(rec.testcase_id));
      tc_class_.emplace(rec.testcase_id, cls);
    }
  }
  c.blank = (cls & kBlankBit) != 0;
  c.ramp_mask = cls & 0x7f;
  const std::uint32_t outcome = rec.meta_value(ids.run_outcome);
  c.host_fault = outcome != StringInterner::kEmptyId && outcome != ids.ok;
  // RunRecord::single_resource on the flat layout: one trail in all, keyed
  // "cpu" inline or (a spilled long trail) in extra_levels.
  std::size_t level_entries = rec.extra_levels.size();
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    if (rec.levels[i].present) ++level_entries;
  }
  c.single_cpu = level_entries == 1 &&
                 (rec.trail(Resource::kCpu).present ||
                  (!rec.extra_levels.empty() &&
                   rec.extra_levels.front().first == ids.cpu_name));
  c.discomforted = rec.discomforted;
  c.offset_s = rec.offset_s;
  for (std::size_t i = 0; i < kStudyResources.size(); ++i) {
    const FlatRunRecord::LevelTrail& t = rec.trail(kStudyResources[i]);
    if (t.present) {
      if (t.n > 0) c.levels[i] = t.v[t.n - 1];
    } else {
      for (const auto& [key, values] : rec.extra_levels) {
        if (key == ids.study_resources[i] && !values.empty()) {
          c.levels[i] = values.back();
          break;
        }
      }
    }
  }
  add_classified(c);
}

void StudyAccumulator::add_classified(const Classified& c) {
  ++runs_;
  if (c.host_fault) ++host_faulted_;
  if (c.task_index < 0) return;
  TaskTally& t = tasks_[static_cast<std::size_t>(c.task_index)];
  // Breakdown tallies (all runs, like compute_breakdown).
  if (c.blank) {
    ++(c.discomforted ? t.blank_df : t.blank_ex);
  } else if (c.single_cpu) {
    ++(c.discomforted ? t.cpu_df : t.cpu_ex);
  } else {
    ++(c.discomforted ? t.other_df : t.other_ex);
  }
  // Discomfort offsets (all discomforted runs, like discomfort_offsets).
  if (c.discomforted) {
    t.offset_sum.add(c.offset_s);
    t.offset_sumsq.add(c.offset_s * c.offset_s);
    ++t.offset_bins[offset_bin(c.offset_s)];
  }
  // Comfort cells (ramp runs with a level, excluding host faults, like
  // select_ramp_runs + build_discomfort_cdf).
  if (c.host_fault) return;
  for (std::size_t i = 0; i < kStudyResources.size(); ++i) {
    if ((c.ramp_mask & (1u << i)) == 0 || !c.levels[i]) continue;
    CellTally& cell = t.cells[i];
    if (c.discomforted) {
      ++cell.events[*c.levels[i]];
    } else {
      ++cell.censored[*c.levels[i]];
    }
  }
}

void StudyAccumulator::merge(const StudyAccumulator& other) {
  runs_ += other.runs_;
  host_faulted_ += other.host_faulted_;
  for (std::size_t i = 0; i < tasks_.size(); ++i) tasks_[i].merge(other.tasks_[i]);
}

RunBreakdown StudyAccumulator::breakdown(std::size_t task_index,
                                         BreakdownScope scope) const {
  UUCS_CHECK_MSG(task_index < tasks_.size(), "task index out of range");
  const TaskTally& t = tasks_[task_index];
  RunBreakdown b;
  b.blank_discomforted = t.blank_df;
  b.blank_exhausted = t.blank_ex;
  b.nonblank_discomforted = t.cpu_df;
  b.nonblank_exhausted = t.cpu_ex;
  if (scope == BreakdownScope::kAllRuns) {
    b.nonblank_discomforted += t.other_df;
    b.nonblank_exhausted += t.other_ex;
  }
  return b;
}

RunBreakdown StudyAccumulator::breakdown_total(BreakdownScope scope) const {
  RunBreakdown total;
  for (std::size_t i = 0; i < tasks_.size(); ++i) total.add(breakdown(i, scope));
  return total;
}

CellMetrics StudyAccumulator::cell(std::size_t task_index,
                                   std::size_t resource_index) const {
  UUCS_CHECK_MSG(resource_index < 3, "resource index out of range");
  UUCS_CHECK_MSG(task_index <= kAllTasks, "task index out of range");
  CellTally merged;
  if (task_index == kAllTasks) {
    for (const TaskTally& t : tasks_) merged.merge(t.cells[resource_index]);
  } else {
    merged = tasks_[task_index].cells[resource_index];
  }

  CellMetrics m;
  for (const auto& [level, count] : merged.events) m.df_count += count;
  for (const auto& [level, count] : merged.censored) m.ex_count += count;
  const std::uint64_t total = m.df_count + m.ex_count;
  m.fd = total == 0 ? 0.0
                    : static_cast<double>(m.df_count) /
                          static_cast<double>(total);

  // c_0.05, exactly as DiscomfortCdf::level_at_fraction(0.05): the k-th
  // smallest discomfort level, read off the exact per-level counts.
  if (total > 0) {
    const auto need = static_cast<std::uint64_t>(
        std::ceil(0.05 * static_cast<double>(total) - 1e-12));
    if (need == 0) {
      if (!merged.events.empty()) m.c05 = merged.events.begin()->first;
    } else if (need <= m.df_count) {
      std::uint64_t seen = 0;
      for (const auto& [level, count] : merged.events) {
        seen += count;
        if (seen >= need) {
          m.c05 = level;
          break;
        }
      }
    }
  }

  // c_a: Student-t interval from the exact level histogram, evaluated in
  // sorted-level order (deterministic; matches mean_confidence_interval up
  // to summation rounding).
  if (m.df_count > 0) {
    const double n = static_cast<double>(m.df_count);
    double sum = 0.0;
    for (const auto& [level, count] : merged.events) {
      sum += level * static_cast<double>(count);
    }
    stats::MeanCi ci;
    ci.n = m.df_count;
    ci.mean = sum / n;
    if (m.df_count < 2) {
      ci.lo = ci.hi = ci.mean;
    } else {
      double m2 = 0.0;
      for (const auto& [level, count] : merged.events) {
        const double d = level - ci.mean;
        m2 += d * d * static_cast<double>(count);
      }
      const double stddev = std::sqrt(m2 / (n - 1.0));
      const double tcrit = stats::student_t_quantile(0.975, n - 1.0);
      const double half = tcrit * stddev / std::sqrt(n);
      ci.lo = ci.mean - half;
      ci.hi = ci.mean + half;
    }
    m.ca = ci;
  }
  return m;
}

stats::KaplanMeier StudyAccumulator::aggregate_km(
    std::size_t resource_index) const {
  UUCS_CHECK_MSG(resource_index < 3, "resource index out of range");
  CellTally merged;
  for (const TaskTally& t : tasks_) merged.merge(t.cells[resource_index]);
  stats::KaplanMeier km;
  for (const auto& [level, count] : merged.events) km.add_events(level, count);
  for (const auto& [level, count] : merged.censored) km.add_censored(level, count);
  return km;
}

std::optional<OffsetSummary> StudyAccumulator::offsets(
    std::size_t task_index) const {
  UUCS_CHECK_MSG(task_index <= kAllTasks, "task index out of range");
  ExactSum sum, sumsq;
  std::vector<std::uint64_t> bins(kOffsetBins + 1, 0);
  const auto fold = [&](const TaskTally& t) {
    sum.merge(t.offset_sum);
    sumsq.merge(t.offset_sumsq);
    for (std::size_t i = 0; i < bins.size(); ++i) bins[i] += t.offset_bins[i];
  };
  if (task_index == kAllTasks) {
    for (const TaskTally& t : tasks_) fold(t);
  } else {
    fold(tasks_[task_index]);
  }
  const std::uint64_t n = sum.count();
  if (n == 0) return std::nullopt;

  OffsetSummary s;
  s.n = n;
  const double dn = static_cast<double>(n);
  const double total = sum.round();
  s.mean_ci.n = n;
  s.mean_ci.mean = total / dn;
  if (n < 2) {
    s.mean_ci.lo = s.mean_ci.hi = s.mean_ci.mean;
  } else {
    const double var = std::max(
        0.0, (sumsq.round() - total * total / dn) / (dn - 1.0));
    const double tcrit = stats::student_t_quantile(0.975, dn - 1.0);
    const double half = tcrit * std::sqrt(var / dn);
    s.mean_ci.lo = s.mean_ci.mean - half;
    s.mean_ci.hi = s.mean_ci.mean + half;
  }
  // Binned quantiles: stats::quantile's type-7 interpolation between the
  // two straddling order statistics, with each order statistic replaced by
  // the midpoint of its bin (the overflow bin reports its lower edge), so
  // the result stays within half a kOffsetBinWidth of the sample quantile.
  const auto bin_value = [&](std::uint64_t rank) {  // 1-based order statistic
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      seen += bins[b];
      if (seen >= rank) {
        return b == kOffsetBins
                   ? static_cast<double>(kOffsetBins) * kOffsetBinWidth
                   : (static_cast<double>(b) + 0.5) * kOffsetBinWidth;
      }
    }
    return static_cast<double>(kOffsetBins) * kOffsetBinWidth;
  };
  const auto binned_quantile = [&](double q) {
    const double pos = q * (dn - 1.0);
    const auto i = static_cast<std::uint64_t>(pos);
    if (i + 1 >= n) return bin_value(n);
    const double frac = pos - static_cast<double>(i);
    return bin_value(i + 1) * (1.0 - frac) + bin_value(i + 2) * frac;
  };
  s.q25 = binned_quantile(0.25);
  s.median = binned_quantile(0.5);
  s.q75 = binned_quantile(0.75);
  return s;
}

std::vector<KvRecord> StudyAccumulator::to_records() const {
  std::vector<KvRecord> out;
  out.reserve(1 + tasks_.size() * 4);
  KvRecord head("aggregate");
  head.set("version", "1");
  head.set("runs", std::to_string(runs_));
  head.set("host_faulted", std::to_string(host_faulted_));
  out.push_back(std::move(head));
  for (std::size_t ti = 0; ti < tasks_.size(); ++ti) {
    const TaskTally& t = tasks_[ti];
    KvRecord rec("aggregate-task");
    rec.set("task", sim::task_name(static_cast<sim::Task>(ti)));
    rec.set("blank_df", std::to_string(t.blank_df));
    rec.set("blank_ex", std::to_string(t.blank_ex));
    rec.set("cpu_df", std::to_string(t.cpu_df));
    rec.set("cpu_ex", std::to_string(t.cpu_ex));
    rec.set("other_df", std::to_string(t.other_df));
    rec.set("other_ex", std::to_string(t.other_ex));
    rec.set("offsets_n", std::to_string(t.offset_sum.count()));
    rec.set("offset_sum", strprintf("%a", t.offset_sum.round()));
    rec.set("offset_sumsq", strprintf("%a", t.offset_sumsq.round()));
    rec.set("offset_bins", serialize_bins(t.offset_bins));
    out.push_back(std::move(rec));
    for (std::size_t ri = 0; ri < t.cells.size(); ++ri) {
      const CellTally& cell = t.cells[ri];
      if (cell.events.empty() && cell.censored.empty()) continue;
      KvRecord crec("aggregate-cell");
      crec.set("task", sim::task_name(static_cast<sim::Task>(ti)));
      crec.set("resource", resource_name(kStudyResources[ri]));
      crec.set("events", serialize_level_map(cell.events));
      crec.set("censored", serialize_level_map(cell.censored));
      out.push_back(std::move(crec));
    }
  }
  return out;
}

std::string StudyAccumulator::serialize() const {
  return kv_serialize(to_records());
}

TextTable StudyAccumulator::summary() const {
  TextTable t;
  t.set_header({"aggregate metric", "value"});
  t.add_row({"runs", std::to_string(runs_)});
  t.add_row({"host-faulted runs", std::to_string(host_faulted_)});
  const RunBreakdown all = breakdown_total(BreakdownScope::kAllRuns);
  t.add_row({"discomforted (non-blank)",
             std::to_string(all.nonblank_discomforted)});
  t.add_row({"exhausted (non-blank)", std::to_string(all.nonblank_exhausted)});
  t.add_row({"noise floor P(df|blank)",
             strprintf("%.4f", all.blank_discomfort_probability())});
  for (std::size_t ri = 0; ri < kStudyResources.size(); ++ri) {
    const CellMetrics m = cell(kAllTasks, ri);
    const std::string name = resource_name(kStudyResources[ri]);
    t.add_row({name + " f_d", strprintf("%.3f", m.fd)});
    t.add_row({name + " c_0.05",
               m.c05 ? strprintf("%.3f", *m.c05) : std::string("*")});
    t.add_row({name + " c_a",
               m.ca ? strprintf("%.3f (%.3f,%.3f)", m.ca->mean, m.ca->lo,
                                m.ca->hi)
                    : std::string("*")});
  }
  if (const auto off = offsets(kAllTasks)) {
    t.add_row({"discomfort offsets n", std::to_string(off->n)});
    t.add_row({"offset mean (s)", strprintf("%.2f", off->mean_ci.mean)});
    t.add_row({"offset median (s)", strprintf("%.2f", off->median)});
  }
  return t;
}

}  // namespace uucs::analysis
