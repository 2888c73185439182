#include "analysis/breakdown.hpp"

namespace uucs::analysis {

double RunBreakdown::blank_discomfort_probability() const {
  const std::size_t blanks = blank_discomforted + blank_exhausted;
  return blanks == 0
             ? 0.0
             : static_cast<double>(blank_discomforted) / static_cast<double>(blanks);
}

void RunBreakdown::add(const RunBreakdown& other) {
  nonblank_discomforted += other.nonblank_discomforted;
  nonblank_exhausted += other.nonblank_exhausted;
  blank_discomforted += other.blank_discomforted;
  blank_exhausted += other.blank_exhausted;
}

RunBreakdown compute_breakdown(const uucs::ResultStore& results,
                               const std::string& task, BreakdownScope scope) {
  RunBreakdown b;
  results.index().for_each(task, [&](std::size_t, const uucs::RunIndex::Row& row) {
    if (row.blank) {
      ++(row.discomforted ? b.blank_discomforted : b.blank_exhausted);
    } else if (scope == BreakdownScope::kAllRuns || row.single_is(uucs::Resource::kCpu)) {
      ++(row.discomforted ? b.nonblank_discomforted : b.nonblank_exhausted);
    }
  });
  return b;
}

BreakdownTable compute_breakdown_table(const uucs::ResultStore& results,
                                       BreakdownScope scope) {
  BreakdownTable table;
  for (uucs::sim::Task t : uucs::sim::kAllTasks) {
    const auto i = static_cast<std::size_t>(t);
    table.per_task[i] = compute_breakdown(results, uucs::sim::task_name(t), scope);
    table.total.add(table.per_task[i]);
  }
  return table;
}

}  // namespace uucs::analysis
