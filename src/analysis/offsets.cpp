#include "analysis/offsets.hpp"

#include "util/strings.hpp"

namespace uucs::analysis {

std::vector<double> discomfort_offsets(const uucs::ResultStore& results,
                                       const std::string& task,
                                       const std::string& testcase_prefix) {
  std::vector<double> out;
  const auto& records = results.records();
  results.index().for_each(task, [&](std::size_t i, const uucs::RunIndex::Row& row) {
    if (!row.discomforted) return;
    if (!testcase_prefix.empty() &&
        !uucs::starts_with(records[i].testcase_id, testcase_prefix)) {
      return;
    }
    out.push_back(row.offset_s);
  });
  return out;
}

std::optional<OffsetSummary> summarize_offsets(const uucs::ResultStore& results,
                                               const std::string& task,
                                               const std::string& testcase_prefix) {
  const auto offsets = discomfort_offsets(results, task, testcase_prefix);
  if (offsets.empty()) return std::nullopt;
  OffsetSummary s;
  s.n = offsets.size();
  s.mean_ci = uucs::stats::mean_confidence_interval(offsets);
  s.q25 = uucs::stats::quantile(offsets, 0.25);
  s.median = uucs::stats::quantile(offsets, 0.5);
  s.q75 = uucs::stats::quantile(offsets, 0.75);
  return s;
}

}  // namespace uucs::analysis
