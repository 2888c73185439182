#include "testcase/run_record.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace uucs {

std::optional<double> RunRecord::level_at_feedback(Resource r) const {
  const auto it = last_levels.find(resource_name(r));
  if (it == last_levels.end() || it->second.empty()) return std::nullopt;
  return it->second.back();
}

std::optional<Resource> RunRecord::single_resource() const {
  if (last_levels.size() != 1) return std::nullopt;
  const std::string& key = last_levels.begin()->first;
  for (std::size_t i = 0; i < kResourceCount; ++i) {
    const auto r = static_cast<Resource>(i);
    if (key == resource_name(r)) return r;
  }
  return std::nullopt;
}

void RunRecord::set_last_levels(Resource r, std::vector<double> values) {
  last_levels[resource_name(r)] = std::move(values);
}

std::string RunRecord::meta(const std::string& key, const std::string& dflt) const {
  const auto it = metadata.find(key);
  return it == metadata.end() ? dflt : it->second;
}

double RunRecord::meta_double(const std::string& key, double dflt) const {
  const auto it = metadata.find(key);
  if (it == metadata.end()) return dflt;
  return parse_double(it->second).value_or(dflt);
}

std::string RunRecord::run_outcome() const { return meta("run.outcome", "ok"); }

bool RunRecord::host_fault() const {
  const auto it = metadata.find("run.outcome");
  return it != metadata.end() && it->second != "ok";
}

namespace {

// True when `id` contains resource_name(r) immediately followed by `tag`.
bool has_resource_tag(std::string_view id, Resource r, std::string_view tag) {
  const std::string_view name = resource_name(r);
  for (auto pos = id.find(name); pos != std::string_view::npos;
       pos = id.find(name, pos + 1)) {
    if (id.substr(pos + name.size()).starts_with(tag)) return true;
  }
  return false;
}

}  // namespace

bool is_blank_testcase(std::string_view testcase_id) {
  return testcase_id.starts_with("blank");
}

bool is_ramp_testcase(std::string_view testcase_id, Resource r) {
  return has_resource_tag(testcase_id, r, "-ramp");
}

bool is_step_testcase(std::string_view testcase_id, Resource r) {
  return has_resource_tag(testcase_id, r, "-step");
}

RunIndex RunIndex::build(const std::vector<RunRecord>& records) {
  RunIndex index;
  index.rows.reserve(records.size());
  // Views into the records' own task strings, alive for the whole build.
  std::unordered_map<std::string_view, std::uint32_t> task_ids;
  for (const RunRecord& rec : records) {
    Row row;
    const auto [it, fresh] = task_ids.try_emplace(
        rec.task, static_cast<std::uint32_t>(index.tasks.size()));
    if (fresh) index.tasks.push_back(rec.task);
    row.task = it->second;
    for (std::size_t i = 0; i < kResourceCount; ++i) {
      const auto r = static_cast<Resource>(i);
      const auto bit = static_cast<std::uint8_t>(1u << i);
      if (is_ramp_testcase(rec.testcase_id, r)) row.ramp_mask |= bit;
      if (const auto level = rec.level_at_feedback(r)) {
        row.level[i] = *level;
        row.level_mask |= bit;
      }
    }
    if (const auto single = rec.single_resource()) {
      row.single = static_cast<std::int8_t>(*single);
    }
    row.blank = is_blank_testcase(rec.testcase_id);
    row.host_fault = rec.host_fault();
    row.discomforted = rec.discomforted;
    row.offset_s = rec.offset_s;
    index.rows.push_back(row);
  }
  return index;
}

namespace {

void append_line(std::string& out, std::string_view key, std::string_view value) {
  out.append(key);
  out.append(" = ");
  out.append(value);
  out.push_back('\n');
}

}  // namespace

void RunRecord::serialize_into(std::string& out) const {
  out.append("[run]\n");
  append_line(out, "run_id", run_id);
  append_line(out, "client_guid", client_guid);
  append_line(out, "user_id", user_id);
  append_line(out, "testcase_id", testcase_id);
  append_line(out, "task", task);
  append_line(out, "discomforted", discomforted ? "true" : "false");
  // append_double is what KvRecord::set_double / set_doubles format with,
  // so these bytes match the to_record() path.
  out.append("offset_s = ");
  append_double(out, offset_s);
  out.push_back('\n');
  for (const auto& [name, values] : last_levels) {
    out.append("last.");
    out.append(name);
    out.append(" = ");
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out.push_back(',');
      append_double(out, values[i]);
    }
    out.push_back('\n');
  }
  for (const auto& [key, value] : metadata) {
    out.append("meta.");
    append_line(out, key, value);
  }
  out.push_back('\n');
}

KvRecord RunRecord::to_record() const {
  KvRecord rec("run");
  rec.set("run_id", run_id);
  rec.set("client_guid", client_guid);
  rec.set("user_id", user_id);
  rec.set("testcase_id", testcase_id);
  rec.set("task", task);
  rec.set_bool("discomforted", discomforted);
  rec.set_double("offset_s", offset_s);
  for (const auto& [name, values] : last_levels) {
    rec.set_doubles("last." + name, values);
  }
  for (const auto& [key, value] : metadata) {
    rec.set("meta." + key, value);
  }
  return rec;
}

namespace {

// One decoder for both representations: KvRecord and KvDoc::Rec expose the
// same positional (size/key_at/value_at) and typed-getter interface, and
// both throw the same ParseError messages.
template <class R>
RunRecord decode_run_impl(const R& rec) {
  if (rec.type() != "run") {
    throw ParseError("expected [run] record, got [" + std::string(rec.type()) +
                     "]");
  }
  RunRecord r;
  r.run_id = rec.get("run_id");
  r.client_guid = rec.get_or("client_guid", "");
  r.user_id = rec.get_or("user_id", "");
  r.testcase_id = rec.get("testcase_id");
  r.task = rec.get_or("task", "");
  r.discomforted = rec.get_bool("discomforted");
  r.offset_s = rec.get_double("offset_s");
  const std::size_t n = rec.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view key = rec.key_at(i);
    if (starts_with(key, "last.")) {
      parse_double_list(rec.value_at(i), key,
                        r.last_levels[std::string(key.substr(5))]);
    } else if (starts_with(key, "meta.")) {
      r.metadata[std::string(key.substr(5))] = std::string(rec.value_at(i));
    }
  }
  return r;
}

}  // namespace

RunRecord RunRecord::from_record(const KvRecord& rec) {
  return decode_run_impl(rec);
}

RunRecord RunRecord::from_kv(const KvDoc::Rec& rec) {
  return decode_run_impl(rec);
}

ResultStore::ResultStore(ResultStore&& other) noexcept
    : records_(std::move(other.records_)) {
  other.drop_index();
}

ResultStore& ResultStore::operator=(const ResultStore& other) {
  drop_index();
  records_ = other.records_;
  return *this;
}

ResultStore& ResultStore::operator=(ResultStore&& other) noexcept {
  if (this != &other) {
    records_ = std::move(other.records_);
    drop_index();
    other.drop_index();
  }
  return *this;
}

void ResultStore::drop_index() noexcept {
  // Mutators own the store exclusively (no const call may run beside
  // them), so the pointer needs no read-modify-write here.
  if (const RunIndex* index = index_.load(std::memory_order_relaxed)) {
    index_.store(nullptr, std::memory_order_relaxed);
    delete index;
  }
}

const RunIndex& ResultStore::index() const {
  if (const RunIndex* index = index_.load(std::memory_order_acquire)) return *index;
  auto built = std::make_unique<const RunIndex>(RunIndex::build(records_));
  const RunIndex* published = nullptr;
  if (index_.compare_exchange_strong(published, built.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return *built.release();
  }
  return *published;  // another thread won; `built` is freed on return
}

void ResultStore::add(RunRecord r) {
  drop_index();
  records_.push_back(std::move(r));
}

void ResultStore::reserve(std::size_t n) {
  drop_index();
  records_.reserve(n);
}

std::vector<const RunRecord*> ResultStore::filter(
    const std::string& task, const std::string& testcase_prefix) const {
  std::vector<const RunRecord*> out;
  for (const auto& r : records_) {
    if (!task.empty() && r.task != task) continue;
    if (!testcase_prefix.empty() && !starts_with(r.testcase_id, testcase_prefix)) {
      continue;
    }
    out.push_back(&r);
  }
  return out;
}

std::vector<RunRecord> ResultStore::drain() {
  drop_index();
  std::vector<RunRecord> out = std::move(records_);
  records_.clear();
  return out;
}

std::size_t ResultStore::remove_ids(const std::vector<std::string>& ids) {
  drop_index();
  const std::unordered_set<std::string> gone(ids.begin(), ids.end());
  const std::size_t before = records_.size();
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [&](const RunRecord& r) {
                                  return gone.count(r.run_id) != 0;
                                }),
                 records_.end());
  return before - records_.size();
}

void ResultStore::save(const std::string& path) const {
  std::vector<KvRecord> recs;
  recs.reserve(records_.size());
  for (const auto& r : records_) recs.push_back(r.to_record());
  kv_save_file(path, recs);
}

ResultStore ResultStore::load(const std::string& path) {
  ResultStore store;
  for (const auto& rec : kv_load_file(path)) {
    store.add(RunRecord::from_record(rec));
  }
  return store;
}

void ResultStore::merge(const ResultStore& other) {
  drop_index();
  records_.insert(records_.end(), other.records_.begin(), other.records_.end());
}

}  // namespace uucs
