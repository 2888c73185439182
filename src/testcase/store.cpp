#include "testcase/store.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace uucs {

namespace {

bool key_less(const std::string* key, const std::string& id) { return *key < id; }

}  // namespace

TestcaseStore::TestcaseStore(const TestcaseStore& other) : cases_(other.cases_) {
  reindex();
}

TestcaseStore& TestcaseStore::operator=(const TestcaseStore& other) {
  if (this != &other) {
    cases_ = other.cases_;
    reindex();
  }
  return *this;
}

std::pair<std::map<std::string, Testcase>::iterator, bool> TestcaseStore::put(Testcase tc) {
  // Warm the serialization cache here, before the instance is shared:
  // every sync response that hands this testcase out appends the cached
  // bytes instead of re-formatting each sample.
  tc.warm_encoded_record();
  const std::string id = tc.id();
  return cases_.insert_or_assign(id, std::move(tc));
}

void TestcaseStore::add(Testcase tc) {
  const auto [it, inserted] = put(std::move(tc));
  if (!inserted) return;  // a replaced id keeps its slot
  const std::string* key = &it->first;
  index_.insert(std::lower_bound(index_.begin(), index_.end(), *key, key_less), key);
}

void TestcaseStore::reindex() {
  index_.clear();
  index_.reserve(cases_.size());
  for (const auto& entry : cases_) index_.push_back(&entry.first);
}

bool TestcaseStore::contains(const std::string& id) const { return cases_.count(id) != 0; }

const Testcase& TestcaseStore::get(const std::string& id) const {
  const auto it = cases_.find(id);
  if (it == cases_.end()) throw Error("no testcase with id '" + id + "'");
  return it->second;
}

std::vector<std::string> TestcaseStore::ids() const {
  std::vector<std::string> out;
  out.reserve(cases_.size());
  for (const auto& [id, tc] : cases_) out.push_back(id);
  return out;  // map iteration is already sorted
}

std::vector<std::uint32_t> TestcaseStore::free_slots(
    const std::vector<std::string>& exclude) const {
  // Unknown ids match no slot and a repeated id marks its slot again, so
  // the result is the same as excluding the set of `exclude`.
  std::vector<char> excluded(index_.size(), 0);
  for (const auto& id : exclude) {
    const auto it = std::lower_bound(index_.begin(), index_.end(), id, key_less);
    if (it != index_.end() && **it == id) excluded[it - index_.begin()] = 1;
  }
  std::vector<std::uint32_t> slots;
  slots.reserve(index_.size());
  for (std::uint32_t slot = 0; slot < index_.size(); ++slot) {
    if (!excluded[slot]) slots.push_back(slot);
  }
  return slots;
}

std::vector<std::string> TestcaseStore::ids_at(const std::vector<std::uint32_t>& slots) const {
  std::vector<std::string> out;
  out.reserve(slots.size());
  for (const std::uint32_t slot : slots) out.push_back(*index_[slot]);
  return out;
}

std::vector<std::string> TestcaseStore::ids_not_in(
    const std::vector<std::string>& known) const {
  return ids_at(free_slots(known));
}

std::vector<std::string> TestcaseStore::random_sample(
    std::size_t n, Rng& rng, const std::vector<std::string>& exclude) const {
  // Shuffling slot numbers draws exactly what shuffling the id strings did
  // (same pool size, same Fisher-Yates), and slot order is id order, so the
  // sorted sample is unchanged; only the <= n chosen ids are copied.
  std::vector<std::uint32_t> pool = free_slots(exclude);
  rng.shuffle(pool);
  if (pool.size() > n) pool.resize(n);
  std::sort(pool.begin(), pool.end());
  return ids_at(pool);
}

std::optional<std::string> TestcaseStore::random_id(Rng& rng) const {
  if (index_.empty()) return std::nullopt;
  return *index_[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(index_.size()) - 1))];
}

void TestcaseStore::save(const std::string& path) const {
  std::vector<KvRecord> records;
  records.reserve(cases_.size());
  for (const auto& [id, tc] : cases_) records.push_back(tc.to_record());
  kv_save_file(path, records);
}

TestcaseStore TestcaseStore::load(const std::string& path) {
  TestcaseStore store;
  for (const auto& rec : kv_load_file(path)) store.put(Testcase::from_record(rec));
  store.reindex();
  return store;
}

void TestcaseStore::merge(const TestcaseStore& other) {
  for (const auto& [id, tc] : other.cases_) cases_.insert_or_assign(id, tc);
  reindex();
}

}  // namespace uucs
