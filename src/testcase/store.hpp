#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "testcase/testcase.hpp"

namespace uucs {

class Rng;

/// A collection of testcases keyed by id, with optional text-file
/// persistence — the paper's client and server both "store testcases ... on
/// permanent storage in text files" (§2). New testcases can be added at any
/// time; the server hands out growing random samples of them (§2).
///
/// Beside the map the store keeps a sorted index of pointers to the map's
/// keys, so sampling shuffles slot numbers instead of copying every id. Map
/// nodes never move, so the pointers stay valid across inserts and moves;
/// a copy gets its own index over its own keys.
class TestcaseStore {
 public:
  TestcaseStore() = default;
  TestcaseStore(const TestcaseStore& other);
  TestcaseStore& operator=(const TestcaseStore& other);
  TestcaseStore(TestcaseStore&&) = default;
  TestcaseStore& operator=(TestcaseStore&&) = default;

  /// Adds (or replaces) a testcase.
  void add(Testcase tc);

  /// Number of testcases.
  std::size_t size() const { return cases_.size(); }
  bool empty() const { return cases_.empty(); }

  /// True if `id` is present.
  bool contains(const std::string& id) const;

  /// Fetches by id; throws Error if absent.
  const Testcase& get(const std::string& id) const;

  /// All ids, sorted.
  std::vector<std::string> ids() const;

  /// Ids present here but not in `known` — what a hot sync would transfer.
  std::vector<std::string> ids_not_in(const std::vector<std::string>& known) const;

  /// Uniform random sample (without replacement) of up to `n` ids not in
  /// `exclude`, sorted. This implements the server's growing-random-sample
  /// handout. Costs one `rng` draw per id not excluded, plus O(n) copies.
  std::vector<std::string> random_sample(std::size_t n, Rng& rng,
                                         const std::vector<std::string>& exclude = {}) const;

  /// One uniformly random id, or nullopt when empty — the client's local
  /// random choice of the next testcase to run. Shared by UucsClient and
  /// the Internet-study session engine so both consume `rng` identically.
  std::optional<std::string> random_id(Rng& rng) const;

  /// Writes every testcase to `path` as a multi-record text file.
  void save(const std::string& path) const;

  /// Loads a multi-record text file, replacing the current contents.
  static TestcaseStore load(const std::string& path);

  /// Merges all testcases from `other` into this store.
  void merge(const TestcaseStore& other);

 private:
  /// Warms and stores `tc` without touching the index.
  std::pair<std::map<std::string, Testcase>::iterator, bool> put(Testcase tc);
  /// Rebuilds the index from the map.
  void reindex();
  /// Index slots, ascending, whose ids are not in `exclude`.
  std::vector<std::uint32_t> free_slots(const std::vector<std::string>& exclude) const;
  std::vector<std::string> ids_at(const std::vector<std::uint32_t>& slots) const;

  std::map<std::string, Testcase> cases_;
  /// Keys of `cases_` in id order; slot i holds the i-th smallest id.
  std::vector<const std::string*> index_;
};

}  // namespace uucs
