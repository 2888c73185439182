#include "testcase/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "testcase/suite.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace uucs {
namespace {

TestcaseStore make_store(int n) {
  TestcaseStore s;
  for (int i = 0; i < n; ++i) {
    s.add(make_ramp_testcase(Resource::kCpu, 1.0 + i, 120.0));
  }
  return s;
}

TEST(TestcaseStore, AddGetContains) {
  TestcaseStore s;
  s.add(make_blank_testcase(120.0));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains("blank-t120"));
  EXPECT_EQ(s.get("blank-t120").duration(), 120.0);
  EXPECT_THROW(s.get("absent"), Error);
}

TEST(TestcaseStore, AddReplacesSameId) {
  TestcaseStore s;
  Testcase a("x", 10.0);
  Testcase b("x", 20.0);
  s.add(a);
  s.add(b);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.get("x").duration(), 20.0);
}

TEST(TestcaseStore, IdsSorted) {
  const auto s = make_store(5);
  const auto ids = s.ids();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.size(), 5u);
}

TEST(TestcaseStore, IdsNotIn) {
  const auto s = make_store(4);
  const auto all = s.ids();
  const auto fresh = s.ids_not_in({all[0], all[2]});
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(std::count(fresh.begin(), fresh.end(), all[0]), 0);
}

TEST(TestcaseStore, RandomSampleWithoutReplacement) {
  const auto s = make_store(20);
  Rng rng(1);
  const auto sample = s.random_sample(8, rng);
  EXPECT_EQ(sample.size(), 8u);
  const std::set<std::string> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 8u);
}

TEST(TestcaseStore, RandomSampleGrowsWithExclusion) {
  // Models the client's growing random sample across hot syncs: each sync
  // excludes what it already has and gets fresh ids.
  const auto s = make_store(10);
  Rng rng(2);
  auto have = s.random_sample(4, rng);
  const auto more = s.random_sample(4, rng, have);
  for (const auto& id : more) {
    EXPECT_EQ(std::count(have.begin(), have.end(), id), 0);
  }
  have.insert(have.end(), more.begin(), more.end());
  const auto rest = s.random_sample(100, rng, have);
  EXPECT_EQ(rest.size(), 2u);
}

TEST(TestcaseStore, SampleLargerThanPool) {
  const auto s = make_store(3);
  Rng rng(3);
  EXPECT_EQ(s.random_sample(10, rng).size(), 3u);
}

// The pre-index sampling algorithm, kept verbatim as the reference: copy the
// ids not excluded (via a std::set), shuffle the strings, truncate, sort.
std::vector<std::string> reference_sample(const TestcaseStore& s, std::size_t n, Rng& rng,
                                          const std::vector<std::string>& exclude) {
  const std::set<std::string> known(exclude.begin(), exclude.end());
  std::vector<std::string> pool;
  for (const auto& id : s.ids()) {
    if (!known.count(id)) pool.push_back(id);
  }
  rng.shuffle(pool);
  if (pool.size() > n) pool.resize(n);
  std::sort(pool.begin(), pool.end());
  return pool;
}

// Exclusion lists covering what a client may send: nothing, a subset with
// repeats and ids the server never had, and the whole catalog.
std::vector<std::vector<std::string>> exclusion_lists(const TestcaseStore& s) {
  const auto all = s.ids();
  std::vector<std::string> mixed = {"no-such-testcase", ""};
  for (std::size_t i = 0; i < all.size(); i += 3) {
    mixed.push_back(all[i]);
    mixed.push_back(all[i]);
  }
  mixed.push_back("~after-every-id");
  return {{}, mixed, all};
}

// Samples with both algorithms from identically seeded generators and checks
// the ids and the generators' next draw agree.
void expect_sample_matches_reference(const TestcaseStore& s, std::uint64_t seed) {
  for (const auto& exclude : exclusion_lists(s)) {
    for (std::size_t n = 0; n <= 40; ++n) {
      Rng got_rng(seed + n);
      Rng want_rng(seed + n);
      const auto got = s.random_sample(n, got_rng, exclude);
      const auto want = reference_sample(s, n, want_rng, exclude);
      ASSERT_EQ(got, want) << "catalog " << s.size() << ", n " << n << ", exclude "
                           << exclude.size();
      ASSERT_EQ(got_rng(), want_rng()) << "catalog " << s.size() << ", n " << n;
    }
  }
}

TEST(TestcaseStore, RandomSampleMatchesReference) {
  for (const int size : {0, 1, 8}) expect_sample_matches_reference(make_store(size), 11);
  Rng suite_rng(1);
  const auto suite = generate_internet_suite(SuiteSpec{}, suite_rng);
  ASSERT_EQ(suite.size(), 2140u);
  expect_sample_matches_reference(suite, 12);
}

TEST(TestcaseStore, IdsNotInMatchesSetDifference) {
  const auto s = make_store(8);
  for (const auto& exclude : exclusion_lists(s)) {
    const std::set<std::string> known(exclude.begin(), exclude.end());
    std::vector<std::string> want;
    for (const auto& id : s.ids()) {
      if (!known.count(id)) want.push_back(id);
    }
    EXPECT_EQ(s.ids_not_in(exclude), want);
  }
}

TEST(TestcaseStore, RandomIdMatchesReference) {
  const auto s = make_store(8);
  const auto all = s.ids();
  Rng got_rng(5);
  Rng want_rng(5);
  for (int i = 0; i < 64; ++i) {
    const auto got = s.random_id(got_rng);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, all[static_cast<std::size_t>(want_rng.uniform_int(0, 7))]);
  }
  EXPECT_EQ(got_rng(), want_rng());
  Rng rng(5);
  EXPECT_FALSE(TestcaseStore().random_id(rng).has_value());
}

TEST(TestcaseStore, AddOutOfOrderKeepsIndexSorted) {
  // Ids arrive in no particular order, one at a time, with replacements.
  TestcaseStore s;
  for (const char* id : {"m", "c", "x", "c", "a", "z", "m", "b"}) {
    s.add(Testcase(id, 10.0));
  }
  const std::vector<std::string> want = {"a", "b", "c", "m", "x", "z"};
  EXPECT_EQ(s.ids(), want);
  EXPECT_EQ(s.ids_not_in({"c", "z", "q"}), (std::vector<std::string>{"a", "b", "m", "x"}));
  expect_sample_matches_reference(s, 13);
}

TEST(TestcaseStore, IndexSurvivesCopyMoveMergeAndLoad) {
  // Every store here outlives the one it came from; a copied index that
  // still pointed into the source's map would read freed keys (ASan).
  std::optional<TestcaseStore> source = make_store(8);
  TestcaseStore copied(*source);
  TestcaseStore assigned = make_store(2);
  assigned = *source;
  TempDir dir;
  const std::string path = dir.file("testcases.txt");
  source->save(path);
  TestcaseStore merged;
  merged.merge(*source);
  merged.merge(make_store(3));  // overlapping ids
  source.reset();

  const auto want_ids = make_store(8).ids();
  EXPECT_EQ(copied.ids(), want_ids);
  EXPECT_EQ(assigned.ids(), want_ids);
  expect_sample_matches_reference(copied, 21);
  expect_sample_matches_reference(assigned, 22);

  const TestcaseStore moved(std::move(copied));
  EXPECT_EQ(moved.ids(), want_ids);
  expect_sample_matches_reference(moved, 23);

  EXPECT_EQ(merged.ids(), want_ids);
  expect_sample_matches_reference(merged, 24);

  const auto loaded = TestcaseStore::load(path);
  EXPECT_EQ(loaded.ids(), want_ids);
  expect_sample_matches_reference(loaded, 25);

  // The copy indexes its own keys: adding to it leaves the other alone.
  TestcaseStore grown(loaded);
  grown.add(make_blank_testcase(60.0));
  EXPECT_EQ(grown.size(), 9u);
  EXPECT_EQ(loaded.ids(), want_ids);
  expect_sample_matches_reference(grown, 26);
}

TEST(TestcaseStore, FileRoundTrip) {
  TempDir dir;
  auto s = make_store(6);
  s.add(make_blank_testcase(120.0));
  const std::string path = dir.file("testcases.txt");
  s.save(path);
  const auto loaded = TestcaseStore::load(path);
  EXPECT_EQ(loaded.size(), s.size());
  EXPECT_EQ(loaded.ids(), s.ids());
  EXPECT_TRUE(loaded.get("blank-t120").is_blank());
}

TEST(TestcaseStore, MergeUnions) {
  auto a = make_store(3);
  TestcaseStore b;
  b.add(make_blank_testcase(60.0));
  a.merge(b);
  EXPECT_EQ(a.size(), 4u);
}

}  // namespace
}  // namespace uucs
