#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "testcase/resource.hpp"
#include "util/kvtext.hpp"

namespace uucs {

/// The result of one testcase run (§2.3). A *run* is "the execution of a
/// testcase during a specific task by a specific user". The paper records:
///  - whether the run terminated due to user feedback or testcase exhaustion,
///  - the time offset of the irritation/exhaustion report,
///  - the last five contention values per exercise function at feedback,
/// plus contextual information (client, foreground task, load, processes).
struct RunRecord {
  std::string run_id;       ///< unique per run
  std::string client_guid;  ///< the registered client that produced it
  std::string user_id;      ///< study participant id ("" when anonymous)
  std::string testcase_id;
  std::string task;         ///< foreground context, e.g. "word", "quake"

  bool discomforted = false;   ///< true: user feedback; false: exhausted
  double offset_s = 0.0;       ///< time into the testcase of the report/end

  /// Last <=5 contention values per exercised resource at the feedback
  /// point (keyed by resource name).
  std::map<std::string, std::vector<double>> last_levels;

  /// Free-form context: skill self-ratings, host power index, testcase
  /// shape, etc. Keys use dotted lowercase ("skill.quake", "host.power").
  std::map<std::string, std::string> metadata;

  /// Contention level in force for `r` at the feedback point (the last of
  /// last_levels under r's canonical name); nullopt if the resource was
  /// not exercised.
  std::optional<double> level_at_feedback(Resource r) const;

  /// The single resource the run exercised: last_levels has exactly one
  /// key and it is a canonical resource name (exact match, like
  /// level_at_feedback). nullopt for blank, multi-resource and
  /// non-canonically keyed runs.
  std::optional<Resource> single_resource() const;

  /// Sets last_levels for `r` from an exercise function's recording.
  void set_last_levels(Resource r, std::vector<double> values);

  /// Metadata accessors ("" / default when absent).
  std::string meta(const std::string& key, const std::string& dflt = "") const;
  double meta_double(const std::string& key, double dflt) const;

  /// Typed run outcome recorded by the live executor — "ok", "degraded",
  /// "failed", "hung", or "aborted" (see exerciser/supervisor.hpp). Healthy
  /// runs do not carry the key, so the default is "ok".
  std::string run_outcome() const;

  /// True when the host, not the user, shaped how the run ended or played
  /// (any non-ok outcome). Analysis excludes such records from comfort
  /// estimates: their contention schedule was not delivered faithfully.
  bool host_fault() const;

  KvRecord to_record() const;
  static RunRecord from_record(const KvRecord& rec);

  /// Zero-copy decode from a parsed KvDoc record (the ingest hot path);
  /// field semantics and error messages identical to from_record.
  static RunRecord from_kv(const KvDoc::Rec& rec);

  /// Appends this record in kv-text form to `out`, byte-identical to
  /// kv_serialize({to_record()}) but without materializing the intermediate
  /// KvRecord — the journal-entry and sync-response encoders build their
  /// buffers with this.
  void serialize_into(std::string& out) const;
};

/// Testcase-id naming scheme of the suites (testcase/suite): blank
/// testcases start with "blank"; a ramp / step on `r` contains
/// "<resource>-ramp" / "<resource>-step". Substring, not prefix, so the
/// Internet suite's "inet-cpu-ramp-0042" classifies like the controlled
/// study's "cpu-ramp-x2-t120". None of these allocates.
bool is_blank_testcase(std::string_view testcase_id);
bool is_ramp_testcase(std::string_view testcase_id, Resource r);
bool is_step_testcase(std::string_view testcase_id, Resource r);

/// One compact row per record of a ResultStore, classified by the rules
/// above, so the analysis scans read 48 bytes per run instead of walking
/// the record's strings and maps. Built by ResultStore::index(); rows[i]
/// describes records()[i].
struct RunIndex {
  struct Row {
    std::array<double, kResourceCount> level{};  ///< level_at_feedback(r), where has_level(r)
    double offset_s = 0.0;
    std::uint32_t task = 0;        ///< index into RunIndex::tasks
    std::uint8_t ramp_mask = 0;    ///< bit r: is_ramp_testcase(testcase_id, r)
    std::uint8_t level_mask = 0;   ///< bit r: level_at_feedback(r) present
    std::int8_t single = -1;       ///< single_resource() as a Resource value; -1 none
    bool blank : 1 = false;        ///< is_blank_testcase(testcase_id)
    bool host_fault : 1 = false;   ///< RunRecord::host_fault()
    bool discomforted : 1 = false;

    bool ramp(Resource r) const { return (ramp_mask >> static_cast<unsigned>(r)) & 1u; }
    bool has_level(Resource r) const {
      return (level_mask >> static_cast<unsigned>(r)) & 1u;
    }
    bool single_is(Resource r) const { return single == static_cast<int>(r); }
  };

  std::vector<std::string> tasks;  ///< distinct task strings, first-seen order
  std::vector<Row> rows;

  /// Classifies `records`; throws nothing on any record content.
  static RunIndex build(const std::vector<RunRecord>& records);

  /// Calls fn(i, rows[i]) in record order for every row whose task string
  /// is `task`, or for every row when `task` is empty (ResultStore::filter's
  /// task rule).
  template <class Fn>
  void for_each(std::string_view task, Fn&& fn) const {
    if (task.empty()) {
      for (std::size_t i = 0; i < rows.size(); ++i) fn(i, rows[i]);
      return;
    }
    std::uint32_t id = 0;
    while (id < tasks.size() && tasks[id] != task) ++id;
    if (id == tasks.size()) return;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].task == id) fn(i, rows[i]);
    }
  }
};

/// Append-only collection of run records with text-file persistence —
/// the client's local result store and the server's master result store.
///
/// The store carries a lazily built RunIndex for the analysis scans
/// (DESIGN.md §10): built on the first index() call, dropped by every
/// mutator and by assignment, never copied or moved with the records.
class ResultStore {
 public:
  ResultStore() = default;
  ResultStore(const ResultStore& other) : records_(other.records_) {}
  ResultStore(ResultStore&& other) noexcept;
  ResultStore& operator=(const ResultStore& other);
  ResultStore& operator=(ResultStore&& other) noexcept;
  ~ResultStore() { drop_index(); }

  void add(RunRecord r);

  /// Pre-sizes the backing vector (the study drivers know their run counts
  /// up front; this avoids growth reallocations during the merge).
  void reserve(std::size_t n);

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<RunRecord>& records() const { return records_; }
  const RunRecord& at(std::size_t i) const { return records_.at(i); }

  /// Records matching a predicate-style filter: empty filter matches all.
  std::vector<const RunRecord*> filter(const std::string& task,
                                       const std::string& testcase_prefix = "") const;

  /// Removes and returns all records (the client's upload-and-clear during
  /// a hot sync).
  std::vector<RunRecord> drain();

  /// Removes every record whose run_id is in `ids`; returns how many were
  /// removed (the client clears exactly the records the server acked).
  std::size_t remove_ids(const std::vector<std::string>& ids);

  void save(const std::string& path) const;
  static ResultStore load(const std::string& path);

  /// Appends all of `other`'s records.
  void merge(const ResultStore& other);

  /// The run index over records(), built on the first call after a
  /// mutation; the reference stays valid until the next mutation. Like
  /// every const member it may run concurrently with other const calls:
  /// racing first calls each build a copy, one is published by
  /// compare-exchange and the others are freed.
  const RunIndex& index() const;

 private:
  void drop_index() noexcept;

  std::vector<RunRecord> records_;
  mutable std::atomic<const RunIndex*> index_{nullptr};
};

// A million-job streaming study maps its jobs into a vector of (empty)
// stores, so the index may cost each store one pointer and no more.
static_assert(sizeof(ResultStore) <= sizeof(std::vector<RunRecord>) + 8);
static_assert(std::atomic<const RunIndex*>::is_always_lock_free);

}  // namespace uucs
