#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "monitor/sysinfo.hpp"
#include "testcase/run_record.hpp"
#include "testcase/store.hpp"
#include "util/guid.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace uucs {

/// A registered client: the GUID the server assigned plus the registration
/// snapshot (§2: registration provides "a detailed snapshot of the hardware
/// and software of the client machine").
struct ClientRegistration {
  Guid guid;
  HostSpec host;
  double registered_at = 0.0;  ///< server-clock seconds
  std::size_t sync_count = 0;  ///< completed hot syncs (drives sample growth)
  std::uint64_t last_sync_seq = 0;  ///< highest sync sequence number seen
  std::string nonce;  ///< client-supplied idempotency key ("" = none)
};

/// What a client sends on a hot sync.
struct SyncRequest {
  Guid guid;
  std::uint64_t sync_seq = 0;  ///< client-monotone sync counter (retries reuse it)
  std::vector<std::string> known_testcase_ids;  ///< already downloaded
  std::vector<RunRecord> results;               ///< new results to upload
  /// Wire protocol version this request is encoded in (see protocol.hpp);
  /// 1 on the wire when the key is absent, so old clients need no change.
  std::uint32_t protocol_version = 1;
};

/// What the server returns from a hot sync.
struct SyncResponse {
  std::vector<Testcase> new_testcases;  ///< growing random sample
  std::size_t accepted_results = 0;     ///< newly stored this sync
  std::size_t duplicate_results = 0;    ///< already held (a retried upload)
  /// Every uploaded run_id the server now durably holds — new or duplicate.
  /// The client clears exactly these from its pending store, which makes a
  /// retry after a lost response exactly-once.
  std::vector<std::string> stored_run_ids;
  std::size_t server_testcase_count = 0;
  /// Version the response is encoded in: mirrors the request's (a v1
  /// request gets a byte-identical v1 response).
  std::uint32_t protocol_version = 1;
  /// Server generation (bumped per live takeover); meaningful — and on the
  /// wire — only at protocol v2.
  std::uint64_t server_generation = 0;
};

/// The UUCS server (§2): holds the master testcase store, collects results,
/// registers clients, and hands each syncing client a *growing random
/// sample* of testcases — combined with the client's local random choice
/// and Poisson execution times, this makes the fleet execute a random
/// sample with respect to testcases, users, and times.
///
/// Uploads are idempotent: results are deduplicated by run_id, so a client
/// that retries a hot sync after a lost response stores each record exactly
/// once. With attach_journal(), every accepted result and registration is
/// journaled (fsync'd) before it is acknowledged, so a crash between
/// save() snapshots loses nothing.
///
/// Sharding (the million-connection ingest plane, DESIGN.md §13): the
/// mutable per-client state — registrations, the run_id dedup index, the
/// result rows, the sampling RNG — lives in `shard_count` independently
/// locked shards keyed by client-GUID hash, so event-loop worker threads
/// handling different clients never serialize on one mutex. With the
/// default single shard the server behaves bit-for-bit like the pre-shard
/// implementation (one state block, one RNG, same draw sequence), which is
/// what the simulators and golden fixtures pin. register_client and
/// hot_sync are thread-safe at any shard count; the bulk accessors
/// (results(), registration(), save()) take the shard locks they need but
/// return references that assume the caller reads them quiesced.
///
/// Dedup scope: run_ids are client-scoped unique (the client mints
/// "guid/serial"), and every upload and retry of a record arrives under the
/// same client GUID, so the per-shard dedup index sees all copies of a
/// given run_id in one shard.
class UucsServer {
 public:
  /// `sample_batch`: how many fresh testcases each hot sync may add.
  /// `shard_count`: independently locked state shards (see class comment).
  explicit UucsServer(std::uint64_t seed = 1, std::size_t sample_batch = 16,
                      std::size_t shard_count = 1);

  /// Movable so factories (load()) can return by value. Moving a server that
  /// other threads are touching is undefined — move only quiesced instances;
  /// the mutexes themselves are not moved (the target gets fresh ones, and
  /// per-shard locks travel inside their heap-allocated shards).
  UucsServer(UucsServer&& other) noexcept;
  UucsServer& operator=(UucsServer&& other) noexcept;
  UucsServer(const UucsServer&) = delete;
  UucsServer& operator=(const UucsServer&) = delete;

  /// Testcase catalog management (new testcases may be added at any time;
  /// guarded by a reader-writer lock against concurrent hot syncs).
  void add_testcase(Testcase tc);
  void add_testcases(const TestcaseStore& store);
  const TestcaseStore& testcases() const { return testcases_; }

  std::size_t shard_count() const { return shards_.size(); }

  /// Registers a client and returns its new globally unique identifier.
  /// A non-empty `nonce` makes registration idempotent: if a registration
  /// with the same nonce already exists (this process, a journal replay, or
  /// a snapshot), its GUID is returned instead of minting an orphan — so a
  /// client retrying after a lost register response stays one client.
  ///
  /// With a journal attached and `journal_out == nullptr`, the registration
  /// entry is appended (fsync'd) before this returns. With `journal_out`
  /// non-null the caller owns durability and must not release the response
  /// before the entry is on disk. With a committer attached (see
  /// attach_committer) the entry is queued on it under the lock that
  /// publishes the registration, and `*lsn_out` receives the LSN the
  /// response observed: the new entry's, or for a repeated nonce the
  /// registration table's high-water LSN, which covers the original. With
  /// no committer the entry is handed back in `journal_out` instead.
  Guid register_client(const HostSpec& host, double now = 0.0,
                       const std::string& nonce = "",
                       std::vector<std::string>* journal_out = nullptr,
                       std::uint64_t* lsn_out = nullptr);

  /// True if `guid` belongs to a registered client.
  bool is_registered(const Guid& guid) const;
  const ClientRegistration& registration(const Guid& guid) const;
  std::size_t client_count() const;

  /// Handles one hot sync: stores the uploaded results (deduplicated by
  /// run_id) and returns a fresh batch of testcases the client does not
  /// have yet. Throws Error for an unregistered guid.
  ///
  /// Journal handling matches register_client: with `journal_out` null the
  /// accepted results are appended + fsync'd before returning; non-null
  /// defers durability to the caller, which must not release the response
  /// (the ack) before it holds. With a committer attached the entries are
  /// queued under the shard lock, and `*lsn_out` receives the shard's
  /// high-water LSN when the request carried results (it covers both the
  /// new entries and the original behind a duplicate) and 0 when it carried
  /// none: a result-free sync observes no journaled state.
  ///
  /// This overload copies each accepted record into the store and reads
  /// the request in place (the in-process callers keep their request).
  SyncResponse hot_sync(const SyncRequest& request,
                        std::vector<std::string>* journal_out = nullptr,
                        std::uint64_t* lsn_out = nullptr);
  /// Same, but moves each accepted record into the store: the wire
  /// dispatch decodes a request only to hand it over. `request.results`
  /// is left holding moved-from records.
  SyncResponse hot_sync(SyncRequest&& request,
                        std::vector<std::string>* journal_out = nullptr,
                        std::uint64_t* lsn_out = nullptr);

  /// True if a result with this run_id has been stored via hot_sync (or
  /// recovered from a snapshot/journal).
  bool has_result(const std::string& run_id) const;

  /// All results uploaded so far. With one shard this is the live store;
  /// with several it is a merged view (shard-index order, arrival order
  /// within a shard) rebuilt when stale — call it quiesced.
  const ResultStore& results() const;

  /// Direct store access for the in-process simulators (single-threaded
  /// deployments only; rows land in shard 0 and bypass the dedup index,
  /// exactly like the pre-shard implementation).
  ResultStore& mutable_results();

  /// Opens (creating if needed) an fsync'd append-only journal at `path`,
  /// replays any entries that survived a crash, and from now on journals
  /// every accepted result and registration before acknowledging it.
  /// Returns the number of journal entries recovered. Replayed entries are
  /// routed to shards by the client GUID they carry.
  std::size_t attach_journal(const std::string& path);
  bool has_journal() const { return journal_ != nullptr; }
  const Journal* journal() const { return journal_.get(); }
  Journal* mutable_journal() { return journal_.get(); }

  /// Hands the deferred-durability path (`journal_out` non-null) to
  /// `committer`, a GroupCommitJournal over this server's journal; nullptr
  /// hands it back. While attached, register_client and hot_sync queue
  /// their entries on it under the lock that publishes their state, so a
  /// duplicate or a repeated nonce — which reads that state under the same
  /// lock — always observes an LSN at or past the original's. They ring
  /// the committer's notify() after releasing the lock. Call quiesced: the
  /// LSN high-water marks restart at 0 for the new committer.
  void attach_committer(GroupCommitJournal* committer);

  /// Persists stores as text files under `dir` (testcases.txt, results.txt,
  /// registrations.txt). With a journal attached, the journal is compacted
  /// to empty afterwards — the snapshot now holds everything. Takes every
  /// shard lock, so it is safe to call while syncs are in flight (they
  /// stall for the snapshot's duration); the journal side must be quiesced
  /// by the caller when a group-commit thread is attached to it.
  void save(const std::string& dir) const;

  /// Loads stores previously saved with save().
  static UucsServer load(const std::string& dir, std::uint64_t seed = 1,
                         std::size_t shard_count = 1);

  /// Server generation: bumped by one at every live takeover, so clients
  /// (and the `uucsctl upgrade` verifier) can observe a rollout happening.
  /// In-memory only — a restart from disk starts back at 0, which is fine
  /// because the generation orders *handoffs*, not persisted state.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  void set_generation(std::uint64_t g) {
    generation_.store(g, std::memory_order_release);
  }

 private:
  /// One independently locked slice of the mutable per-client state.
  struct Shard {
    mutable std::mutex mu;
    std::map<Guid, ClientRegistration> clients;
    std::unordered_set<std::string> seen_run_ids;  ///< dedup index over results
    ResultStore results;
    Rng rng{1};  ///< growing-sample draws for clients homed here
    std::uint64_t lsn = 0;  ///< highest committer LSN queued for this shard
  };

  Shard& shard_of(const Guid& guid) const;
  KvRecord registration_record(const Guid& guid, const ClientRegistration& reg) const;
  void restore_registration(const KvRecord& rec);
  bool restore_result(RunRecord r, bool dedup);
  void index_results();
  void append_blocking(std::vector<std::string>&& entries);
  /// The one hot_sync body. `Request` is `const SyncRequest` (accepted
  /// records are copied into the store) or `SyncRequest` (moved).
  template <class Request>
  SyncResponse apply_sync(Request& request, std::vector<std::string>* journal_out,
                          std::uint64_t* lsn_out);

  TestcaseStore testcases_;
  mutable std::shared_mutex testcases_mu_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Registration path: nonce idempotency index + GUID minting order. Taken
  /// before any shard lock; never taken while one is held.
  mutable std::mutex reg_mu_;
  std::map<std::string, Guid> reg_nonces_;
  std::uint64_t reg_lsn_ = 0;  ///< highest committer LSN of a registration

  std::size_t sample_batch_;
  std::unique_ptr<Journal> journal_;
  mutable std::mutex journal_mu_;  ///< serializes blocking appends
  GroupCommitJournal* committer_ = nullptr;  ///< see attach_committer

  std::atomic<std::uint64_t> generation_{0};

  /// Merged results() view for shard_count > 1.
  mutable std::mutex merged_mu_;
  mutable ResultStore merged_results_;
  mutable std::uint64_t merged_version_ = 0;
  mutable std::atomic<std::uint64_t> results_version_{1};
};

}  // namespace uucs
