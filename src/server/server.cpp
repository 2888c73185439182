#include "server/server.hpp"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/logging.hpp"

namespace uucs {

namespace {

/// Stable 64→shard mix (splitmix-style finalizer) so client GUIDs spread
/// evenly across shards regardless of how the RNG laid out their bits.
std::size_t shard_index_of(const Guid& guid, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  std::uint64_t h = guid.hi ^ (guid.lo + 0x9e3779b97f4a7c15ULL);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % shard_count);
}

/// Routing key for replayed/loaded rows: the client_guid the record carries.
/// Rows without one (hand-built records from the in-process simulators, or
/// pre-guid archives) home in shard 0.
std::size_t shard_index_of(const std::string& guid_text, std::size_t shard_count) {
  if (shard_count <= 1 || guid_text.empty()) return 0;
  try {
    return shard_index_of(Guid::parse(guid_text), shard_count);
  } catch (const std::exception&) {
    return 0;
  }
}

}  // namespace

UucsServer::UucsServer(std::uint64_t seed, std::size_t sample_batch,
                       std::size_t shard_count)
    : sample_batch_(sample_batch) {
  UUCS_CHECK_MSG(sample_batch_ > 0, "sample batch must be positive");
  UUCS_CHECK_MSG(shard_count > 0, "shard count must be positive");
  shards_.reserve(shard_count);
  // Shard 0's generator is seeded exactly like the pre-shard rng_ member, so
  // a single-shard server draws the same GUIDs and samples byte-for-byte.
  // Extra shards get independent streams forked from a separate seeder that
  // never perturbs shard 0's sequence.
  Rng seeder(seed);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->rng = (i == 0) ? Rng(seed) : seeder.fork(i);
    shards_.push_back(std::move(shard));
  }
}

UucsServer::UucsServer(UucsServer&& other) noexcept
    : testcases_(std::move(other.testcases_)),
      shards_(std::move(other.shards_)),
      reg_nonces_(std::move(other.reg_nonces_)),
      reg_lsn_(other.reg_lsn_),
      sample_batch_(other.sample_batch_),
      journal_(std::move(other.journal_)),
      committer_(std::exchange(other.committer_, nullptr)),
      generation_(other.generation_.load(std::memory_order_relaxed)),
      merged_results_(std::move(other.merged_results_)),
      merged_version_(other.merged_version_),
      results_version_(other.results_version_.load(std::memory_order_relaxed)) {}

UucsServer& UucsServer::operator=(UucsServer&& other) noexcept {
  if (this != &other) {
    testcases_ = std::move(other.testcases_);
    shards_ = std::move(other.shards_);
    reg_nonces_ = std::move(other.reg_nonces_);
    reg_lsn_ = other.reg_lsn_;
    sample_batch_ = other.sample_batch_;
    journal_ = std::move(other.journal_);
    committer_ = std::exchange(other.committer_, nullptr);
    generation_.store(other.generation_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    merged_results_ = std::move(other.merged_results_);
    merged_version_ = other.merged_version_;
    results_version_.store(other.results_version_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }
  return *this;
}

UucsServer::Shard& UucsServer::shard_of(const Guid& guid) const {
  return *shards_[shard_index_of(guid, shards_.size())];
}

void UucsServer::add_testcase(Testcase tc) {
  std::unique_lock lock(testcases_mu_);
  testcases_.add(std::move(tc));
}

void UucsServer::add_testcases(const TestcaseStore& store) {
  std::unique_lock lock(testcases_mu_);
  testcases_.merge(store);
}

KvRecord UucsServer::registration_record(const Guid& guid,
                                         const ClientRegistration& reg) const {
  KvRecord rec = reg.host.to_record();
  rec.set_type("registration");
  rec.set("guid", guid.to_string());
  rec.set_double("registered_at", reg.registered_at);
  rec.set_int("sync_count", static_cast<std::int64_t>(reg.sync_count));
  rec.set_int("last_sync_seq", static_cast<std::int64_t>(reg.last_sync_seq));
  if (!reg.nonce.empty()) rec.set("nonce", reg.nonce);
  return rec;
}

void UucsServer::restore_registration(const KvRecord& rec) {
  ClientRegistration reg;
  reg.guid = Guid::parse(rec.get("guid"));
  KvRecord host_rec = rec;
  host_rec.set_type("host");
  reg.host = HostSpec::from_record(host_rec);
  reg.registered_at = rec.get_double_or("registered_at", 0.0);
  reg.sync_count = static_cast<std::size_t>(rec.get_int_or("sync_count", 0));
  reg.last_sync_seq =
      static_cast<std::uint64_t>(rec.get_int_or("last_sync_seq", 0));
  reg.nonce = rec.get_or("nonce", "");
  const Guid guid = reg.guid;
  if (!reg.nonce.empty()) reg_nonces_[reg.nonce] = guid;
  shard_of(guid).clients[guid] = std::move(reg);
}

bool UucsServer::restore_result(RunRecord r, bool dedup) {
  Shard& shard = *shards_[shard_index_of(r.client_guid, shards_.size())];
  if (!r.run_id.empty()) {
    if (dedup && shard.seen_run_ids.count(r.run_id) != 0) return false;
    shard.seen_run_ids.insert(r.run_id);
  }
  shard.results.add(std::move(r));
  return true;
}

void UucsServer::index_results() {
  for (auto& shard : shards_) {
    shard->seen_run_ids.clear();
    for (const auto& r : shard->results.records()) {
      if (!r.run_id.empty()) shard->seen_run_ids.insert(r.run_id);
    }
  }
}

void UucsServer::append_blocking(std::vector<std::string>&& entries) {
  std::lock_guard lock(journal_mu_);
  journal_->append_batch(std::move(entries));
}

void UucsServer::attach_committer(GroupCommitJournal* committer) {
  committer_ = committer;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->lsn = 0;
  }
  std::lock_guard reg_lock(reg_mu_);
  reg_lsn_ = 0;
}

Guid UucsServer::register_client(const HostSpec& host, double now,
                                 const std::string& nonce,
                                 std::vector<std::string>* journal_out,
                                 std::uint64_t* lsn_out) {
  GroupCommitJournal* const committer =
      journal_ && journal_out != nullptr ? committer_ : nullptr;
  std::unique_lock reg_lock(reg_mu_);
  if (!nonce.empty()) {
    const auto it = reg_nonces_.find(nonce);
    if (it != reg_nonces_.end()) {
      // Retry of a registration whose response was lost: same client, same
      // GUID — no orphan row, nothing new to journal. The original's entry
      // was queued under this lock, so the table's LSN covers it.
      log_info("server", "duplicate registration (nonce " + nonce +
                             ") -> existing client " + it->second.to_string());
      if (lsn_out != nullptr) *lsn_out = reg_lsn_;
      return it->second;
    }
  }
  ClientRegistration reg;
  {
    // GUIDs mint from shard 0's generator — the pre-shard rng_ — which keeps
    // the single-shard draw sequence identical to the old implementation.
    std::lock_guard mint_lock(shards_[0]->mu);
    reg.guid = Guid::generate(shards_[0]->rng);
  }
  reg.host = host;
  reg.registered_at = now;
  reg.nonce = nonce;
  const Guid guid = reg.guid;
  if (journal_) {
    std::vector<std::string> entries{kv_serialize({registration_record(guid, reg)})};
    if (committer != nullptr) {
      reg_lsn_ = committer->append(std::move(entries));
      if (lsn_out != nullptr) *lsn_out = reg_lsn_;
    } else if (journal_out != nullptr) {
      // Deferred-ack path without a committer: the caller owns durability
      // and must fsync these before the response leaves the server.
      for (auto& e : entries) journal_out->push_back(std::move(e));
    } else {
      append_blocking(std::move(entries));
    }
  }
  if (!nonce.empty()) reg_nonces_[nonce] = guid;
  {
    Shard& shard = shard_of(guid);
    std::lock_guard shard_lock(shard.mu);
    shard.clients.emplace(guid, std::move(reg));
  }
  reg_lock.unlock();
  if (committer != nullptr) committer->notify();
  log_info("server", "registered client " + guid.to_string());
  return guid;
}

bool UucsServer::is_registered(const Guid& guid) const {
  Shard& shard = shard_of(guid);
  std::lock_guard lock(shard.mu);
  return shard.clients.count(guid) != 0;
}

const ClientRegistration& UucsServer::registration(const Guid& guid) const {
  Shard& shard = shard_of(guid);
  std::lock_guard lock(shard.mu);
  const auto it = shard.clients.find(guid);
  if (it == shard.clients.end()) throw Error("unknown client " + guid.to_string());
  return it->second;
}

std::size_t UucsServer::client_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    n += shard->clients.size();
  }
  return n;
}

bool UucsServer::has_result(const std::string& run_id) const {
  if (run_id.empty()) return false;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    if (shard->seen_run_ids.count(run_id) != 0) return true;
  }
  return false;
}

SyncResponse UucsServer::hot_sync(const SyncRequest& request,
                                  std::vector<std::string>* journal_out,
                                  std::uint64_t* lsn_out) {
  return apply_sync(request, journal_out, lsn_out);
}

SyncResponse UucsServer::hot_sync(SyncRequest&& request,
                                  std::vector<std::string>* journal_out,
                                  std::uint64_t* lsn_out) {
  return apply_sync(request, journal_out, lsn_out);
}

template <class Request>
SyncResponse UucsServer::apply_sync(Request& request,
                                    std::vector<std::string>* journal_out,
                                    std::uint64_t* lsn_out) {
  GroupCommitJournal* const committer =
      journal_ && journal_out != nullptr ? committer_ : nullptr;
  Shard& shard = shard_of(request.guid);
  SyncResponse response;
  response.protocol_version =
      request.protocol_version == 0 ? 1 : request.protocol_version;
  response.server_generation = generation();
  response.stored_run_ids.reserve(request.results.size());
  std::vector<std::string> journal_entries;
  if (journal_) journal_entries.reserve(request.results.size());
  bool queued = false;
  {
    std::lock_guard shard_lock(shard.mu);
    const auto it = shard.clients.find(request.guid);
    if (it == shard.clients.end()) {
      throw Error("hot sync from unregistered client " + request.guid.to_string());
    }
    ClientRegistration& reg = it->second;

    // Exactly-once uploads: a run_id the store already holds is a retry of a
    // sync whose response was lost — acknowledge it without storing again.
    // (Dedup is shard-local, which is complete because every upload of a
    // given run_id arrives under the same client GUID and therefore lands in
    // the same shard.)
    for (auto& r : request.results) {
      if (!r.run_id.empty()) {
        if (shard.seen_run_ids.count(r.run_id) != 0) {
          ++response.duplicate_results;
          response.stored_run_ids.push_back(r.run_id);
          continue;
        }
        shard.seen_run_ids.insert(r.run_id);
        response.stored_run_ids.push_back(r.run_id);
      }
      if (journal_) {
        // Journal bytes are pinned: serialize_into is byte-identical to
        // kv_serialize({r.to_record()}) without the intermediate KvRecord.
        // It writes into a warm per-thread buffer, and the entry is copied
        // out at its exact size: one allocation, and no slack capacity in
        // the journal that keeps the string.
        thread_local std::string entry;
        entry.clear();
        r.serialize_into(entry);
        journal_entries.emplace_back(entry);
      }
      if constexpr (std::is_const_v<Request>) {
        shard.results.add(r);
      } else {
        shard.results.add(std::move(r));
      }
      ++response.accepted_results;
    }
    if (response.accepted_results > 0) {
      results_version_.fetch_add(1, std::memory_order_relaxed);
    }

    // Growing random sample: every sync may add up to sample_batch_ fresh
    // testcases on top of what the client already holds. The draw comes from
    // the client's home-shard generator, so syncs on different shards never
    // serialize on one RNG.
    {
      std::shared_lock tc_lock(testcases_mu_);
      const auto fresh_ids = testcases_.random_sample(sample_batch_, shard.rng,
                                                      request.known_testcase_ids);
      response.new_testcases.reserve(fresh_ids.size());
      for (const auto& id : fresh_ids) {
        response.new_testcases.push_back(testcases_.get(id));
      }
      response.server_testcase_count = testcases_.size();
    }
    ++reg.sync_count;
    if (request.sync_seq > reg.last_sync_seq) reg.last_sync_seq = request.sync_seq;

    // Queued before the shard lock drops, so a duplicate of any of these
    // run_ids — which can only be seen under this lock — finds shard.lsn
    // at or past their LSN.
    if (committer != nullptr) {
      if (!journal_entries.empty()) {
        shard.lsn = committer->append(std::move(journal_entries));
        queued = true;
      }
      if (lsn_out != nullptr) *lsn_out = request.results.empty() ? 0 : shard.lsn;
    }
  }
  if (committer != nullptr) {
    if (queued) committer->notify();
    return response;
  }

  // Durable before acknowledged: once the response leaves, a crash cannot
  // lose what it acked. The blocking path fsyncs here; the deferred path
  // hands the entries to the caller, which fsyncs them before releasing
  // the response.
  if (journal_ && !journal_entries.empty()) {
    if (journal_out == nullptr) {
      append_blocking(std::move(journal_entries));
    } else if (journal_out->empty()) {
      *journal_out = std::move(journal_entries);
    } else {
      journal_out->insert(journal_out->end(),
                          std::make_move_iterator(journal_entries.begin()),
                          std::make_move_iterator(journal_entries.end()));
    }
  }
  return response;
}

const ResultStore& UucsServer::results() const {
  if (shards_.size() == 1) return shards_[0]->results;
  std::lock_guard merged_lock(merged_mu_);
  const std::uint64_t version = results_version_.load(std::memory_order_acquire);
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->results.size();
  }
  // Size is compared as well as the version so mutations through
  // mutable_results() (which bypass the version counter by design) still
  // invalidate the cache.
  if (version != merged_version_ || total != merged_results_.size()) {
    ResultStore merged;
    merged.reserve(total);
    for (const auto& shard : shards_) {
      std::lock_guard lock(shard->mu);
      merged.merge(shard->results);
    }
    merged_results_ = std::move(merged);
    merged_version_ = version;
  }
  return merged_results_;
}

ResultStore& UucsServer::mutable_results() { return shards_[0]->results; }

std::size_t UucsServer::attach_journal(const std::string& path) {
  journal_ = std::make_unique<Journal>(Journal::open(path));
  index_results();
  std::size_t recovered = 0;
  for (const auto& entry : journal_->entries()) {
    const auto records = kv_parse(entry);
    if (records.empty()) continue;
    const KvRecord& rec = records.front();
    if (rec.type() == "run") {
      if (restore_result(RunRecord::from_record(rec), /*dedup=*/true)) ++recovered;
    } else if (rec.type() == "registration") {
      restore_registration(rec);
      ++recovered;
    } else {
      throw ParseError("journal " + path + ": unexpected [" + rec.type() + "] entry");
    }
  }
  if (recovered > 0 || journal_->recovery().dropped_bytes > 0) {
    log_info("server",
             "journal " + path + ": recovered " + std::to_string(recovered) +
                 " entries, dropped " +
                 std::to_string(journal_->recovery().dropped_bytes) +
                 " torn bytes");
  }
  return recovered;
}

void UucsServer::save(const std::string& dir) const {
  make_dirs(dir);
  // Every shard is held for the snapshot's duration so the three files are a
  // consistent cut; in-flight syncs stall rather than straddle it.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (const auto& shard : shards_) shard_locks.emplace_back(shard->mu);

  {
    std::shared_lock tc_lock(testcases_mu_);
    testcases_.save(dir + "/testcases.txt");
  }
  if (shards_.size() == 1) {
    shards_[0]->results.save(dir + "/results.txt");
  } else {
    ResultStore merged;
    for (const auto& shard : shards_) merged.merge(shard->results);
    merged.save(dir + "/results.txt");
  }
  // Registrations are sorted by GUID across shards, matching the single-map
  // iteration order the pre-shard implementation wrote.
  std::vector<std::pair<Guid, const ClientRegistration*>> regs;
  for (const auto& shard : shards_) {
    for (const auto& [guid, reg] : shard->clients) regs.emplace_back(guid, &reg);
  }
  std::sort(regs.begin(), regs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<KvRecord> reg_records;
  reg_records.reserve(regs.size());
  for (const auto& [guid, reg] : regs) {
    reg_records.push_back(registration_record(guid, *reg));
  }
  kv_save_file(dir + "/registrations.txt", reg_records);
  // Each snapshot file above is written atomically + durably (tmp + fsync +
  // rename), so only after all of them are safely on disk may the journal —
  // the only other copy of acknowledged data — be compacted away.
  if (journal_) {
    std::lock_guard journal_lock(journal_mu_);
    journal_->compact({});
  }
}

UucsServer UucsServer::load(const std::string& dir, std::uint64_t seed,
                            std::size_t shard_count) {
  UucsServer server(seed, 16, shard_count);
  server.testcases_ = TestcaseStore::load(dir + "/testcases.txt");
  for (auto& r : ResultStore::load(dir + "/results.txt").drain()) {
    server.restore_result(std::move(r), /*dedup=*/false);
  }
  for (const auto& rec : kv_load_file(dir + "/registrations.txt")) {
    if (rec.type() != "registration") {
      throw ParseError("expected [registration] record, got [" + rec.type() + "]");
    }
    server.restore_registration(rec);
  }
  return server;
}

}  // namespace uucs
