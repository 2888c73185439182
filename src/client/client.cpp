#include "client/client.hpp"

#include <unordered_set>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace uucs {

namespace {

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

UucsClient::UucsClient(HostSpec host, const ClientConfig& config)
    : host_(std::move(host)), config_(config), rng_(config.seed) {
  UUCS_CHECK_MSG(config_.sync_interval_s > 0, "sync interval must be positive");
  UUCS_CHECK_MSG(config_.mean_run_interarrival_s > 0,
                 "run interarrival mean must be positive");
}

void UucsClient::ensure_registered(ServerApi& server) {
  if (registered()) return;
  if (reg_nonce_.empty()) {
    // Idempotency key for registration retries. Minted from a *copy* of the
    // scheduling RNG so the stream itself is untouched (deterministic
    // studies stay bit-identical); uniqueness rides on the per-client seed,
    // which the studies draw from the population stream and the live binary
    // takes from process entropy. The hostname is mixed in as a tiebreak.
    Rng probe = rng_;
    reg_nonce_ = strprintf("%s-%016llx%016llx", host_.hostname.c_str(),
                           static_cast<unsigned long long>(probe()),
                           static_cast<unsigned long long>(probe()));
  }
  guid_ = server.register_client(host_, reg_nonce_);
  if (journal_) journal_->append("guid " + guid_.to_string());
  log_info("client", "registered as " + guid_.to_string());
}

void UucsClient::note_run_start(const std::string& run_id,
                                const std::string& testcase_id) {
  UUCS_CHECK_MSG(!run_id.empty(), "run-start marker needs a run id");
  if (journal_) journal_->append("start " + run_id + " " + testcase_id);
  open_runs_[run_id] = testcase_id;
}

void UucsClient::record_result(RunRecord rec) {
  rec.client_guid = guid_.to_string();
  if (journal_) journal_->append(kv_serialize({rec.to_record()}));
  open_runs_.erase(rec.run_id);
  pending_results_.add(std::move(rec));
}

std::size_t UucsClient::hot_sync(ServerApi& server) {
  ensure_registered(server);
  SyncRequest request;
  request.guid = guid_;
  request.protocol_version = static_cast<std::uint32_t>(
      config_.protocol_version < 1 ? 1 : config_.protocol_version);
  request.sync_seq = sync_seq_ + 1;
  request.known_testcase_ids = testcases_.ids();
  // Copies, not a drain: pending records stay queued until the server acks
  // their run_ids, so a failure anywhere below leaves nothing to restore.
  request.results = pending_results_.records();
  // Journal the seq advance *before* the server can observe it: if we crash
  // after the request leaves, replay restores a value >= anything the
  // server saw, keeping the sequence client-monotone across crashes.
  if (journal_) {
    journal_->append(strprintf("seq %llu",
                               static_cast<unsigned long long>(request.sync_seq)));
  }
  const SyncResponse response = server.hot_sync(request);
  sync_seq_ = request.sync_seq;
  last_server_protocol_ = response.protocol_version;
  if (response.protocol_version >= 2) {
    last_server_generation_ = response.server_generation;
  }
  if (!request.results.empty()) {
    pending_results_.remove_ids(response.stored_run_ids);
    // Records without a run_id cannot be acked individually; they keep the
    // old upload-and-clear semantics (they were all in this request).
    auto rest = pending_results_.drain();
    for (auto& r : rest) {
      if (!r.run_id.empty()) pending_results_.add(std::move(r));
    }
    if (journal_ && !response.stored_run_ids.empty()) {
      std::vector<std::string> acks;
      acks.reserve(response.stored_run_ids.size());
      for (const auto& id : response.stored_run_ids) acks.push_back("ack " + id);
      journal_->append_batch(std::move(acks));
      compact_journal_if_needed();
    }
  }
  for (auto& tc : response.new_testcases) testcases_.add(std::move(tc));
  return response.new_testcases.size();
}

void UucsClient::bump_serial_from_run_id(const std::string& run_id) {
  const auto slash = run_id.rfind('/');
  if (slash == std::string::npos) return;
  const auto n = parse_int(run_id.substr(slash + 1));
  if (n && *n >= 0 && static_cast<std::uint64_t>(*n) >= run_serial_) {
    run_serial_ = static_cast<std::uint64_t>(*n) + 1;
  }
}

void UucsClient::replay_journal_entry(const std::string& entry) {
  if (has_prefix(entry, "ack ")) {
    const std::string id = entry.substr(4);
    pending_results_.remove_ids({id});
    open_runs_.erase(id);
    bump_serial_from_run_id(id);
    return;
  }
  if (has_prefix(entry, "start ")) {
    const std::string rest = entry.substr(6);
    const auto space = rest.find(' ');
    if (space == std::string::npos || space == 0) {
      throw ParseError("client journal: malformed start marker '" +
                       entry.substr(0, 32) + "'");
    }
    const std::string run_id = rest.substr(0, space);
    open_runs_[run_id] = rest.substr(space + 1);
    bump_serial_from_run_id(run_id);
    return;
  }
  if (has_prefix(entry, "guid ")) {
    guid_ = Guid::parse(entry.substr(5));
    return;
  }
  if (has_prefix(entry, "serial ")) {
    const auto n = parse_int(entry.substr(7));
    if (n && *n >= 0 && static_cast<std::uint64_t>(*n) > run_serial_) {
      run_serial_ = static_cast<std::uint64_t>(*n);
    }
    return;
  }
  if (has_prefix(entry, "seq ")) {
    const auto n = parse_int(entry.substr(4));
    if (n && *n >= 0 && static_cast<std::uint64_t>(*n) > sync_seq_) {
      sync_seq_ = static_cast<std::uint64_t>(*n);
    }
    return;
  }
  const auto records = kv_parse(entry);
  if (records.empty() || records.front().type() != "run") {
    throw ParseError("client journal: unrecognized entry '" +
                     entry.substr(0, 32) + "'");
  }
  RunRecord rec = RunRecord::from_record(records.front());
  bump_serial_from_run_id(rec.run_id);
  if (!rec.run_id.empty()) open_runs_.erase(rec.run_id);
  // A record journaled twice (e.g. replay after partial compaction) must
  // not queue twice.
  if (!rec.run_id.empty()) {
    for (const auto& existing : pending_results_.records()) {
      if (existing.run_id == rec.run_id) return;
    }
  }
  pending_results_.add(std::move(rec));
}

std::size_t UucsClient::attach_journal(const std::string& path) {
  UUCS_CHECK_MSG(journal_ == nullptr, "client journal already attached");
  journal_ = std::make_unique<Journal>(Journal::open(path));
  const auto& entries = journal_->entries();
  for (const auto& entry : entries) replay_journal_entry(entry);
  const std::size_t replayed = entries.size();
  // Every start marker still open after replay is a run the previous
  // process never finished: the crash happened mid-run. Synthesize a typed
  // "aborted" record so the run surfaces to the server instead of
  // vanishing, and journal it so the synthesis itself is crash-durable.
  if (!open_runs_.empty()) {
    std::vector<std::string> journaled;
    for (const auto& [run_id, testcase_id] : open_runs_) {
      RunRecord rec;
      rec.run_id = run_id;
      rec.client_guid = guid_.is_nil() ? "" : guid_.to_string();
      rec.testcase_id = testcase_id;
      rec.discomforted = false;
      rec.offset_s = 0.0;
      rec.metadata["run.outcome"] = "aborted";
      rec.metadata["run.error"] = "client died mid-run; replayed from journal";
      journaled.push_back(kv_serialize({rec.to_record()}));
      pending_results_.add(std::move(rec));
      log_warn("client", "run " + run_id + " was open at crash; recorded as aborted");
    }
    open_runs_.clear();
    journal_->append_batch(std::move(journaled));
  }
  if (journal_->recovery().dropped_bytes > 0) {
    log_warn("client",
             strprintf("journal %s: dropped %zu torn bytes at tail", path.c_str(),
                       journal_->recovery().dropped_bytes));
  }
  return replayed;
}

std::vector<std::string> UucsClient::journal_keep_entries() const {
  std::vector<std::string> keep;
  keep.push_back(strprintf("serial %llu",
                           static_cast<unsigned long long>(run_serial_)));
  if (sync_seq_ > 0) {
    keep.push_back(strprintf("seq %llu",
                             static_cast<unsigned long long>(sync_seq_)));
  }
  if (registered()) keep.push_back("guid " + guid_.to_string());
  // Open starts survive compaction: a crash after a mid-run compaction must
  // still replay the run as aborted.
  for (const auto& [run_id, testcase_id] : open_runs_) {
    keep.push_back("start " + run_id + " " + testcase_id);
  }
  for (const auto& r : pending_results_.records()) {
    keep.push_back(kv_serialize({r.to_record()}));
  }
  return keep;
}

void UucsClient::compact_journal_if_needed() {
  if (!journal_ || journal_->size_bytes() < config_.journal_compact_bytes) return;
  journal_->compact(journal_keep_entries());
}

std::optional<std::string> UucsClient::choose_testcase_id(Rng& rng) const {
  return testcases_.random_id(rng);
}

double UucsClient::next_run_delay(Rng& rng) const {
  return rng.exponential(config_.mean_run_interarrival_s);
}

std::string UucsClient::next_run_id() {
  return strprintf("%s/%llu", guid_.to_string().c_str(),
                   static_cast<unsigned long long>(run_serial_++));
}

void UucsClient::save(const std::string& dir) const {
  make_dirs(dir);
  testcases_.save(dir + "/testcases.txt");
  pending_results_.save(dir + "/pending_results.txt");
  KvRecord rec("client");
  rec.set("guid", guid_.is_nil() ? "" : guid_.to_string());
  rec.set_int("run_serial", static_cast<std::int64_t>(run_serial_));
  rec.set_int("sync_seq", static_cast<std::int64_t>(sync_seq_));
  std::vector<KvRecord> records{rec, host_.to_record()};
  kv_save_file(dir + "/client.txt", records);
  // The snapshot files are written atomically + durably, so shrinking the
  // journal afterwards never leaves acked state protected by neither.
  if (journal_) journal_->compact(journal_keep_entries());
}

UucsClient UucsClient::load(const std::string& dir, const ClientConfig& config) {
  const auto records = kv_load_file(dir + "/client.txt");
  if (records.size() < 2 || records[0].type() != "client") {
    throw ParseError(dir + "/client.txt: expected [client] + [host] records");
  }
  UucsClient client(HostSpec::from_record(records[1]), config);
  const std::string guid = records[0].get_or("guid", "");
  if (!guid.empty()) client.guid_ = Guid::parse(guid);
  client.run_serial_ =
      static_cast<std::uint64_t>(records[0].get_int_or("run_serial", 0));
  client.sync_seq_ =
      static_cast<std::uint64_t>(records[0].get_int_or("sync_seq", 0));
  client.testcases_ = TestcaseStore::load(dir + "/testcases.txt");
  client.pending_results_ = ResultStore::load(dir + "/pending_results.txt");
  return client;
}

}  // namespace uucs
