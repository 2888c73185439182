// Ack-durability tests: the deferred dispatch path against a real
// group-commit journal, with the commit thread held inside its fault hook —
// after it took a batch, before that batch reaches the disk. A duplicate
// upload or a repeated registration nonce dispatched in that window must not
// be acknowledged until the original's entry is on disk: each ack callback
// reopens the journal and checks that a restarting server would recover the
// state the ack vouches for. A result-free sync, which vouches for nothing,
// must be acknowledged at once.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "monitor/sysinfo.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"
#include "util/kvtext.hpp"

namespace uucs {
namespace {

using namespace std::chrono_literals;

/// Parks the commit thread inside the fault hook of the first batch after
/// arm(), until release().
class BatchHold {
 public:
  std::function<JournalFault()> hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        armed_ = false;
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
      return JournalFault{};
    };
  }
  void arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  bool wait_held() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, 5s, [&] { return held_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
};

/// A journaled server whose deferred path queues on a group-commit journal
/// that never holds a batch (window 0), wired the way IngestServer wires them.
struct HeldPlane {
  TempDir dir;
  UucsServer server{41, 4, /*shard_count=*/2};
  BatchHold hold;
  std::unique_ptr<GroupCommitJournal> committer;

  HeldPlane() {
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server.attach_journal(path());
    GroupCommitJournal::Config cfg;
    cfg.max_wait_us = 0;
    cfg.fault_hook = hold.hook();
    committer = std::make_unique<GroupCommitJournal>(*server.mutable_journal(), cfg);
    server.attach_committer(committer.get());
  }
  ~HeldPlane() {
    hold.release();  // a failed assertion must not leave the committer parked
    server.attach_committer(nullptr);
    committer.reset();
  }

  std::string path() const { return dir.file("server.journal"); }

  /// Registers through the deferred path and waits for it to be durable.
  Guid register_client(const std::string& nonce) {
    const DispatchResult reg = dispatch_request_deferred(
        server, encode_register_request(HostSpec::paper_study_machine(), nonce));
    committer->flush();
    return Guid::parse(kv_parse(reg.response).front().get("guid"));
  }
};

/// What a server restarting from the journal right now would hold.
bool journal_recovers_run(const std::string& path, const std::string& run_id) {
  UucsServer replay;
  replay.attach_journal(path);
  return replay.has_result(run_id);
}

bool journal_recovers_client(const std::string& path, const Guid& guid) {
  UucsServer replay;
  replay.attach_journal(path);
  return replay.is_registered(guid);
}

std::string upload_of(const Guid& guid, const std::string& run_id) {
  SyncRequest req;
  req.guid = guid;
  req.sync_seq = 1;
  req.protocol_version = kProtocolVersionMax;
  RunRecord r;
  r.run_id = run_id;
  r.client_guid = guid.to_string();
  r.testcase_id = "memory-ramp-x1-t120";
  r.task = "quake";
  r.offset_s = 42.0;
  req.results.push_back(r);
  return encode_sync_request(req);
}

/// One reply's durability callback: whether it fired, and whether the state
/// it vouches for was recoverable from disk at that moment.
struct AckProbe {
  std::atomic<bool> fired{false};
  std::atomic<bool> durable{false};
  std::atomic<bool> on_disk{false};
};

TEST(AckDurability, DuplicateUploadAckWaitsForTheOriginalsFsync) {
  HeldPlane plane;
  const Guid guid = plane.register_client("n-upload");
  const std::string run_id = guid.to_string() + "/1";
  const std::string upload = upload_of(guid, run_id);

  plane.hold.arm();
  const DispatchResult original = dispatch_request_deferred(plane.server, upload);
  ASSERT_TRUE(plane.hold.wait_held()) << "the original's batch never reached the disk";

  // The client retries (its first ack was lost, say) while the original's
  // batch is taken but unwritten: the retry is a dedup hit.
  const DispatchResult retry = dispatch_request_deferred(plane.server, upload);
  EXPECT_EQ(kv_parse(retry.response).front().get_int("duplicate_results"), 1);
  EXPECT_GE(retry.lsn, original.lsn);

  AckProbe ack;
  plane.committer->wait(retry.lsn, [&](bool durable) {
    ack.durable = durable;
    ack.on_disk = journal_recovers_run(plane.path(), run_id);
    ack.fired = true;
  });
  EXPECT_FALSE(ack.fired.load()) << "duplicate acked before the original was durable";

  plane.hold.release();
  plane.committer->flush();
  ASSERT_TRUE(ack.fired.load());
  EXPECT_TRUE(ack.durable.load());
  EXPECT_TRUE(ack.on_disk.load()) << "acked run " << run_id << " is not in the journal";
}

TEST(AckDurability, RepeatedNonceAckWaitsForTheOriginalRegistration) {
  HeldPlane plane;
  const std::string reg =
      encode_register_request(HostSpec::paper_study_machine(), "n-register");

  plane.hold.arm();
  const DispatchResult original = dispatch_request_deferred(plane.server, reg);
  ASSERT_TRUE(plane.hold.wait_held()) << "the registration's batch never reached the disk";

  // The register response was lost; the client retries with the same nonce
  // and gets the same GUID back.
  const DispatchResult retry = dispatch_request_deferred(plane.server, reg);
  ASSERT_EQ(retry.response, original.response);
  EXPECT_GE(retry.lsn, original.lsn);
  const Guid guid = Guid::parse(kv_parse(retry.response).front().get("guid"));

  AckProbe ack;
  plane.committer->wait(retry.lsn, [&](bool durable) {
    ack.durable = durable;
    ack.on_disk = journal_recovers_client(plane.path(), guid);
    ack.fired = true;
  });
  EXPECT_FALSE(ack.fired.load()) << "repeated nonce acked before the registration was durable";

  plane.hold.release();
  plane.committer->flush();
  ASSERT_TRUE(ack.fired.load());
  EXPECT_TRUE(ack.durable.load());
  EXPECT_TRUE(ack.on_disk.load()) << "acked client " << guid.to_string()
                                  << " is not in the journal";
}

TEST(AckDurability, ResultFreeSyncIsAckedAtOnceWhileABatchIsHeld) {
  HeldPlane plane;
  const Guid guid = plane.register_client("n-fetch");

  plane.hold.arm();
  const DispatchResult upload =
      dispatch_request_deferred(plane.server, upload_of(guid, guid.to_string() + "/1"));
  ASSERT_TRUE(plane.hold.wait_held());
  AckProbe upload_ack;
  plane.committer->wait(upload.lsn, [&](bool) { upload_ack.fired = true; });

  SyncRequest fetch;
  fetch.guid = guid;
  fetch.sync_seq = 2;
  const DispatchResult reply =
      dispatch_request_deferred(plane.server, encode_sync_request(fetch));
  EXPECT_EQ(reply.lsn, 0u);
  const std::uint64_t immediate_before = plane.committer->stats().immediate_acks;
  AckProbe fetch_ack;
  plane.committer->wait(reply.lsn, [&](bool durable) {
    fetch_ack.durable = durable;
    fetch_ack.fired = true;
  });
  // Answered on this thread, behind nobody's batch.
  EXPECT_TRUE(fetch_ack.fired.load());
  EXPECT_TRUE(fetch_ack.durable.load());
  EXPECT_EQ(plane.committer->stats().immediate_acks, immediate_before + 1);
  EXPECT_FALSE(upload_ack.fired.load());

  plane.hold.release();
  plane.committer->flush();
  EXPECT_TRUE(upload_ack.fired.load());
}

}  // namespace
}  // namespace uucs
