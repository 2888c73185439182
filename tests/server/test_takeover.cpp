// Takeover unit tests: the old-process TakeoverController and new-process
// TakeoverClient drive a full live handoff over a real unix-domain control
// socket inside one test process — listening-socket transfer via SCM_RIGHTS,
// state cursor handover, readiness confirmation — plus the rollback paths
// (successor death before readiness, replay count mismatch) and the
// stage-hook crash simulation.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/takeover.hpp"
#include "testcase/suite.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/kvtext.hpp"

namespace uucs {
namespace {

using namespace std::chrono_literals;

IngestServer::Config plane_config(const std::string& state_dir) {
  IngestServer::Config cfg;
  cfg.loop.port = 0;
  cfg.loop.workers = 2;
  cfg.loop.idle_timeout_s = 5.0;
  cfg.commit.max_wait_us = 200;
  cfg.state_dir = state_dir;
  return cfg;
}

RunRecord make_result(const std::string& run_id) {
  RunRecord r;
  r.run_id = run_id;
  r.testcase_id = "memory-ramp-x1-t120";
  r.task = "quake";
  r.discomforted = true;
  r.offset_s = 42.0;
  return r;
}

/// The "old process": a live ingest plane with a takeover controller on a
/// unix socket under its own state dir.
struct OldProcess {
  TempDir dir;
  std::atomic<bool> handed_off{false};
  std::unique_ptr<UucsServer> server;
  std::unique_ptr<IngestServer> ingest;
  std::unique_ptr<TakeoverController> controller;
  std::string sock;

  explicit OldProcess(TakeoverController::Config extra = {}) {
    server = std::make_unique<UucsServer>(1, 4, /*shard_count=*/2);
    server->add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server->attach_journal(dir.file("server.journal"));
    ingest = std::make_unique<IngestServer>(*server, plane_config(dir.path()));
    sock = dir.file("takeover.sock");
    TakeoverController::Config tc = std::move(extra);
    tc.socket_path = sock;
    tc.state_dir = dir.path();
    tc.journal_path = dir.file("server.journal");
    tc.drain_timeout_s = 2.0;
    tc.on_handed_off = [this] { handed_off.store(true); };
    controller = std::make_unique<TakeoverController>(*ingest, *server, tc);
  }

  /// Registers one client and uploads `n` records over real TCP.
  Guid seed_state(int n, const std::string& nonce = "takeover-test-nonce") {
    auto ch = TcpChannel::connect("127.0.0.1", ingest->port(), {5, 5, 5});
    RemoteServerApi api(*ch);
    const Guid guid = api.register_client(HostSpec::paper_study_machine(), nonce);
    SyncRequest req;
    req.guid = guid;
    req.protocol_version = 2;
    for (int i = 0; i < n; ++i) {
      req.results.push_back(make_result("seeded/" + std::to_string(i)));
    }
    api.hot_sync(req);
    ch->close();
    return guid;
  }

  bool wait_rollback(double timeout_s = 5.0) {
    for (int i = 0; i < static_cast<int>(timeout_s * 100); ++i) {
      if (controller->rollbacks() > 0) return true;
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }
};

/// The "new process": everything after TakeoverClient::begin() — replay the
/// snapshot + journal, build a paused plane on the inherited socket.
struct NewProcess {
  std::unique_ptr<UucsServer> server;
  std::unique_ptr<IngestServer> ingest;

  explicit NewProcess(TakeoverClient::Inherited& inh, std::uint64_t seed = 2) {
    server = std::make_unique<UucsServer>(
        UucsServer::load(inh.state_dir, seed, /*shard_count=*/2));
    server->attach_journal(inh.journal_path);
    server->set_generation(inh.generation);
    IngestServer::Config cfg = plane_config(inh.state_dir);
    cfg.loop.adopted_fd = inh.listener.release();
    cfg.loop.start_paused = true;
    ingest = std::make_unique<IngestServer>(*server, cfg);
  }
};

TEST(Takeover, FullHandoffPreservesStateSocketAndDedup) {
  OldProcess old;
  const Guid guid = old.seed_state(2);
  const std::uint16_t port = old.ingest->port();

  TakeoverClient take(old.sock);
  TakeoverClient::Inherited inh = take.begin();
  EXPECT_EQ(inh.port, port);
  EXPECT_EQ(inh.expect_clients, 1u);
  EXPECT_EQ(inh.expect_results, 2u);
  EXPECT_EQ(inh.generation, 1u);  // predecessor was generation 0
  ASSERT_TRUE(inh.listener.valid());

  NewProcess next(inh);
  EXPECT_EQ(next.ingest->port(), port);  // recovered from the inherited fd
  EXPECT_EQ(next.server->client_count(), 1u);
  EXPECT_EQ(next.server->results().size(), 2u);

  const auto go = take.confirm_ready(next.server->client_count(),
                                     next.server->results().size());
  ASSERT_EQ(go, TakeoverClient::Go::kServe);
  next.ingest->resume();

  for (int i = 0; i < 500 && !old.handed_off.load(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(old.handed_off.load());
  EXPECT_TRUE(old.controller->handed_off());
  EXPECT_EQ(old.controller->rollbacks(), 0u);

  // The same port now answers from the new plane: the re-uploaded record is
  // a duplicate (dedup state survived the handoff), a fresh one is accepted,
  // and the response carries the bumped generation.
  auto ch = TcpChannel::connect("127.0.0.1", port, {5, 5, 5});
  RemoteServerApi api(*ch);
  SyncRequest req;
  req.guid = guid;
  req.protocol_version = 2;
  req.results.push_back(make_result("seeded/0"));
  req.results.push_back(make_result("fresh/0"));
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.duplicate_results, 1u);
  EXPECT_EQ(resp.accepted_results, 1u);
  EXPECT_EQ(resp.server_generation, 1u);
  ch->close();

  EXPECT_EQ(next.server->results().size(), 3u);
  next.ingest->stop();
  old.ingest->stop();  // the old process exits without another snapshot
}

// A loaded successor can fall behind: by the time it reads the
// takeover-accept frame, the predecessor may already have drained, passed
// the listener and sent its state. Here the test plays the predecessor and
// queues all three before the successor reads a byte; reading the accept
// frame must not swallow the byte that carries the listener fd.
TEST(Takeover, SuccessorKeepsTheListenerWhenThePredecessorRunsAhead) {
  TempDir dir;
  const std::string path = dir.file("ctl.sock");
  UniqueFd listen_fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_GE(listen_fd.get(), 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listen_fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd.get(), 1), 0);

  TakeoverClient successor(path);
  UniqueFd conn(::accept(listen_fd.get(), nullptr, nullptr));
  ASSERT_GE(conn.get(), 0);
  auto send_all = [&](const std::string& bytes) {
    ASSERT_EQ(::write(conn.get(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  };

  KvRecord accept_rec("takeover-accept");
  accept_rec.set_int("version", 1);
  send_all(TcpChannel::frame(kv_serialize({accept_rec})));

  UniqueFd passed(::open("/dev/null", O_RDONLY | O_CLOEXEC));  // stands in for the listener
  char byte = 'L';
  iovec iov{&byte, 1};
  alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = ctrl;
  msg.msg_controllen = sizeof(ctrl);
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  const int passed_fd = passed.get();
  std::memcpy(CMSG_DATA(cm), &passed_fd, sizeof(int));
  ASSERT_EQ(::sendmsg(conn.get(), &msg, 0), 1);

  KvRecord state("takeover-state");
  state.set_int("version", 1);
  state.set("state_dir", dir.path());
  state.set_int("generation", 2);
  state.set_int("port", 4321);
  send_all(TcpChannel::frame(kv_serialize({state})));

  const TakeoverClient::Inherited inh = successor.begin();
  EXPECT_GE(inh.listener.get(), 0);
  EXPECT_EQ(inh.generation, 2u);
  EXPECT_EQ(inh.port, 4321);
}

TEST(Takeover, SuccessorDeathBeforeReadyRollsBack) {
  OldProcess old;
  const Guid guid = old.seed_state(1);
  const std::uint16_t port = old.ingest->port();

  {
    TakeoverClient take(old.sock);
    TakeoverClient::Inherited inh = take.begin();
    ASSERT_TRUE(inh.listener.valid());
    // The successor dies here: control connection and inherited fd close
    // without a ready message.
  }

  ASSERT_TRUE(old.wait_rollback());
  EXPECT_EQ(old.controller->rollbacks(), 1u);
  EXPECT_FALSE(old.controller->handed_off());

  // The old process resumed: the same port serves, state intact.
  auto ch = TcpChannel::connect("127.0.0.1", port, {5, 5, 5});
  RemoteServerApi api(*ch);
  SyncRequest req;
  req.guid = guid;
  req.protocol_version = 2;
  req.results.push_back(make_result("seeded/0"));
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.duplicate_results, 1u);
  EXPECT_EQ(resp.server_generation, 0u);  // still the old generation
  ch->close();
}

TEST(Takeover, ReplayCountMismatchAborts) {
  OldProcess old;
  old.seed_state(3);
  const std::uint16_t port = old.ingest->port();

  TakeoverClient take(old.sock);
  TakeoverClient::Inherited inh = take.begin();
  // The successor claims a wrong replay: the predecessor must refuse to
  // retire and tell the successor not to serve.
  const auto go = take.confirm_ready(inh.expect_clients + 5, inh.expect_results);
  EXPECT_EQ(go, TakeoverClient::Go::kAbort);

  ASSERT_TRUE(old.wait_rollback());
  EXPECT_FALSE(old.controller->handed_off());

  auto ch = TcpChannel::connect("127.0.0.1", port, {5, 5, 5});
  RemoteServerApi api(*ch);
  EXPECT_NO_THROW(api.register_client(HostSpec::paper_study_machine(), "post-abort"));
  ch->close();
}

TEST(Takeover, SecondAttemptSucceedsAfterRollback) {
  OldProcess old;
  old.seed_state(1);
  {
    TakeoverClient doomed(old.sock);
    doomed.begin();  // dies without confirming
  }
  ASSERT_TRUE(old.wait_rollback());

  // A retried takeover must sweep everything accepted since the rollback.
  old.seed_state(0, "second-client");  // registered after the failed attempt

  TakeoverClient take(old.sock);
  TakeoverClient::Inherited inh = take.begin();
  EXPECT_EQ(inh.expect_clients, 2u);
  NewProcess next(inh);
  const auto go = take.confirm_ready(next.server->client_count(),
                                     next.server->results().size());
  ASSERT_EQ(go, TakeoverClient::Go::kServe);
  next.ingest->resume();
  for (int i = 0; i < 500 && !old.handed_off.load(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(old.controller->handed_off());
  next.ingest->stop();
  old.ingest->stop();
}

TEST(Takeover, StageHookKillLeavesRecoverableState) {
  // Simulated kill -9 of the old process right before the fd would be sent:
  // flush and snapshot already ran, nothing was handed over. A restart from
  // the state dir (exactly what uucs_server does) must hold every record.
  TakeoverController::Config hooked;
  hooked.stage_hook = [](TakeoverStage s) { return s != TakeoverStage::kSendFd; };
  OldProcess old(std::move(hooked));
  const Guid guid = old.seed_state(2);

  TakeoverClient take(old.sock);
  EXPECT_THROW(take.begin(), Error);
  EXPECT_TRUE(old.controller->killed());
  EXPECT_FALSE(old.controller->handed_off());

  old.ingest->stop();  // the "killed" process never snapshots again

  auto revived = std::make_unique<UucsServer>(
      UucsServer::load(old.dir.path(), 9, /*shard_count=*/2));
  revived->attach_journal(old.dir.file("server.journal"));
  EXPECT_TRUE(revived->is_registered(guid));
  EXPECT_EQ(revived->results().size(), 2u);
  EXPECT_TRUE(revived->has_result("seeded/0"));
  EXPECT_TRUE(revived->has_result("seeded/1"));
}

TEST(Takeover, ConfigValidation) {
  OldProcess old;
  TakeoverController::Config bad;
  bad.state_dir = old.dir.path();
  bad.journal_path = old.dir.file("server.journal");
  EXPECT_THROW(TakeoverController(*old.ingest, *old.server, bad), ConfigError);

  EXPECT_THROW(TakeoverClient("/nonexistent/never/takeover.sock"), SystemError);
}

}  // namespace
}  // namespace uucs
