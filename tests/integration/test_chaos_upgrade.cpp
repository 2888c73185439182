// Chaos-upgrade tests: live takeovers under real client load, with
// kill -9 simulated at every protocol stage on both the old and the new
// process. The invariants: no acknowledged record is ever lost, no record is
// ever stored twice, and a *clean* takeover costs each syncing client at
// most one retried operation (its TCP connection is closed once, at the
// drain; the reconnect queues in the kernel backlog of the very socket being
// handed over).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/retry.hpp"
#include "server/takeover.hpp"
#include "testcase/suite.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

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
  r.task = "upgrade";
  r.discomforted = false;
  r.offset_s = 1.0;
  return r;
}

/// Retrying transport over real TCP with deadlines generous enough to sit
/// out a takeover inside the kernel backlog instead of churning retries.
std::unique_ptr<RetryingServerApi> tcp_api(std::uint16_t port, Clock& clock,
                                           int protocol_version = kProtocolVersionMax) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_delay_s = 0.01;
  policy.max_delay_s = 0.1;
  auto api = std::make_unique<RetryingServerApi>(
      [port] { return TcpChannel::connect("127.0.0.1", port, {5.0, 10.0, 5.0}); },
      clock, policy);
  api->set_protocol_version(protocol_version);
  return api;
}

struct OldProcess {
  TempDir dir;
  std::atomic<bool> handed_off{false};
  std::unique_ptr<UucsServer> server;
  std::unique_ptr<IngestServer> ingest;
  std::unique_ptr<TakeoverController> controller;
  std::string sock;

  explicit OldProcess(std::uint64_t seed, TakeoverController::Config extra = {}) {
    server = std::make_unique<UucsServer>(seed, 4, /*shard_count=*/2);
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
};

struct NewProcess {
  std::unique_ptr<UucsServer> server;
  std::unique_ptr<IngestServer> ingest;

  explicit NewProcess(TakeoverClient::Inherited& inh, std::uint64_t seed) {
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

/// The whole new-process takeover sequence; returns the serving plane.
std::unique_ptr<NewProcess> take_over(const std::string& sock, std::uint64_t seed) {
  TakeoverClient take(sock);
  TakeoverClient::Inherited inh = take.begin();
  auto next = std::make_unique<NewProcess>(inh, seed);
  const auto go = take.confirm_ready(next->server->client_count(),
                                     next->server->results().size());
  if (go != TakeoverClient::Go::kServe) {
    throw Error("predecessor aborted the takeover");
  }
  next->ingest->resume();
  return next;
}

void expect_exactly_once(const UucsServer& server,
                         const std::vector<std::string>& minted,
                         const std::string& context) {
  ASSERT_EQ(server.results().size(), minted.size()) << context;
  for (const auto& id : minted) {
    std::size_t copies = 0;
    for (const auto& r : server.results().records()) {
      if (r.run_id == id) ++copies;
    }
    ASSERT_EQ(copies, 1u) << context << ", run " << id;
  }
}

// --- clean takeovers under load --------------------------------------------

TEST(ChaosUpgrade, CleanTakeoverUnderLoadAcross20Seeds) {
  constexpr int kClients = 3;
  constexpr int kRecordsPerClient = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    OldProcess old(seed);
    const std::uint16_t port = old.ingest->port();

    std::vector<std::vector<std::string>> minted(kClients);
    std::vector<std::size_t> retries(kClients, 0);
    std::vector<std::uint64_t> final_gen(kClients, 0);
    std::atomic<int> registered{0};
    std::atomic<bool> failed{false};
    // jthreads: an assertion that returns early joins them on the way out
    // and reports its seed, instead of std::terminate on a joinable thread.
    std::vector<std::jthread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          RealClock clock;
          auto api = tcp_api(port, clock);
          ClientConfig cfg;
          cfg.seed = seed * 100 + static_cast<std::uint64_t>(c);
          UucsClient client(HostSpec::paper_study_machine(), cfg);
          client.ensure_registered(*api);
          ++registered;
          for (int i = 0; i < kRecordsPerClient; ++i) {
            const std::string id = client.next_run_id();
            minted[static_cast<std::size_t>(c)].push_back(id);
            client.record_result(make_result(id));
            for (int attempt = 0;
                 attempt < 10 && !client.pending_results().empty(); ++attempt) {
              try {
                client.hot_sync(*api);
              } catch (const Error&) {
              }
            }
            std::this_thread::sleep_for(10ms);
          }
          if (!client.pending_results().empty()) failed = true;
          retries[static_cast<std::size_t>(c)] = api->retries();
          final_gen[static_cast<std::size_t>(c)] = api->last_server_generation();
          api->disconnect();
        } catch (const std::exception&) {
          failed = true;
        }
      });
    }

    // Wait until every client is registered and mid-load, then upgrade.
    for (int i = 0; i < 500 && registered.load() < kClients; ++i) {
      std::this_thread::sleep_for(10ms);
    }
    ASSERT_EQ(registered.load(), kClients) << "seed " << seed;
    std::this_thread::sleep_for(30ms);
    auto next = take_over(old.sock, seed + 1000);
    for (auto& t : threads) t.join();
    ASSERT_FALSE(failed.load()) << "seed " << seed;
    EXPECT_TRUE(old.controller->handed_off()) << "seed " << seed;

    std::vector<std::string> all;
    for (const auto& m : minted) all.insert(all.end(), m.begin(), m.end());
    expect_exactly_once(*next->server, all, "seed " + std::to_string(seed));

    // A clean takeover costs each client at most one retried operation.
    for (int c = 0; c < kClients; ++c) {
      EXPECT_LE(retries[static_cast<std::size_t>(c)], 1u)
          << "seed " << seed << ", client " << c;
    }
    // Every client ended up on the successor (generation bumped to 1).
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(final_gen[static_cast<std::size_t>(c)], 1u)
          << "seed " << seed << ", client " << c;
    }

    next->ingest->stop();
    old.ingest->stop();
  }
}

// --- kill -9 at every stage, old process ------------------------------------

TEST(ChaosUpgrade, KillNineAtEveryStageOfTheOldProcess) {
  constexpr TakeoverStage kStages[] = {
      TakeoverStage::kHello,    TakeoverStage::kPause,
      TakeoverStage::kDrain,    TakeoverStage::kFlush,
      TakeoverStage::kSnapshot, TakeoverStage::kSendFd,
      TakeoverStage::kSendState, TakeoverStage::kWaitReady,
      TakeoverStage::kRetire,
  };
  std::uint64_t seed = 100;
  for (const TakeoverStage victim : kStages) {
    ++seed;
    TakeoverController::Config hooked;
    hooked.stage_hook = [victim](TakeoverStage s) { return s != victim; };
    OldProcess old(seed, std::move(hooked));
    const std::uint16_t port = old.ingest->port();

    // Two durably acked records before the upgrade starts.
    RealClock clock;
    auto api = tcp_api(port, clock);
    UucsClient client(HostSpec::paper_study_machine());
    client.ensure_registered(*api);
    std::vector<std::string> minted;
    for (int i = 0; i < 2; ++i) {
      minted.push_back(client.next_run_id());
      client.record_result(make_result(minted.back()));
    }
    while (!client.pending_results().empty()) client.hot_sync(*api);
    api->disconnect();

    std::unique_ptr<NewProcess> next;
    try {
      next = take_over(old.sock, seed + 1000);
    } catch (const Error&) {
      // The predecessor "died" before handing anything usable over.
    }
    EXPECT_TRUE(old.controller->killed()) << to_string(victim);

    if (next) {
      // Old died at/after kWaitReady: the successor holds the socket and the
      // state, and correctly decided to serve (a dead predecessor cannot).
      expect_exactly_once(*next->server, minted, to_string(victim));
      auto verify = tcp_api(port, clock);
      UucsClient checker(HostSpec::paper_study_machine());
      checker.ensure_registered(*verify);
      verify->disconnect();
      next->ingest->stop();
      old.ingest->stop();
    } else {
      // Old died mid-protocol: nothing was handed over, so a restart from
      // the state dir + journal (what uucs_server does at boot) must hold
      // every acked record — whether or not the final snapshot happened.
      old.ingest->stop();
      std::unique_ptr<UucsServer> revived;
      if (path_exists(old.dir.path() + "/testcases.txt")) {
        revived = std::make_unique<UucsServer>(
            UucsServer::load(old.dir.path(), seed + 2000, /*shard_count=*/2));
      } else {
        revived = std::make_unique<UucsServer>(seed + 2000, 4, /*shard_count=*/2);
        revived->add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
      }
      revived->attach_journal(old.dir.file("server.journal"));
      expect_exactly_once(*revived, minted, to_string(victim));
    }
  }
}

// --- kill -9 at every stage, new process ------------------------------------

TEST(ChaosUpgrade, KillNineAtEveryStageOfTheNewProcess) {
  enum class NewDeath { kAfterConnect, kAfterBegin, kAfterPlaneBuilt, kAfterConfirm };
  constexpr NewDeath kDeaths[] = {NewDeath::kAfterConnect, NewDeath::kAfterBegin,
                                  NewDeath::kAfterPlaneBuilt,
                                  NewDeath::kAfterConfirm};
  std::uint64_t seed = 200;
  for (const NewDeath death : kDeaths) {
    ++seed;
    OldProcess old(seed);
    const std::uint16_t port = old.ingest->port();

    RealClock clock;
    auto api = tcp_api(port, clock);
    UucsClient client(HostSpec::paper_study_machine());
    client.ensure_registered(*api);
    std::vector<std::string> minted;
    minted.push_back(client.next_run_id());
    client.record_result(make_result(minted.back()));
    while (!client.pending_results().empty()) client.hot_sync(*api);
    api->disconnect();

    bool handed_off = false;
    {
      TakeoverClient take(old.sock);
      if (death != NewDeath::kAfterConnect) {
        TakeoverClient::Inherited inh = take.begin();
        std::unique_ptr<NewProcess> next;
        if (death != NewDeath::kAfterBegin) {
          next = std::make_unique<NewProcess>(inh, seed + 1000);
        }
        if (death == NewDeath::kAfterConfirm) {
          const auto go = take.confirm_ready(next->server->client_count(),
                                            next->server->results().size());
          ASSERT_EQ(go, TakeoverClient::Go::kServe);
          handed_off = true;
        }
        // The successor dies here, never resumed. A kill -9 closes fds
        // without shutdown(2) — retire the adopted listener the same way, so
        // the in-process teardown does not shut down the *shared* socket the
        // predecessor still owns.
        if (next && death != NewDeath::kAfterConfirm) {
          next->ingest->loop().retire_listener();
        }
      }
    }

    if (!handed_off) {
      // Death before readiness: the old process must roll back and serve
      // clients again on the same socket with zero lost records.
      for (int i = 0; i < 500 && old.controller->rollbacks() == 0; ++i) {
        std::this_thread::sleep_for(10ms);
      }
      ASSERT_GT(old.controller->rollbacks(), 0u);
      EXPECT_FALSE(old.controller->handed_off());
      auto again = tcp_api(port, clock);
      SyncRequest req;
      req.guid = client.guid();
      req.protocol_version = 2;
      req.results.push_back(make_result(minted.front()));
      const SyncResponse resp = again->hot_sync(req);
      EXPECT_EQ(resp.duplicate_results, 1u);
      EXPECT_EQ(resp.server_generation, 0u);
      again->disconnect();
      expect_exactly_once(*old.server, minted, "rollback");
      old.ingest->stop();
    } else {
      // Death after the predecessor retired: the state on disk is complete
      // and owned by the (dead) successor; a restart from the dir serves it.
      EXPECT_TRUE(old.controller->handed_off());
      old.ingest->stop();
      auto revived = std::make_unique<UucsServer>(
          UucsServer::load(old.dir.path(), seed + 3000, /*shard_count=*/2));
      revived->attach_journal(old.dir.file("server.journal"));
      expect_exactly_once(*revived, minted, "post-retire death");
      IngestServer::Config cfg = plane_config(old.dir.path());
      IngestServer restarted(*revived, cfg);
      auto verify = tcp_api(restarted.port(), clock);
      SyncRequest req;
      req.guid = client.guid();
      req.protocol_version = 2;
      req.results.push_back(make_result(minted.front()));
      const SyncResponse resp = verify->hot_sync(req);
      EXPECT_EQ(resp.duplicate_results, 1u);
      verify->disconnect();
      restarted.stop();
    }
  }
}

// --- mixed-version fleet through a rollout ----------------------------------

TEST(ChaosUpgrade, MixedVersionFleetThroughOneRollout) {
  OldProcess old(7);
  const std::uint16_t port = old.ingest->port();
  RealClock clock;

  // A v1 ("old binary") client and a v2 client, both registered and synced
  // against the pre-upgrade server.
  auto v1 = tcp_api(port, clock, /*protocol_version=*/1);
  auto v2 = tcp_api(port, clock, /*protocol_version=*/kProtocolVersionMax);
  ClientConfig v1cfg;
  v1cfg.protocol_version = 1;
  v1cfg.seed = 71;
  ClientConfig v2cfg;
  v2cfg.seed = 72;
  UucsClient old_client(HostSpec::paper_study_machine(), v1cfg);
  UucsClient new_client(HostSpec::paper_study_machine(), v2cfg);
  old_client.ensure_registered(*v1);
  new_client.ensure_registered(*v2);
  EXPECT_EQ(v1->negotiated_version(), 1);
  EXPECT_EQ(v2->negotiated_version(), kProtocolVersionMax);

  std::vector<std::string> minted;
  minted.push_back(old_client.next_run_id());
  old_client.record_result(make_result(minted.back()));
  while (!old_client.pending_results().empty()) old_client.hot_sync(*v1);
  minted.push_back(new_client.next_run_id());
  new_client.record_result(make_result(minted.back()));
  while (!new_client.pending_results().empty()) new_client.hot_sync(*v2);
  EXPECT_EQ(old_client.last_server_protocol(), 1u);
  EXPECT_EQ(new_client.last_server_protocol(),
            static_cast<std::uint32_t>(kProtocolVersionMax));
  EXPECT_EQ(new_client.last_server_generation(), 0u);

  // Roll the server: the fleet stays connected through the takeover.
  auto next = take_over(old.sock, 7777);

  // Both speak to the successor; the v1 client never learns about
  // generations and never needs to, the v2 client observes the bump.
  minted.push_back(old_client.next_run_id());
  old_client.record_result(make_result(minted.back()));
  while (!old_client.pending_results().empty()) old_client.hot_sync(*v1);
  minted.push_back(new_client.next_run_id());
  new_client.record_result(make_result(minted.back()));
  while (!new_client.pending_results().empty()) new_client.hot_sync(*v2);
  EXPECT_EQ(old_client.last_server_protocol(), 1u);
  EXPECT_EQ(old_client.last_server_generation(), 0u);
  EXPECT_EQ(new_client.last_server_protocol(),
            static_cast<std::uint32_t>(kProtocolVersionMax));
  EXPECT_EQ(new_client.last_server_generation(), 1u);

  v1->disconnect();
  v2->disconnect();
  expect_exactly_once(*next->server, minted, "mixed fleet");
  next->ingest->stop();
  old.ingest->stop();
}

}  // namespace
}  // namespace uucs
