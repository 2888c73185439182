// IngestServer integration tests: the event loop + group-commit + sharded
// store assembled the way the deployable daemon uses them, exercised over
// real TCP. The contracts pinned here: an ack is not released before the
// entries behind it are durable; a lost ack plus a retry never duplicates a
// record; a crash (no save()) followed by journal replay and a client retry
// converges to exactly-once; periodic snapshots compact the journal without
// losing anything.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "monitor/sysinfo.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/kvtext.hpp"

namespace uucs {
namespace {

using namespace std::chrono_literals;

IngestServer::Config test_config() {
  IngestServer::Config cfg;
  cfg.loop.port = 0;
  cfg.loop.workers = 2;
  cfg.loop.idle_timeout_s = 5.0;
  cfg.commit.max_wait_us = 200;
  return cfg;
}

RunRecord make_result(const Guid& guid, const std::string& run_id) {
  RunRecord r;
  r.run_id = run_id;
  r.client_guid = guid.to_string();
  r.testcase_id = "memory-ramp-x1-t120";
  r.task = "quake";
  r.discomforted = true;
  r.offset_s = 42.0;
  return r;
}

std::unique_ptr<TcpChannel> connect_to(std::uint16_t port) {
  return TcpChannel::connect("127.0.0.1", port, {5.0, 5.0, 5.0});
}

TEST(Ingest, RegisterSyncAndDedupOverRealTcp) {
  UucsServer server(21, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  IngestServer ingest(server, test_config());

  auto channel = connect_to(ingest.port());
  RemoteServerApi api(*channel);
  const Guid guid = api.register_client(HostSpec::paper_study_machine(), "n-1");
  EXPECT_TRUE(server.is_registered(guid));

  SyncRequest req;
  req.guid = guid;
  req.sync_seq = 1;
  req.results.push_back(make_result(guid, guid.to_string() + "/1"));
  req.results.push_back(make_result(guid, guid.to_string() + "/2"));
  const SyncResponse first = api.hot_sync(req);
  EXPECT_EQ(first.accepted_results, 2u);
  EXPECT_EQ(first.duplicate_results, 0u);

  // The exact same request again (a retry after a hypothetically lost ack):
  // nothing stored twice.
  const SyncResponse retry = api.hot_sync(req);
  EXPECT_EQ(retry.accepted_results, 0u);
  EXPECT_EQ(retry.duplicate_results, 2u);
  EXPECT_EQ(server.results().size(), 2u);
  ingest.stop();
}

TEST(Ingest, WithoutJournalRespondsImmediately) {
  UucsServer server(22, 4, /*shard_count=*/2);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  IngestServer ingest(server, test_config());
  EXPECT_FALSE(ingest.has_committer());

  auto channel = connect_to(ingest.port());
  RemoteServerApi api(*channel);
  const Guid guid = api.register_client(HostSpec::paper_study_machine());
  SyncRequest req;
  req.guid = guid;
  req.sync_seq = 1;
  req.results.push_back(make_result(guid, guid.to_string() + "/1"));
  EXPECT_EQ(api.hot_sync(req).accepted_results, 1u);
  ingest.stop();
}

TEST(Ingest, AckIsDurableBeforeItArrives) {
  TempDir dir;
  UucsServer server(23, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(dir.file("server.journal"));
  IngestServer ingest(server, test_config());
  ASSERT_TRUE(ingest.has_committer());

  auto channel = connect_to(ingest.port());
  RemoteServerApi api(*channel);
  const Guid guid = api.register_client(HostSpec::paper_study_machine(), "n-1");
  SyncRequest req;
  req.guid = guid;
  req.sync_seq = 1;
  for (int i = 0; i < 3; ++i) {
    req.results.push_back(make_result(guid, guid.to_string() + "/" + std::to_string(i)));
  }
  const SyncResponse resp = api.hot_sync(req);
  ASSERT_EQ(resp.accepted_results, 3u);

  // The ack has arrived, so every accepted record must already be on disk:
  // reopen the journal file independently and count.
  Journal independent = Journal::open(dir.file("server.journal"));
  std::size_t found = 0;
  for (const auto& entry : independent.entries()) {
    for (const auto& r : req.results) {
      if (entry.find(r.run_id) != std::string::npos) ++found;
    }
  }
  EXPECT_EQ(found, 3u) << "acked records missing from the journal";

  const auto stats = ingest.commit_stats();
  EXPECT_GE(stats.entries, 4u);  // registration + 3 results
  ingest.stop();
}

TEST(Ingest, LostAckThenRetryStoresExactlyOnce) {
  TempDir dir;
  UucsServer server(24, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(dir.file("server.journal"));
  IngestServer ingest(server, test_config());

  Guid guid;
  {
    auto channel = connect_to(ingest.port());
    RemoteServerApi api(*channel);
    guid = api.register_client(HostSpec::paper_study_machine(), "n-1");
  }

  SyncRequest req;
  req.guid = guid;
  req.sync_seq = 1;
  req.results.push_back(make_result(guid, guid.to_string() + "/1"));
  req.results.push_back(make_result(guid, guid.to_string() + "/2"));

  // Simulate a lost ack: send the request, then slam the connection shut
  // without reading the response. The server still processes and journals it
  // (the responder's send lands on a dead socket).
  {
    auto channel = connect_to(ingest.port());
    channel->write(encode_sync_request(req));
    channel->close();
  }
  // Wait for the server to have absorbed the orphaned request.
  for (int i = 0; i < 200 && server.results().size() < 2; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(server.results().size(), 2u);

  // The client never saw an ack, so it retries on a fresh connection.
  auto channel = connect_to(ingest.port());
  RemoteServerApi api(*channel);
  const SyncResponse retry = api.hot_sync(req);
  EXPECT_EQ(retry.accepted_results, 0u);
  EXPECT_EQ(retry.duplicate_results, 2u);
  EXPECT_EQ(server.results().size(), 2u);
  ingest.stop();
}

TEST(Ingest, CrashReplayThenRetryConvergesToExactlyOnce) {
  TempDir dir;
  const std::string journal_path = dir.file("server.journal");
  Guid guid;
  SyncRequest req;
  {
    UucsServer server(25, 4, /*shard_count=*/4);
    server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
    server.attach_journal(journal_path);
    IngestServer ingest(server, test_config());

    auto channel = connect_to(ingest.port());
    RemoteServerApi api(*channel);
    guid = api.register_client(HostSpec::paper_study_machine(), "n-1");
    req.guid = guid;
    req.sync_seq = 1;
    for (int i = 0; i < 3; ++i) {
      req.results.push_back(
          make_result(guid, guid.to_string() + "/" + std::to_string(i)));
    }
    ASSERT_EQ(api.hot_sync(req).accepted_results, 3u);
    ingest.stop();
    // Crash: the server dies here without save(). Only the journal survives.
  }

  // Restart: replay the journal into a fresh sharded server, bring up a new
  // ingest plane, and let the client retry everything it is unsure about.
  UucsServer server(26, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  const std::size_t replayed = server.attach_journal(journal_path);
  EXPECT_GE(replayed, 4u);  // registration + 3 results
  EXPECT_TRUE(server.is_registered(guid));
  ASSERT_EQ(server.results().size(), 3u);

  IngestServer ingest(server, test_config());
  auto channel = connect_to(ingest.port());
  RemoteServerApi api(*channel);
  // Re-registration with the same nonce returns the same GUID, not an orphan.
  EXPECT_EQ(api.register_client(HostSpec::paper_study_machine(), "n-1"), guid);
  const SyncResponse retry = api.hot_sync(req);
  EXPECT_EQ(retry.accepted_results, 0u);
  EXPECT_EQ(retry.duplicate_results, 3u);
  EXPECT_EQ(server.results().size(), 3u);
  for (const auto& r : req.results) EXPECT_TRUE(server.has_result(r.run_id));
  ingest.stop();
}

TEST(Ingest, FailedWriteDispatchDoesNotLeakItsWriteIntent) {
  // Every write-class request holds a write intent across dispatch, and the
  // commit thread holds a batch while any intent is outstanding. One whose
  // dispatch fails must still end its intent: a leaked one would hold every
  // later batch for the whole window (10 s here) instead of writing it as
  // soon as its writer is done.
  TempDir dir;
  UucsServer server(29, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(dir.file("server.journal"));
  const Guid guid = server.register_client(HostSpec::paper_study_machine());
  IngestServer::Config cfg = test_config();
  cfg.commit.max_wait_us = 10'000'000;
  cfg.loop.idle_timeout_s = 30.0;
  IngestServer ingest(server, cfg);
  auto channel = TcpChannel::connect("127.0.0.1", ingest.port(), {30.0, 30.0, 30.0});

  // Write-class by its head (result_count > 0), but the GUID does not parse.
  channel->write(
      "[sync-request]\nproto = 3\nguid = not-a-guid\nsync_seq = 1\n"
      "result_count = 1\n\n");
  const auto error = channel->read();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(kv_parse(*error).front().type(), "error");

  RemoteServerApi api(*channel);
  SyncRequest req;
  req.guid = guid;
  req.sync_seq = 1;
  req.results.push_back(make_result(guid, guid.to_string() + "/1"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(api.hot_sync(req).accepted_results, 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);

  const auto stats = kv_parse(ingest.encode_stats_response());
  ASSERT_FALSE(stats.empty());
  EXPECT_GE(stats.front().get_int_or("journal.waited_batches", -1), 0);
  ingest.stop();
}

TEST(Ingest, SnapshotCadenceCompactsTheJournal) {
  TempDir dir;
  UucsServer server(27, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(dir.file("server.journal"));
  IngestServer::Config cfg = test_config();
  cfg.snapshot_every = 4;  // registration + one 3-record sync trips it
  cfg.state_dir = dir.path();
  IngestServer ingest(server, cfg);

  auto channel = connect_to(ingest.port());
  RemoteServerApi api(*channel);
  const Guid guid = api.register_client(HostSpec::paper_study_machine(), "n-1");
  SyncRequest req;
  req.guid = guid;
  req.sync_seq = 1;
  for (int i = 0; i < 3; ++i) {
    req.results.push_back(
        make_result(guid, guid.to_string() + "/" + std::to_string(i)));
  }
  ASSERT_EQ(api.hot_sync(req).accepted_results, 3u);

  // The snapshot runs on a worker thread and may land just after the ack.
  for (int i = 0; i < 300 && ingest.snapshots_taken() == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(ingest.snapshots_taken(), 1u);
  ingest.stop();

  // The snapshot is a loadable full state and the journal was compacted
  // beneath it (re-replaying it must not resurrect anything extra).
  UucsServer restored = UucsServer::load(dir.path(), 1, /*shard_count=*/4);
  EXPECT_TRUE(restored.is_registered(guid));
  EXPECT_EQ(restored.results().size(), 3u);
  restored.attach_journal(dir.file("server.journal"));
  EXPECT_EQ(restored.results().size(), 3u);
}

TEST(Ingest, ManyClientsAcrossShardsAllStoredOnce) {
  TempDir dir;
  UucsServer server(28, 4, /*shard_count=*/8);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(dir.file("server.journal"));
  IngestServer ingest(server, test_config());

  constexpr int kClients = 12;
  constexpr int kRecords = 5;
  std::vector<std::string> minted;
  std::mutex minted_mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto channel = connect_to(ingest.port());
      RemoteServerApi api(*channel);
      const Guid guid = api.register_client(HostSpec::paper_study_machine(),
                                            "client-" + std::to_string(c));
      SyncRequest req;
      req.guid = guid;
      req.sync_seq = 1;
      for (int i = 0; i < kRecords; ++i) {
        req.results.push_back(
            make_result(guid, guid.to_string() + "/" + std::to_string(i)));
      }
      const SyncResponse resp = api.hot_sync(req);
      EXPECT_EQ(resp.accepted_results, static_cast<std::size_t>(kRecords));
      std::lock_guard<std::mutex> lock(minted_mu);
      for (const auto& r : req.results) minted.push_back(r.run_id);
    });
  }
  for (auto& t : threads) t.join();
  ingest.stop();

  ASSERT_EQ(minted.size(), static_cast<std::size_t>(kClients * kRecords));
  EXPECT_EQ(server.results().size(), minted.size());
  for (const auto& id : minted) EXPECT_TRUE(server.has_result(id)) << id;
}

}  // namespace
}  // namespace uucs
