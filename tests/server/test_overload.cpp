// Overload-control tests (DESIGN.md §15): the admission gate's shed order,
// the request peek that feeds it, typed v3 backpressure end-to-end over real
// TCP against an injected journal-disk failure, exactly-once across a
// degraded spell, silent shedding for version-pinned v1 peers, the
// pressure-probe accept gate, and the client-side ServerBusyError retry path
// (connection kept, server hint honored, jitter never re-synchronizing a
// fleet).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "monitor/sysinfo.hpp"
#include "server/failpoints.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/overload.hpp"
#include "server/protocol.hpp"
#include "server/retry.hpp"
#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/kvtext.hpp"

namespace uucs {
namespace {

using namespace std::chrono_literals;

bool eventually(const std::function<bool()>& pred, double timeout_s = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int>(timeout_s * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

// ---------------------------------------------------------------- peek ----

TEST(RequestPeek, RegisterIsWriteClassAndCarriesVersion) {
  const auto peek = peek_request(encode_register_request(
      HostSpec::paper_study_machine(), "nonce-1", /*protocol_version=*/3));
  EXPECT_EQ(peek.op, RequestPeek::Op::kRegister);
  EXPECT_TRUE(peek.write_class);
  EXPECT_EQ(peek.protocol_version, 3);
}

TEST(RequestPeek, SyncWithResultsIsWriteClass) {
  const auto peek = peek_request(
      "[sync-request]\nproto = 3\nguid = whatever\nresult_count = 2\n");
  EXPECT_EQ(peek.op, RequestPeek::Op::kSync);
  EXPECT_TRUE(peek.write_class);
  EXPECT_EQ(peek.protocol_version, 3);
}

TEST(RequestPeek, ResultFreeSyncIsReadClass) {
  const auto peek =
      peek_request("[sync-request]\nguid = g\nresult_count = 0\n");
  EXPECT_EQ(peek.op, RequestPeek::Op::kSync);
  EXPECT_FALSE(peek.write_class);
  EXPECT_EQ(peek.protocol_version, 1);  // no proto key: v1
}

TEST(RequestPeek, StatsRequestIsRecognized) {
  const auto peek = peek_request("[stats-request]\nversion = 3\n");
  EXPECT_EQ(peek.op, RequestPeek::Op::kStats);
  EXPECT_FALSE(peek.write_class);
  EXPECT_EQ(peek.protocol_version, 3);
}

TEST(RequestPeek, GarbageYieldsUnknownWithoutThrowing) {
  for (const std::string& junk :
       {std::string("complete garbage \xff\xfe"), std::string(""),
        std::string("[unknown-op]\nkey = value\n"), std::string("[broken"),
        std::string("key = value with no record\n"),
        std::string("[sync-request]\nproto = banana\nresult_count = -3\n")}) {
    const auto peek = peek_request(junk);
    if (junk.find("sync-request") == std::string::npos) {
      EXPECT_EQ(peek.op, RequestPeek::Op::kUnknown) << junk;
    }
    EXPECT_EQ(peek.protocol_version, 1) << junk;
    if (junk.find("sync") == std::string::npos) {
      EXPECT_FALSE(peek.write_class) << junk;
    }
  }
}

TEST(RequestPeek, BusyReplyCarriesTypedKeys) {
  const auto records = kv_parse(encode_busy("degraded", "journal down", 250));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().type(), "error");
  EXPECT_EQ(records.front().get_or("kind", ""), "degraded");
  EXPECT_EQ(records.front().get_int_or("retry_after_ms", 0), 250);
  EXPECT_EQ(records.front().get_or("message", ""), "journal down");
}

// ----------------------------------------------------------- admission ----

OverloadController::Config gate_config() {
  OverloadController::Config cfg;
  cfg.max_queue_depth = 8;
  cfg.request_deadline_ms = 50.0;
  cfg.register_shed_frac = 0.5;
  return cfg;
}

RequestPeek sync_peek() {
  RequestPeek p;
  p.op = RequestPeek::Op::kSync;
  p.write_class = true;
  return p;
}

RequestPeek register_peek() {
  RequestPeek p;
  p.op = RequestPeek::Op::kRegister;
  p.write_class = true;
  return p;
}

TEST(OverloadGate, AdmitsUnderTheDepthCap) {
  OverloadController gate(gate_config());
  EXPECT_EQ(gate.admit(sync_peek(), 0.0, 0), Admission::kOk);
  // The admitted request counts itself: inflight == depth is still fine.
  EXPECT_EQ(gate.admit(sync_peek(), 0.0, 8), Admission::kOk);
}

TEST(OverloadGate, ShedsSyncsPastTheDepthCap) {
  OverloadController gate(gate_config());
  EXPECT_EQ(gate.admit(sync_peek(), 0.0, 9), Admission::kShedQueue);
  EXPECT_EQ(gate.stats().shed_queue, 1u);
}

TEST(OverloadGate, ShedsRegistrationsBeforeSyncs) {
  OverloadController gate(gate_config());
  // Registration floor: max(1, 0.5 * 8) = 4. At inflight 5 a registration
  // sheds while a sync still passes — machines mid-sync carry results the
  // study wants; an unregistered machine can simply try again.
  EXPECT_EQ(gate.admit(register_peek(), 0.0, 4), Admission::kOk);
  EXPECT_EQ(gate.admit(register_peek(), 0.0, 5), Admission::kShedRegistration);
  EXPECT_EQ(gate.admit(sync_peek(), 0.0, 5), Admission::kOk);
  EXPECT_EQ(gate.stats().shed_registrations, 1u);
}

TEST(OverloadGate, ShedsExpiredRequestsFirst) {
  OverloadController gate(gate_config());
  // Past its deadline the queue position is irrelevant: the client gave up.
  EXPECT_EQ(gate.admit(sync_peek(), 51.0, 0), Admission::kShedDeadline);
  EXPECT_EQ(gate.admit(sync_peek(), 49.0, 0), Admission::kOk);
  EXPECT_EQ(gate.stats().shed_deadline, 1u);
}

TEST(OverloadGate, StatsRequestsAlwaysPass) {
  OverloadController gate(gate_config());
  RequestPeek stats;
  stats.op = RequestPeek::Op::kStats;
  EXPECT_EQ(gate.admit(stats, 1e6, 1u << 20), Admission::kOk);
}

TEST(OverloadGate, DisabledGateAdmitsEverything) {
  OverloadController gate(OverloadController::Config{});
  EXPECT_EQ(gate.admit(sync_peek(), 1e6, 1u << 20), Admission::kOk);
  EXPECT_EQ(gate.admit(register_peek(), 1e6, 1u << 20), Admission::kOk);
}

// ---------------------------------------------------------- failpoints ----

TEST(ServerFaults, ParsesScriptedSchedules) {
  auto schedule =
      parse_server_fault_schedule("0:enospc,2:slow-fsync=0.5,3:pressure=0.25");
  EXPECT_EQ(schedule.next().kind, ServerFaultKind::kEnospc);
  EXPECT_EQ(schedule.next().kind, ServerFaultKind::kNone);
  const auto slow = schedule.next();
  EXPECT_EQ(slow.kind, ServerFaultKind::kSlowFsync);
  EXPECT_DOUBLE_EQ(slow.delay_s, 0.5);
  const auto pressure = schedule.next();
  EXPECT_EQ(pressure.kind, ServerFaultKind::kPressure);
  EXPECT_DOUBLE_EQ(pressure.available_frac, 0.25);
  EXPECT_EQ(schedule.next().kind, ServerFaultKind::kNone);  // past the script
}

TEST(ServerFaults, RejectsJunkSchedules) {
  EXPECT_THROW(parse_server_fault_schedule("x:enospc"), ParseError);
  EXPECT_THROW(parse_server_fault_schedule("0:banana"), ParseError);
  EXPECT_THROW(parse_server_fault_schedule("0"), ParseError);
  EXPECT_THROW(parse_server_fault_schedule("0:slow-fsync=fast"), ParseError);
}

TEST(ServerFaults, SeededSchedulesAreDeterministic) {
  auto a = ServerFaultSchedule::seeded(42, ServerFaultProfile::hostile());
  auto b = ServerFaultSchedule::seeded(42, ServerFaultProfile::hostile());
  auto c = ServerFaultSchedule::seeded(43, ServerFaultProfile::hostile());
  std::size_t differing = 0;
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.next(), fb = b.next(), fc = c.next();
    EXPECT_EQ(fa.kind, fb.kind) << "same seed diverged at op " << i;
    EXPECT_DOUBLE_EQ(fa.delay_s, fb.delay_s);
    EXPECT_DOUBLE_EQ(fa.available_frac, fb.available_frac);
    if (fa.kind != fc.kind) ++differing;
  }
  EXPECT_GT(differing, 0u) << "different seeds produced identical schedules";
}

TEST(ServerFaults, DisarmedRegistryInjectsNothing) {
  ServerFailpoints fp;
  EXPECT_EQ(fp.on_journal_batch().kind, ServerFaultKind::kNone);
  EXPECT_FALSE(fp.on_pressure_probe().has_value());
  fp.arm(parse_server_fault_schedule("0:enospc"));
  EXPECT_EQ(fp.on_journal_batch().kind, ServerFaultKind::kEnospc);
  fp.disarm();
  EXPECT_EQ(fp.on_journal_batch().kind, ServerFaultKind::kNone);
  const auto stats = fp.stats();
  EXPECT_EQ(stats.enospc, 1u);
  EXPECT_GE(stats.batch_checks, 1u);
}

// ------------------------------------------------------ pressure gate ----

TEST(OverloadGate, PressureProbePausesAndResumesAccept) {
  ServerFailpoints fp;
  // First probe: 5% available — pause. Second: 90% — above the 1.5x-floor
  // hysteresis band, resume. Later probes fall through to the real host
  // probe, which cannot re-pause a healthy test machine below 25%.
  fp.arm(parse_server_fault_schedule("0:pressure=0.05,1:pressure=0.9"));

  OverloadController::Config cfg;
  cfg.min_available_frac = 0.25;
  cfg.pressure_interval_s = 0.005;
  cfg.failpoints = &fp;
  OverloadController gate(cfg);

  std::atomic<int> pauses{0};
  std::atomic<int> resumes{0};
  gate.start([&] { ++pauses; }, [&] { ++resumes; });
  ASSERT_TRUE(eventually([&] { return pauses.load() >= 1; }));
  ASSERT_TRUE(eventually([&] { return resumes.load() >= 1; }));
  gate.stop();

  const auto stats = gate.stats();
  EXPECT_GE(stats.pressure_pauses, 1u);
  EXPECT_GE(stats.pressure_resumes, 1u);
  EXPECT_GE(stats.probes, 2u);
  EXPECT_FALSE(gate.pressure_paused());
}

TEST(OverloadGate, StopReleasesAHeldAcceptGate) {
  ServerFailpoints fp;
  fp.arm(ServerFaultSchedule::scripted(std::vector<ServerFaultAction>(
      64, ServerFaultAction{ServerFaultKind::kPressure, 0.0, 0.01})));
  OverloadController::Config cfg;
  cfg.min_available_frac = 0.25;
  cfg.pressure_interval_s = 0.005;
  cfg.failpoints = &fp;
  OverloadController gate(cfg);
  std::atomic<int> pauses{0};
  std::atomic<int> resumes{0};
  gate.start([&] { ++pauses; }, [&] { ++resumes; });
  ASSERT_TRUE(eventually([&] { return pauses.load() >= 1; }));
  gate.stop();  // must not leave accept paused forever
  EXPECT_EQ(resumes.load(), 1);
  EXPECT_FALSE(gate.pressure_paused());
}

// ----------------------------------------------- degraded mode over TCP ----

IngestServer::Config ingest_config() {
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

TEST(OverloadTcp, DegradedJournalShedsWritesServesReadsAndRecoversOnce) {
  TempDir dir;
  UucsServer server(91, 4, /*shard_count=*/4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(dir.file("server.journal"));
  ServerFailpoints fp;
  auto config = ingest_config();
  config.failpoints = &fp;
  config.overload.retry_after_ms = 123;
  IngestServer ingest(server, config);
  ASSERT_TRUE(ingest.has_committer());

  auto channel = connect_to(ingest.port());
  RemoteServerApi api(*channel);
  const Guid guid = api.register_client(HostSpec::paper_study_machine(), "n-1");
  ASSERT_EQ(api.negotiated_version(), 3);

  // Disk dies: every batch attempt from now on fails with ENOSPC.
  fp.arm(ServerFaultSchedule::scripted(std::vector<ServerFaultAction>(
      256, ServerFaultAction{ServerFaultKind::kEnospc, 0.0, 1.0})));

  SyncRequest upload;
  upload.guid = guid;
  upload.sync_seq = 1;
  upload.protocol_version = 3;
  upload.results.push_back(make_result(guid, guid.to_string() + "/1"));
  upload.results.push_back(make_result(guid, guid.to_string() + "/2"));

  // The batch carrying this upload fails: no ack may claim durability, and a
  // v3 client hears a typed degraded rejection with the configured hint.
  try {
    api.hot_sync(upload);
    FAIL() << "sync was acked while its entries could not be made durable";
  } catch (const ServerBusyError& e) {
    EXPECT_EQ(e.kind(), "degraded");
    EXPECT_EQ(e.retry_after_ms(), 123u);
  }
  ASSERT_TRUE(eventually(
      [&] { return ingest.journal_health() == GroupCommitJournal::Health::kDegraded; }));

  // While degraded: write-class requests are rejected before dispatch...
  SyncRequest second = upload;
  second.sync_seq = 2;
  second.results = {make_result(guid, guid.to_string() + "/3")};
  EXPECT_THROW(api.hot_sync(second), ServerBusyError);
  EXPECT_GE(ingest.overload_stats().degraded_rejects, 1u);

  // ...but a result-free sync still serves the testcase sample read-only.
  SyncRequest readonly;
  readonly.guid = guid;
  readonly.sync_seq = 3;
  readonly.protocol_version = 3;
  const SyncResponse browse = api.hot_sync(readonly);
  EXPECT_EQ(browse.accepted_results, 0u);

  // Disk comes back; the journal replays its parked entries and recovers.
  fp.disarm();
  ASSERT_TRUE(eventually(
      [&] { return ingest.journal_health() == GroupCommitJournal::Health::kOk; }));

  // The client's retry of the never-acked upload stores exactly once: the
  // parked entries were applied in memory before the disk died, so the retry
  // dedups, and the ack it finally gets is durable.
  const SyncResponse retry = api.hot_sync(upload);
  EXPECT_EQ(retry.accepted_results + retry.duplicate_results, 2u);
  EXPECT_EQ(server.results().size(), 2u);

  ingest.stop();

  // Reopen the journal independently: each run_id exactly once.
  Journal independent = Journal::open(dir.file("server.journal"));
  for (const auto& r : upload.results) {
    std::size_t found = 0;
    for (const auto& entry : independent.entries()) {
      if (entry.find(r.run_id) != std::string::npos) ++found;
    }
    EXPECT_EQ(found, 1u) << r.run_id;
  }
}

TEST(OverloadTcp, V1PeerIsShedSilentlyWireBytesPinned) {
  TempDir dir;
  UucsServer server(92, 4, /*shard_count=*/2);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.attach_journal(dir.file("server.journal"));
  ServerFailpoints fp;
  auto config = ingest_config();
  config.failpoints = &fp;
  IngestServer ingest(server, config);

  auto channel = TcpChannel::connect("127.0.0.1", ingest.port(), {5.0, 1.0, 5.0});
  RemoteServerApi api(*channel, /*protocol_version=*/1);
  const Guid guid = api.register_client(HostSpec::paper_study_machine(), "n-v1");

  fp.arm(ServerFaultSchedule::scripted(std::vector<ServerFaultAction>(
      256, ServerFaultAction{ServerFaultKind::kEnospc, 0.0, 1.0})));

  SyncRequest upload;
  upload.guid = guid;
  upload.sync_seq = 1;
  upload.results.push_back(make_result(guid, guid.to_string() + "/1"));

  // A v1 peer must never see the new [error] keys: the shed is silent and
  // the client's own read deadline is the backpressure signal.
  try {
    api.hot_sync(upload);
    FAIL() << "v1 sync was acked during a degraded spell";
  } catch (const ServerBusyError&) {
    FAIL() << "v1 peer received a v3 typed busy reply — wire bytes not pinned";
  } catch (const SystemError&) {
    // timeout: exactly the pre-v3 experience
  }
  ingest.stop();
}

TEST(OverloadTcp, StatsRequestRoundTripsEvenWhenDegraded) {
  TempDir dir;
  UucsServer server(93, 4, /*shard_count=*/2);
  server.attach_journal(dir.file("server.journal"));
  ServerFailpoints fp;
  auto config = ingest_config();
  config.failpoints = &fp;
  IngestServer ingest(server, config);

  // One journaled registration (LSN 1) and one result-free sync, whose ack
  // observed nothing and so completed without waiting for a batch.
  auto api_channel = connect_to(ingest.port());
  RemoteServerApi api(*api_channel);
  SyncRequest browse;
  browse.guid = api.register_client(HostSpec::paper_study_machine(), "n-stats");
  browse.sync_seq = 1;
  api.hot_sync(browse);

  KvRecord req("stats-request");
  req.set_int("version", 3);

  auto channel = connect_to(ingest.port());
  channel->write(kv_serialize({req}));
  auto reply = channel->read();
  ASSERT_TRUE(reply.has_value());
  auto records = kv_parse(*reply);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().type(), "stats-response");
  EXPECT_EQ(records.front().get_or("journal.health", ""), "ok");
  EXPECT_GE(records.front().get_int_or("loop.open_connections", -1), 1);
  EXPECT_TRUE(records.front().has("shed.queue"));
  EXPECT_TRUE(records.front().has("pressure.available_frac"));
  EXPECT_EQ(records.front().get_int_or("journal.durable_lsn", -1), 1);
  EXPECT_GE(records.front().get_int_or("journal.immediate_acks", -1), 1);

  ingest.stop();
}

// ------------------------------------------------- client retry behavior ----

/// MessageChannel fed from a scripted reply queue: each write() consumes the
/// next reply. Lets the retry decorator face exact busy/success sequences
/// without a server.
class ScriptedChannel final : public MessageChannel {
 public:
  explicit ScriptedChannel(std::deque<std::string> replies)
      : replies_(std::move(replies)) {}
  void write(const std::string&) override {
    if (replies_.empty()) throw ProtocolError("scripted channel exhausted");
    pending_ = replies_.front();
    replies_.pop_front();
  }
  std::optional<std::string> read() override {
    if (!pending_) throw ProtocolError("read with no request written");
    auto out = std::move(*pending_);
    pending_.reset();
    return out;
  }
  void close() override {}

 private:
  std::deque<std::string> replies_;
  std::optional<std::string> pending_;
};

std::string ok_sync_reply() {
  SyncResponse response;
  response.protocol_version = 3;
  return encode_sync_response(response);
}

TEST(BusyRetry, TypedBusyKeepsTheConnectionAndHonorsTheHint) {
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_s = 0.05;
  policy.max_delay_s = 10.0;
  std::size_t built = 0;
  RetryingServerApi api(
      [&]() -> std::unique_ptr<MessageChannel> {
        ++built;
        return std::make_unique<ScriptedChannel>(std::deque<std::string>{
            encode_busy("overload", "queue full", 400),
            encode_busy("degraded", "journal degraded", 400),
            ok_sync_reply(),
        });
      },
      clock, policy);

  SyncRequest req;
  req.guid = Guid::parse("00000000-0000-4000-8000-000000000001");
  const SyncResponse resp = api.hot_sync(req);
  EXPECT_EQ(resp.accepted_results, 0u);

  // Two typed sheds, one success: the connection survived all three rounds
  // (a busy server is not a broken transport), and each delay respected the
  // server's 400ms pacing hint.
  EXPECT_EQ(built, 1u);
  EXPECT_EQ(api.connects(), 1u);
  EXPECT_EQ(api.busy_retries(), 2u);
  EXPECT_EQ(api.retries(), 2u);
  ASSERT_EQ(api.backoff_delays().size(), 2u);
  for (const double d : api.backoff_delays()) {
    EXPECT_GE(d, 0.4);
    EXPECT_LE(d, 10.0);
  }
  EXPECT_GE(clock.now(), 0.8);  // both hinted sleeps actually happened
}

TEST(BusyRetry, ExhaustedAttemptsSurfaceTheBusyError) {
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_s = 0.01;
  RetryingServerApi api(
      [&]() -> std::unique_ptr<MessageChannel> {
        return std::make_unique<ScriptedChannel>(std::deque<std::string>{
            encode_busy("overload", "still full", 10),
            encode_busy("overload", "still full", 10),
        });
      },
      clock, policy);
  SyncRequest req;
  req.guid = Guid::parse("00000000-0000-4000-8000-000000000002");
  EXPECT_THROW(api.hot_sync(req), ServerBusyError);
  EXPECT_EQ(api.busy_retries(), 1u);  // one retry, then give up
}

TEST(BusyRetry, PlainErrorRepliesAreNotRetried) {
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryingServerApi api(
      [&]() -> std::unique_ptr<MessageChannel> {
        return std::make_unique<ScriptedChannel>(std::deque<std::string>{
            encode_error("sync_seq went backwards"),
        });
      },
      clock, policy);
  SyncRequest req;
  req.guid = Guid::parse("00000000-0000-4000-8000-000000000003");
  EXPECT_THROW(api.hot_sync(req), Error);
  EXPECT_EQ(api.retries(), 0u);
  EXPECT_EQ(api.busy_retries(), 0u);
}

TEST(BusyRetry, FirstBackoffDelayIsJitteredNotDeterministic) {
  // The old decorrelated-jitter seeded prev_delay at 0, which made every
  // client's FIRST retry exactly base_delay_s — a fleet knocked over
  // together came back together. The first delay must be uniform in
  // [base, 3 * base] and differ across jitter seeds.
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_s = 0.5;
  policy.max_delay_s = 30.0;

  std::set<long> quantized;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    VirtualClock clock;
    RetryPolicy p = policy;
    p.jitter_seed = seed;
    RetryingServerApi api(
        [&]() -> std::unique_ptr<MessageChannel> {
          throw SystemError("connection refused");
        },
        clock, p);
    SyncRequest req;
    req.guid = Guid::parse("00000000-0000-4000-8000-000000000004");
    EXPECT_THROW(api.hot_sync(req), SystemError);
    ASSERT_EQ(api.backoff_delays().size(), 1u);
    const double d = api.backoff_delays().front();
    EXPECT_GE(d, 0.5);
    EXPECT_LE(d, 1.5);  // 3 * base
    quantized.insert(std::lround(d * 1e6));
  }
  // 16 seeds must not collapse onto a handful of delays.
  EXPECT_GE(quantized.size(), 12u);
}

}  // namespace
}  // namespace uucs
