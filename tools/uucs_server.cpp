/// The deployable UUCS server (§2): loads (or creates) its text stores,
/// listens for client registrations and hot syncs over TCP, and persists
/// durably. Ctrl-C (SIGINT/SIGTERM) shuts it down gracefully: accept stops,
/// in-flight requests drain, the group-commit batch flushes, a final
/// snapshot lands, and the process exits 0.
///
/// Ingest plane (DESIGN.md §13): a single epoll event loop owns every
/// socket, a fixed worker pool runs the requests against a sharded store,
/// and durability goes through a group-commit journal — concurrent acks
/// share one buffered write + one fsync, so ten thousand syncing clients do
/// not mean ten thousand fsyncs. Acknowledged data is still durable before
/// the response leaves, and a crash between snapshots replays the journal
/// (DIR/server.journal) on restart.
///
/// Zero-downtime upgrade (DESIGN.md §14): start the running server with
/// --control-socket PATH, then start the new binary with --takeover PATH.
/// The old process pauses accepting (newcomers queue in the kernel
/// backlog), drains, flushes, snapshots, and hands the listening socket to
/// the new process over the control socket (SCM_RIGHTS). The new process
/// replays the state, confirms, and starts accepting on the inherited
/// socket; the old process retires and exits 0 without another snapshot.
///
/// Usage: uucs_server [--port P] [--dir STATE_DIR] [--testcases FILE]
///                    [--batch N] [--seed-suite] [--snapshot-every N]
///                    [--idle-timeout SECONDS] [--workers N] [--shards N]
///                    [--max-connections N] [--group-commit-max N]
///                    [--group-commit-wait-us N] [--control-socket PATH]
///                    [--takeover PATH] [--drain-timeout SECONDS]
///
///   --dir                  state directory (testcases/results/registrations
///                          .txt plus server.journal)
///   --testcases            merge an additional testcase file into the catalog
///   --seed-suite           generate the 2000+ Internet suite into an empty
///                          catalog
///   --batch                testcases handed out per hot sync (default 16)
///   --snapshot-every       full snapshot cadence in accepted journal entries
///                          (default 4096)
///   --idle-timeout         seconds without a complete request before a
///                          connection is dropped (default 900, 0 = never);
///                          partial frames do not count, so a slow-loris peer
///                          cannot hold a socket open by trickling bytes
///   --workers              request-handler threads (default 2)
///   --shards               independently locked state shards (default 4)
///   --max-connections      open-connection cap; accept pauses at the cap and
///                          resumes as connections close (default 8192)
///   --group-commit-max     journal entries at which a batch held for
///                          writers in flight is written at once
///                          (default 512)
///   --group-commit-wait-us longest a batch waits, in microseconds, for
///                          registrations and uploads still being
///                          dispatched; with none in flight it is written
///                          at once (default 500)
///   --control-socket       unix-domain socket where a successor may request
///                          a live takeover of this process
///   --takeover             take over the server listening on this control
///                          socket: inherit its listening socket, state dir,
///                          and journal (--port/--dir are then ignored)
///   --drain-timeout        seconds to wait for in-flight requests during a
///                          takeover or graceful shutdown before
///                          force-closing stragglers (default 10)
///
/// Overload control (DESIGN.md §15) — all off by default:
///
///   --max-queue-depth      dispatched-but-unanswered request cap; beyond it
///                          new work is shed (registrations before syncs)
///   --request-deadline-ms  shed requests that waited longer than this
///                          between the loop and a worker
///   --max-buffered-bytes   global cap on per-connection buffer memory;
///                          above it reads and accept pause until 7/8
///   --min-free-bytes       journal disk headroom; a batch that would leave
///                          less free space fails and the journal degrades
///                          (writes rejected, reads served) until space
///                          returns
///   --min-available-frac   pause accept while the host memory probe reports
///                          less than this fraction available (resumes at
///                          1.5x)
///   --retry-after-ms       backoff hint stamped on v3 busy/degraded replies
///                          (default 200)
///   --slow-fsync-ms        fsync latency above this widens the group-commit
///                          window (a batch may wait up to 5 ms for writers
///                          in flight and grow to 4x the cap: fewer, larger
///                          fsyncs) until the disk recovers
///   --stats-interval       print a one-line stats digest every S seconds
///   --server-faults        deterministic fault injection for chaos tests:
///                          "OP:KIND,..." with KIND enospc | eio |
///                          slow-fsync[=S] | pressure[=F], or "seed:N" for a
///                          seeded hostile schedule

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "server/ingest.hpp"
#include "server/takeover.hpp"
#include "testcase/suite.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace {

std::atomic<bool> g_shutdown{false};
std::atomic<bool> g_handed_off{false};

void on_signal(int) { g_shutdown.store(true); }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: uucs_server [--port P] [--dir DIR] [--testcases FILE] "
               "[--batch N] [--seed-suite] [--snapshot-every N] "
               "[--idle-timeout S] [--workers N] [--shards N] "
               "[--max-connections N] [--group-commit-max N] "
               "[--group-commit-wait-us N] [--control-socket PATH] "
               "[--takeover PATH] [--drain-timeout S] "
               "[--max-queue-depth N] [--request-deadline-ms D] "
               "[--max-buffered-bytes N] [--min-free-bytes N] "
               "[--min-available-frac F] [--retry-after-ms N] "
               "[--slow-fsync-ms D] [--stats-interval S] "
               "[--server-faults SPEC]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uucs;
  std::uint16_t port = 9120;
  std::string dir = "uucs_server_state";
  std::string extra_testcases;
  std::string control_socket;
  std::string takeover_path;
  std::size_t batch = 16;
  std::size_t shards = 4;
  double drain_timeout_s = 10.0;
  double stats_interval_s = 0.0;
  std::string fault_spec;
  bool seed_suite = false;
  IngestServer::Config config;
  config.snapshot_every = 4096;
  config.loop.idle_timeout_s = 900.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::stoul(next()));
    } else if (arg == "--dir") {
      dir = next();
    } else if (arg == "--testcases") {
      extra_testcases = next();
    } else if (arg == "--batch") {
      batch = std::stoul(next());
    } else if (arg == "--seed-suite") {
      seed_suite = true;
    } else if (arg == "--snapshot-every") {
      config.snapshot_every = std::stoul(next());
      if (config.snapshot_every == 0) usage();
    } else if (arg == "--idle-timeout") {
      config.loop.idle_timeout_s = std::stod(next());
      if (config.loop.idle_timeout_s < 0) usage();
    } else if (arg == "--workers") {
      config.loop.workers = std::stoul(next());
      if (config.loop.workers == 0) usage();
    } else if (arg == "--shards") {
      shards = std::stoul(next());
      if (shards == 0) usage();
    } else if (arg == "--max-connections") {
      config.loop.max_connections = std::stoul(next());
      if (config.loop.max_connections == 0) usage();
    } else if (arg == "--group-commit-max") {
      config.commit.max_batch_entries = std::stoul(next());
      if (config.commit.max_batch_entries == 0) usage();
    } else if (arg == "--group-commit-wait-us") {
      config.commit.max_wait_us = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--control-socket") {
      control_socket = next();
    } else if (arg == "--takeover") {
      takeover_path = next();
    } else if (arg == "--drain-timeout") {
      drain_timeout_s = std::stod(next());
      if (drain_timeout_s <= 0) usage();
    } else if (arg == "--max-queue-depth") {
      config.overload.max_queue_depth = std::stoul(next());
    } else if (arg == "--request-deadline-ms") {
      config.overload.request_deadline_ms = std::stod(next());
      if (config.overload.request_deadline_ms < 0) usage();
    } else if (arg == "--max-buffered-bytes") {
      config.loop.max_buffered_bytes = std::stoul(next());
    } else if (arg == "--min-free-bytes") {
      config.commit.min_free_bytes = std::stoull(next());
    } else if (arg == "--min-available-frac") {
      config.overload.min_available_frac = std::stod(next());
      if (config.overload.min_available_frac < 0 ||
          config.overload.min_available_frac > 1) {
        usage();
      }
    } else if (arg == "--retry-after-ms") {
      config.overload.retry_after_ms = std::stoull(next());
    } else if (arg == "--slow-fsync-ms") {
      config.commit.slow_fsync_threshold_s = std::stod(next()) / 1000.0;
      if (config.commit.slow_fsync_threshold_s < 0) usage();
    } else if (arg == "--stats-interval") {
      stats_interval_s = std::stod(next());
      if (stats_interval_s <= 0) usage();
    } else if (arg == "--server-faults") {
      fault_spec = next();
    } else {
      usage();
    }
  }

  // Takeover startup: receive the listening socket and state cursor from the
  // predecessor before touching any state of our own.
  std::unique_ptr<TakeoverClient> handoff;
  TakeoverClient::Inherited inherited;
  if (!takeover_path.empty()) {
    try {
      handoff = std::make_unique<TakeoverClient>(takeover_path);
      inherited = handoff->begin();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "takeover via %s failed: %s\n", takeover_path.c_str(),
                   e.what());
      return 1;
    }
    dir = inherited.state_dir;
    std::printf("taking over: port %u, state %s, generation %llu\n",
                inherited.port, dir.c_str(),
                static_cast<unsigned long long>(inherited.generation));
  }
  config.loop.port = port;
  config.state_dir = dir;

  // Load or initialize state.
  std::unique_ptr<UucsServer> server;
  if (path_exists(dir + "/testcases.txt")) {
    server = std::make_unique<UucsServer>(UucsServer::load(dir, 1, shards));
    std::printf("loaded state from %s: %zu testcases, %zu results, %zu clients\n",
                dir.c_str(), server->testcases().size(), server->results().size(),
                server->client_count());
  } else if (handoff) {
    std::fprintf(stderr, "takeover: predecessor state dir %s has no snapshot\n",
                 dir.c_str());
    return 1;
  } else {
    server = std::make_unique<UucsServer>(
        static_cast<std::uint64_t>(::getpid()) * 2654435761u, batch, shards);
    std::printf("fresh state in %s\n", dir.c_str());
  }
  if (!extra_testcases.empty()) {
    server->add_testcases(TestcaseStore::load(extra_testcases));
    std::printf("merged %s into the catalog (%zu testcases)\n",
                extra_testcases.c_str(), server->testcases().size());
  }
  if (seed_suite && server->testcases().empty()) {
    Rng rng(1);
    server->add_testcases(generate_internet_suite(SuiteSpec{}, rng));
    std::printf("seeded the Internet suite: %zu testcases\n",
                server->testcases().size());
  }

  // Crash durability: journal first, snapshot periodically.
  make_dirs(dir);
  const std::string journal_path =
      handoff ? inherited.journal_path : dir + "/server.journal";
  const std::size_t replayed = server->attach_journal(journal_path);
  if (replayed > 0) {
    std::printf("replayed %zu journal entries from a previous crash\n", replayed);
  }
  if (handoff) {
    server->set_generation(inherited.generation);
    config.loop.adopted_fd = inherited.listener.release();
    config.loop.start_paused = true;
  }

  // Deterministic server-side fault injection (chaos tests drive this; in
  // production the registry stays disarmed and costs one atomic load).
  ServerFailpoints failpoints;
  if (!fault_spec.empty()) {
    try {
      if (fault_spec.rfind("seed:", 0) == 0) {
        const std::uint64_t seed = std::stoull(fault_spec.substr(5));
        failpoints.arm(ServerFaultSchedule::seeded(seed, ServerFaultProfile::hostile()));
      } else {
        failpoints.arm(parse_server_fault_schedule(fault_spec));
      }
      std::printf("server failpoints armed: %s\n", fault_spec.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--server-faults %s: %s\n", fault_spec.c_str(), e.what());
      return 2;
    }
    config.failpoints = &failpoints;
  }

  IngestServer ingest(*server, config);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (handoff) {
    // Report what the replay produced; the predecessor compares against its
    // final snapshot and aborts the handoff on any mismatch.
    TakeoverClient::Go go = TakeoverClient::Go::kServe;
    try {
      go = handoff->confirm_ready(server->client_count(),
                                  server->results().size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "takeover: confirm failed: %s\n", e.what());
      return 1;
    }
    if (go == TakeoverClient::Go::kAbort) {
      std::fprintf(stderr,
                   "takeover: predecessor rolled back; exiting without serving\n");
      return 3;
    }
    handoff.reset();
    ingest.resume();
    std::printf("takeover complete: serving generation %llu\n",
                static_cast<unsigned long long>(server->generation()));
  }

  // A successor may request a live takeover of this process at any time.
  std::unique_ptr<TakeoverController> controller;
  if (!control_socket.empty()) {
    TakeoverController::Config tc;
    tc.socket_path = control_socket;
    tc.state_dir = dir;
    tc.journal_path = journal_path;
    tc.drain_timeout_s = drain_timeout_s;
    tc.on_handed_off = [] { g_handed_off.store(true); };
    try {
      controller = std::make_unique<TakeoverController>(ingest, *server, tc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "control socket %s: %s\n", control_socket.c_str(),
                   e.what());
      return 1;
    }
    std::printf("control socket at %s (takeover with: uucs_server --takeover %s)\n",
                control_socket.c_str(), control_socket.c_str());
  }

  std::printf(
      "uucs_server listening on 127.0.0.1:%u "
      "(%zu workers, %zu shards, %zu max connections; Ctrl-C to stop)\n",
      ingest.port(), config.loop.workers, shards, config.loop.max_connections);

  // Main wait loop; with --stats-interval it doubles as the stats reporter,
  // one greppable line per interval.
  int ticks_until_stats =
      stats_interval_s > 0 ? static_cast<int>(stats_interval_s * 10) : -1;
  while (!g_shutdown.load(std::memory_order_acquire) &&
         !g_handed_off.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (ticks_until_stats < 0 || --ticks_until_stats > 0) continue;
    ticks_until_stats = static_cast<int>(stats_interval_s * 10);
    const EventLoopStats ls = ingest.loop_stats();
    const OverloadStats os = ingest.overload_stats();
    std::string journal = "journal=none";
    if (ingest.has_committer()) {
      const GroupCommitJournal::Stats cs = ingest.commit_stats();
      const char* health = "ok";
      if (ingest.journal_health() == GroupCommitJournal::Health::kDegraded) {
        health = "degraded";
      } else if (ingest.journal_health() == GroupCommitJournal::Health::kBroken) {
        health = "broken";
      }
      journal = strprintf("journal=%s entries=%llu batches=%llu "
                          "waited_batches=%llu parked=%zu slow_fsyncs=%llu",
                          health, static_cast<unsigned long long>(cs.entries),
                          static_cast<unsigned long long>(cs.batches),
                          static_cast<unsigned long long>(cs.waited_batches),
                          cs.parked_entries,
                          static_cast<unsigned long long>(cs.slow_fsyncs));
    }
    std::printf("stats: conns=%zu inflight=%zu buffered=%zu "
                "shed[queue=%llu deadline=%llu reg=%llu degraded=%llu] "
                "pressure[paused=%llu frac=%.2f] %s\n",
                ls.open_connections, ls.inflight, ls.buffered_bytes,
                static_cast<unsigned long long>(os.shed_queue),
                static_cast<unsigned long long>(os.shed_deadline),
                static_cast<unsigned long long>(os.shed_registrations),
                static_cast<unsigned long long>(os.degraded_rejects),
                static_cast<unsigned long long>(os.pressure_pauses),
                os.last_available_frac, journal.c_str());
    std::fflush(stdout);
  }

  if (controller) controller->stop();
  const EventLoopStats stats = ingest.loop_stats();

  if (g_handed_off.load(std::memory_order_acquire)) {
    // The successor owns the state now. Snapshotting here would compact the
    // journal underneath it — stop the plane and get out of the way.
    ingest.stop();
    std::printf(
        "handed off to successor; exiting "
        "(%llu connections served, %llu requests)\n",
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.frames));
    return 0;
  }

  // Graceful shutdown: stop accepting, drain in-flight requests (bounded),
  // flush the group-commit batch, take a final snapshot, exit 0.
  const bool clean = ingest.quiesce(drain_timeout_s);
  if (!clean) {
    std::fprintf(stderr,
                 "drain timed out after %.1fs; force-closed stragglers "
                 "(their un-acked requests will be retried)\n",
                 drain_timeout_s);
  }
  ingest.snapshot_now();
  ingest.stop();
  std::printf(
      "shut down; state saved under %s "
      "(%llu connections served, %llu requests, %llu idle timeouts)\n",
      dir.c_str(), static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.frames),
      static_cast<unsigned long long>(stats.idle_timeouts));
  return 0;
}
