/// Ingest-plane scale bench (ISSUE 7 layer 4): a client swarm of real TCP
/// connections against the production server assembly — epoll event loop,
/// worker pool, sharded UucsServer, group-commit journal. Each swarm member
/// registers, performs S hot syncs of R records, then holds its connection
/// open, so the recorded numbers measure the server with every connection
/// still alive.
///
/// The swarm runs in forked child processes (forked *before* the server's
/// threads start) so one process is the server under test with all sockets
/// on its epoll, and the children supply genuine kernel-scheduled load.
/// Children drive their connections through a nonblocking epoll state
/// machine of their own, so a 5000-connection child is one process, not
/// 5000 threads.
///
/// The numbers land in BENCH_server.json (see --json): connections held,
/// syncs/s, acks/s, fsyncs per 1k acks (the group-commit win; a
/// fsync-per-append design would be ~1000), entries-per-batch reduction
/// factor, and p50/p90/p99 ack latency from real microsecond samples (a
/// per-child reservoir, not a histogram — earlier revisions bucketed by
/// log2 and could only report powers of two).
///
/// Usage:
///   bench_server [--connections N] [--procs K] [--syncs S] [--records R]
///                [--workers N] [--shards N] [--group-commit-max N]
///                [--group-commit-wait-us N] [--json FILE] [--smoke]
///
/// --records 0 makes every sync result-free (the testcase-fetch path).
/// --smoke shrinks the swarm (200 connections, 1 proc), asserts the
/// correctness floors (zero lost, zero duplicated, a minimum syncs/s), and
/// exits nonzero on any violation — the CI guard for the ingest plane.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "monitor/sysinfo.hpp"
#include "server/event_loop.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/fs.hpp"
#include "util/kvtext.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace {

using BenchClock = std::chrono::steady_clock;
using uucs::FrameReader;
using uucs::Guid;
using uucs::KvDoc;
using uucs::RunRecord;
using uucs::SyncRequest;
using uucs::TcpChannel;

/// Per-child cap on retained latency samples. 16k floats keeps the report a
/// single 64 KiB pipe transfer while giving p99 of a 20k-ack run ~200
/// samples above the cut line.
constexpr std::size_t kLatencyReservoir = 16384;

/// What one swarm child reports back over its pipe.
///
/// Latencies are raw microseconds under reservoir sampling, not histogram
/// buckets: the earlier log2 histogram could only ever report 1.5*2^b, so
/// p50/p99 landed on eye-catching powers of two (786432, 1572864) that were
/// artifacts of the bucketing, not measurements.
struct ChildReport {
  std::uint64_t registers = 0;
  std::uint64_t syncs_acked = 0;
  std::uint64_t records_acked = 0;
  std::uint64_t errors = 0;
  std::uint64_t latency_count = 0;  ///< acks observed (>= samples retained)
  float latency_us[kLatencyReservoir] = {};
};

void raise_fd_limit() {
  struct rlimit rl;
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
}

/// Nearest-rank percentile over sorted raw samples.
double sample_percentile(const std::vector<float>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx == 0) idx = 1;
  if (idx > sorted.size()) idx = sorted.size();
  return static_cast<double>(sorted[idx - 1]);
}

// --- swarm child -----------------------------------------------------------

enum class ConnState { kConnecting, kRegistering, kSyncing, kHolding, kDead };

struct SwarmConn {
  int fd = -1;
  ConnState state = ConnState::kConnecting;
  FrameReader reader;
  std::string out;
  std::size_t out_off = 0;
  bool registered_out = false;  ///< EPOLLOUT currently in the epoll set
  std::string guid;
  int next_sync = 0;
  BenchClock::time_point sent_at{};
};

struct SwarmChild {
  int epfd = -1;
  std::uint16_t port = 0;
  int syncs = 0;
  int records = 0;
  int child_index = 0;
  std::vector<SwarmConn> conns;
  std::size_t next_unstarted = 0;  ///< first conn not yet connect()ed
  std::size_t connecting = 0;      ///< conns mid-handshake (bounds SYN bursts)
  std::size_t settled = 0;         ///< holding or dead
  ChildReport report;
  std::string register_head;  ///< register payload up to the nonce value
  std::string register_tail;  ///< nonce onward: host spec, shared by all conns
  KvDoc doc;                  ///< recycled parse arena for every response
  SyncRequest req_scratch;    ///< recycled request arena (records kept warm)
  std::string payload_buf;    ///< recycled encode buffer for every request
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;  ///< reservoir replacement LCG

  /// Reservoir sampling (algorithm R): every ack has an equal chance of
  /// being retained, so the percentiles are unbiased even past the cap.
  void record_latency(double us) {
    const std::uint64_t n = report.latency_count++;
    std::size_t slot = static_cast<std::size_t>(n);
    if (n >= kLatencyReservoir) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      slot = static_cast<std::size_t>((rng >> 16) % (n + 1));
      if (slot >= kLatencyReservoir) return;
    }
    report.latency_us[slot] = static_cast<float>(us);
  }

  void update_events(std::size_t i) {
    SwarmConn& c = conns[i];
    const bool need_out = c.out_off < c.out.size() ||
                          c.state == ConnState::kConnecting;
    if (need_out == c.registered_out) return;  // epoll set already right
    struct epoll_event ev;
    ev.events = EPOLLIN | (need_out ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev);
    c.registered_out = need_out;
  }

  void fail(std::size_t i) {
    SwarmConn& c = conns[i];
    if (c.state == ConnState::kDead) return;
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    if (c.state == ConnState::kConnecting && connecting > 0) --connecting;
    c.state = ConnState::kDead;
    ++report.errors;
    ++settled;
  }

  void queue(std::size_t i, std::string_view payload) {
    SwarmConn& c = conns[i];
    c.out.clear();
    TcpChannel::frame_header_into(c.out, payload.size());
    c.out.append(payload.data(), payload.size());
    c.out_off = 0;
    c.sent_at = BenchClock::now();
    // Optimistic send: in the ping-pong steady state the socket is writable
    // and the frame fits the send buffer, so the common case needs no
    // EPOLLOUT registration (two epoll_ctl calls per request otherwise).
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        fail(i);
        return;
      }
    }
    update_events(i);
  }

  void start_one() {
    const std::size_t i = next_unstarted++;
    SwarmConn& c = conns[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (c.fd < 0) {
      fail(i);
      return;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc = ::connect(c.fd, reinterpret_cast<struct sockaddr*>(&addr),
                             sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      fail(i);
      return;
    }
    ++connecting;
    struct epoll_event ev;
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = i;
    c.registered_out = true;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, c.fd, &ev) != 0) fail(i);
  }

  /// Keep a bounded number of handshakes in flight so the listener backlog
  /// is never overwhelmed; established conns pull the next ones in.
  void pump_connects() {
    while (next_unstarted < conns.size() && connecting < 384) start_one();
  }

  /// Encodes the next sync request into the recycled `payload_buf` /
  /// `req_scratch` pair: after warm-up no per-sync heap allocation happens
  /// on the client side either, so the swarm's share of the single core
  /// measures the server, not the load generator.
  std::string_view sync_payload(std::size_t i) {
    SwarmConn& c = conns[i];
    req_scratch.guid = Guid::parse(c.guid);
    req_scratch.sync_seq = static_cast<std::uint64_t>(c.next_sync + 1);
    req_scratch.results.resize(static_cast<std::size_t>(records));
    for (int r = 0; r < records; ++r) {
      RunRecord& rec = req_scratch.results[static_cast<std::size_t>(r)];
      rec.run_id.clear();
      rec.run_id += c.guid;
      rec.run_id += '/';
      char seq[16];
      std::snprintf(seq, sizeof(seq), "%d", c.next_sync * records + r);
      rec.run_id += seq;
      rec.client_guid = c.guid;
      rec.testcase_id = "memory-ramp-x1-t120";
      rec.task = "bench";
      rec.discomforted = (r % 2) == 0;
      rec.offset_s = 10.0 + r;
    }
    payload_buf.clear();
    uucs::encode_sync_request_into(req_scratch, payload_buf);
    return payload_buf;
  }

  void on_frame(std::size_t i, std::string_view payload) {
    SwarmConn& c = conns[i];
    // Zero-copy client hot path: the view points into the connection's
    // frame buffer and `doc` recycles its pair/record vectors per frame.
    try {
      doc.parse(payload);
    } catch (const std::exception&) {
      fail(i);
      return;
    }
    if (doc.empty() || doc.at(0).type() == "error") {
      fail(i);
      return;
    }
    const double us = std::chrono::duration<double, std::micro>(
                          BenchClock::now() - c.sent_at)
                          .count();
    record_latency(us);
    if (c.state == ConnState::kRegistering) {
      c.guid = doc.at(0).get_or("guid", "");
      if (c.guid.empty()) {
        fail(i);
        return;
      }
      ++report.registers;
      c.state = ConnState::kSyncing;
      queue(i, sync_payload(i));
    } else if (c.state == ConnState::kSyncing) {
      const auto accepted = doc.at(0).get_int_or("accepted_results", -1);
      const auto dup = doc.at(0).get_int_or("duplicate_results", 0);
      if (accepted + dup != records) {
        fail(i);
        return;
      }
      ++report.syncs_acked;
      report.records_acked += static_cast<std::uint64_t>(records);
      if (++c.next_sync < syncs) {
        queue(i, sync_payload(i));
      } else {
        c.state = ConnState::kHolding;
        ++settled;
      }
    }
  }

  void on_writable(std::size_t i) {
    SwarmConn& c = conns[i];
    if (c.state == ConnState::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        fail(i);
        pump_connects();
        return;
      }
      --connecting;
      c.state = ConnState::kRegistering;
      payload_buf.clear();
      payload_buf += register_head;
      char nonce[48];
      std::snprintf(nonce, sizeof(nonce), "bench-%d-%zu", child_index, i);
      payload_buf += nonce;
      payload_buf += register_tail;
      queue(i, payload_buf);
      pump_connects();
      if (c.state == ConnState::kDead) return;  // queue's send may fail
    }
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        fail(i);
        return;
      }
    }
    if (c.out_off >= c.out.size()) update_events(i);
  }

  void on_readable(std::size_t i) {
    SwarmConn& c = conns[i];
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        try {
          c.reader.feed(buf, static_cast<std::size_t>(n));
        } catch (const std::exception&) {
          fail(i);
          return;
        }
        std::string_view frame;
        while (c.state != ConnState::kDead && c.reader.next_view(frame)) {
          on_frame(i, frame);  // view consumed before the next feed()
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) return;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        // EOF or error with the swarm still expecting responses.
        if (c.state != ConnState::kHolding) fail(i);
        return;
      }
    }
  }

  /// Runs the swarm to completion, reports, then parks until released.
  int run(std::size_t n_conns, int port_pipe, int report_pipe) {
    epfd = ::epoll_create1(0);
    if (epfd < 0) return 1;
    // Encode the register payload once and split it at the nonce, so each
    // connection's registration is two appends instead of a fresh HostSpec
    // probe + encode. Splitting on a sentinel (rather than hand-writing the
    // wire format here) keeps the bytes the encoder's own.
    const std::string sentinel = "@NONCE@";
    const std::string full = uucs::encode_register_request(
        uucs::HostSpec::paper_study_machine(), sentinel);
    const std::size_t at = full.find(sentinel);
    register_head = full.substr(0, at);
    register_tail = full.substr(at + sentinel.size());
    conns.resize(n_conns);
    pump_connects();
    std::vector<struct epoll_event> events(1024);
    while (settled < conns.size()) {
      const int n = ::epoll_wait(epfd, events.data(),
                                 static_cast<int>(events.size()), 30000);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // 30s of silence: report what we have
      for (int e = 0; e < n; ++e) {
        const std::size_t i = static_cast<std::size_t>(events[e].data.u64);
        if (conns[i].state == ConnState::kDead) continue;
        if (events[e].events & (EPOLLERR | EPOLLHUP)) {
          fail(i);
          continue;
        }
        if (events[e].events & EPOLLOUT) on_writable(i);
        if (conns[i].state != ConnState::kDead &&
            (events[e].events & EPOLLIN)) {
          on_readable(i);
        }
      }
      pump_connects();
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].state != ConnState::kHolding &&
          conns[i].state != ConnState::kDead) {
        ++report.errors;  // stranded mid-protocol by the 30s bail-out
      }
    }
    // The report (64 KiB of samples) exceeds PIPE_BUF; write it in pieces.
    const char* src = reinterpret_cast<const char*>(&report);
    std::size_t sent = 0;
    while (sent < sizeof(report)) {
      const ssize_t n = ::write(report_pipe, src + sent, sizeof(report) - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return 1;
      sent += static_cast<std::size_t>(n);
    }
    // Hold every connection open until the parent has sampled its stats.
    char release = 0;
    [[maybe_unused]] const ssize_t r = ::read(port_pipe, &release, 1);
    for (SwarmConn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    return 0;
  }
};

// --- parent ----------------------------------------------------------------

struct Options {
  std::size_t connections = 10000;
  std::size_t procs = 2;
  int syncs = 2;
  int records = 2;
  std::size_t workers = 2;
  std::size_t shards = 8;
  std::size_t commit_max = 512;
  // Wider than the server default (500), and kept so BENCH_server.json runs
  // stay comparable. With write intents it no longer buys larger batches:
  // at workers 2, five alternating rounds read 11.2 fsyncs per 1k acks at
  // 500 us against 16.3 at 2500 us (4-core Xeon VM), inside the swarm's
  // run-to-run spread.
  std::uint32_t commit_wait_us = 2500;
  std::string json_path;
  bool smoke = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_server [--connections N] [--procs K] [--syncs S] "
               "[--records R] [--workers N] [--shards N] [--group-commit-max N] "
               "[--group-commit-wait-us N] [--json FILE] [--smoke]\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage();
      return argv[i];
    };
    if (arg == "--connections") {
      opt.connections = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--procs") {
      opt.procs = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--syncs") {
      opt.syncs = std::atoi(next().c_str());
    } else if (arg == "--records") {
      opt.records = std::atoi(next().c_str());
    } else if (arg == "--workers") {
      opt.workers = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--shards") {
      opt.shards = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--group-commit-max") {
      opt.commit_max = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--group-commit-wait-us") {
      opt.commit_wait_us = static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage();
    }
  }
  if (opt.smoke) {
    opt.connections = 200;
    opt.procs = 1;
  }
  if (opt.connections == 0 || opt.procs == 0 || opt.syncs <= 0 ||
      opt.records < 0 || opt.procs > opt.connections) {
    usage();
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uucs;
  const Options opt = parse_options(argc, argv);
  raise_fd_limit();
  // Ten thousand "registered client" lines are not a benchmark result.
  Logger::instance().set_level(LogLevel::kWarn);

  // Fork the swarm before any server thread exists. Children learn the port
  // over their pipe once the server is up.
  struct Child {
    pid_t pid = -1;
    int port_pipe = -1;    // parent writes: port, then the release byte
    int report_pipe = -1;  // child writes its ChildReport
    std::size_t conns = 0;
  };
  std::vector<Child> children(opt.procs);
  const std::size_t per_child = opt.connections / opt.procs;
  for (std::size_t k = 0; k < opt.procs; ++k) {
    children[k].conns =
        per_child + (k == 0 ? opt.connections % opt.procs : 0);
    int port_fds[2], report_fds[2];
    if (::pipe(port_fds) != 0 || ::pipe(report_fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      for (std::size_t j = 0; j < k; ++j) {
        ::close(children[j].port_pipe);
        ::close(children[j].report_pipe);
      }
      ::close(port_fds[1]);
      ::close(report_fds[0]);
      SwarmChild swarm;
      swarm.child_index = static_cast<int>(k);
      swarm.syncs = opt.syncs;
      swarm.records = opt.records;
      std::uint16_t port = 0;
      if (::read(port_fds[0], &port, sizeof(port)) != sizeof(port)) std::_Exit(1);
      swarm.port = port;
      std::_Exit(swarm.run(children[k].conns, port_fds[0], report_fds[1]));
    }
    ::close(port_fds[0]);
    ::close(report_fds[1]);
    children[k].pid = pid;
    children[k].port_pipe = port_fds[1];
    children[k].report_pipe = report_fds[0];
  }

  // The server under test: sharded store, journal, group-commit ingest.
  TempDir state_dir;
  UucsServer server(4242, 16, opt.shards);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  server.add_testcase(make_ramp_testcase(Resource::kCpu, 0.5, 0.05, 60.0));
  server.attach_journal(state_dir.file("server.journal"));
  const std::uint64_t fsyncs_before = server.mutable_journal()->fsync_count();

  IngestServer::Config config;
  config.loop.port = 0;
  config.loop.workers = opt.workers;
  config.loop.max_connections = opt.connections + 64;
  config.loop.idle_timeout_s = 120.0;
  config.commit.max_batch_entries = opt.commit_max;
  config.commit.max_wait_us = opt.commit_wait_us;
  if (opt.smoke) {
    // Overload control on, with room to spare: a healthy swarm must sail
    // through without a single request shed (asserted below). Catches both
    // spurious shedding and accounting leaks in the admission gate.
    config.overload.max_queue_depth = opt.connections * 4;
    config.overload.request_deadline_ms = 60000.0;
  }
  IngestServer ingest(server, config);

  const auto t0 = BenchClock::now();
  const std::uint16_t port = ingest.port();
  for (Child& c : children) {
    if (::write(c.port_pipe, &port, sizeof(port)) != sizeof(port)) {
      std::perror("write port");
      return 1;
    }
  }

  // Children report only when every connection has finished its syncs (and
  // is still holding its socket open).
  ChildReport total;
  std::vector<float> latencies;  // merged samples from every child
  bool report_failures = false;
  for (Child& c : children) {
    auto r = std::make_unique<ChildReport>();
    std::size_t got = 0;
    while (got < sizeof(*r)) {
      const ssize_t n = ::read(c.report_pipe,
                               reinterpret_cast<char*>(r.get()) + got,
                               sizeof(*r) - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (got != sizeof(*r)) {
      std::fprintf(stderr, "child %d died without reporting\n", (int)c.pid);
      report_failures = true;
      continue;
    }
    total.registers += r->registers;
    total.syncs_acked += r->syncs_acked;
    total.records_acked += r->records_acked;
    total.errors += r->errors;
    total.latency_count += r->latency_count;
    const std::size_t kept = static_cast<std::size_t>(
        std::min<std::uint64_t>(r->latency_count, kLatencyReservoir));
    latencies.insert(latencies.end(), r->latency_us, r->latency_us + kept);
  }
  // Children run identical workloads, so concatenating their equal-rate
  // reservoirs keeps the merged sample unbiased.
  std::sort(latencies.begin(), latencies.end());
  const double wall_s =
      std::chrono::duration<double>(BenchClock::now() - t0).count();

  // Sample while the swarm still holds every connection.
  const EventLoopStats loop_stats = ingest.loop_stats();
  const GroupCommitJournal::Stats commit = ingest.commit_stats();
  const std::uint64_t fsyncs = server.mutable_journal()->fsync_count() - fsyncs_before;

  // Release the swarm, reap it, stop the server.
  for (Child& c : children) {
    const char release = 1;
    [[maybe_unused]] const ssize_t n = ::write(c.port_pipe, &release, 1);
  }
  for (Child& c : children) {
    int status = 0;
    ::waitpid(c.pid, &status, 0);
    ::close(c.port_pipe);
    ::close(c.report_pipe);
  }
  ingest.stop();

  // Correctness before speed: every acked record stored exactly once.
  const std::uint64_t stored = server.results().size();
  const std::uint64_t lost =
      total.records_acked > stored ? total.records_acked - stored : 0;
  const std::uint64_t duplicated =
      stored > total.records_acked ? stored - total.records_acked : 0;

  const double syncs_per_s = static_cast<double>(total.syncs_acked) / wall_s;
  const double acks_per_s =
      static_cast<double>(total.syncs_acked + total.registers) / wall_s;
  const double fsyncs_per_1k_acks =
      total.syncs_acked + total.registers == 0
          ? 0.0
          : 1000.0 * static_cast<double>(fsyncs) /
                static_cast<double>(total.syncs_acked + total.registers);
  const double entries_per_batch =
      commit.batches == 0 ? 0.0
                          : static_cast<double>(commit.entries) /
                                static_cast<double>(commit.batches);
  // A fsync-per-append design needs one fsync per journal entry; ours needs
  // one per batch. This is the ISSUE's ">= 50x fewer fsyncs" headline.
  const double fsync_reduction =
      fsyncs == 0 ? 0.0
                  : static_cast<double>(commit.entries) / static_cast<double>(fsyncs);
  const double p50_us = sample_percentile(latencies, 0.50);
  const double p90_us = sample_percentile(latencies, 0.90);
  const double p99_us = sample_percentile(latencies, 0.99);

  std::printf("connections        %zu held (max open %zu, accepted %llu)\n",
              loop_stats.open_connections, loop_stats.max_open_connections,
              static_cast<unsigned long long>(loop_stats.accepted));
  std::printf("wall               %.3f s\n", wall_s);
  std::printf("registers          %llu\n",
              static_cast<unsigned long long>(total.registers));
  std::printf("syncs acked        %llu (%.1f/s)\n",
              static_cast<unsigned long long>(total.syncs_acked), syncs_per_s);
  std::printf("records stored     %llu (lost %llu, duplicated %llu)\n",
              static_cast<unsigned long long>(stored),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(duplicated));
  std::printf("errors             %llu\n",
              static_cast<unsigned long long>(total.errors));
  std::printf("journal            %llu entries in %llu batches "
              "(%.1f entries/batch, largest %llu, %llu waited for writers "
              "in flight)\n",
              static_cast<unsigned long long>(commit.entries),
              static_cast<unsigned long long>(commit.batches), entries_per_batch,
              static_cast<unsigned long long>(commit.largest_batch),
              static_cast<unsigned long long>(commit.waited_batches));
  std::printf("fsyncs             %llu (%.2f per 1k acks; %.0fx fewer than "
              "fsync-per-append)\n",
              static_cast<unsigned long long>(fsyncs), fsyncs_per_1k_acks,
              fsync_reduction);
  std::printf("ack latency        p50 %.0f us, p90 %.0f us, p99 %.0f us "
              "(%zu samples of %llu acks)\n",
              p50_us, p90_us, p99_us, latencies.size(),
              static_cast<unsigned long long>(total.latency_count));
  // Acks whose LSN was already durable when the worker asked: they went
  // out at once instead of waiting for a batch (result-free syncs).
  std::printf("immediate acks     %llu of %llu (%.1f%%)\n",
              static_cast<unsigned long long>(commit.immediate_acks),
              static_cast<unsigned long long>(total.syncs_acked + total.registers),
              100.0 * static_cast<double>(commit.immediate_acks) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, total.syncs_acked + total.registers)));
  std::printf("cores              %d\n", uucs::bench::affinity_cores());

  if (!opt.json_path.empty()) {
    std::string json = "{\n";
    json +=
        "  \"description\": \"bench_server: client swarm against the ingest "
        "plane (epoll event loop + worker pool + sharded store + group-commit "
        "journal). Children forked before server threads drive nonblocking "
        "client state machines; every connection registers, hot-syncs, then "
        "stays open until the stats are sampled.\",\n";
    json += uucs::strprintf("  \"cores\": %d,\n", uucs::bench::affinity_cores());
    json += uucs::strprintf(
        "  \"config\": { \"connections\": %zu, \"procs\": %zu, \"syncs\": %d, "
        "\"records\": %d, \"workers\": %zu, \"shards\": %zu, "
        "\"group_commit_max\": %zu, \"group_commit_wait_us\": %u },\n",
        opt.connections, opt.procs, opt.syncs, opt.records, opt.workers,
        opt.shards, opt.commit_max, opt.commit_wait_us);
    json += uucs::strprintf(
        "  \"connections_held\": %zu,\n  \"max_open_connections\": %zu,\n",
        loop_stats.open_connections, loop_stats.max_open_connections);
    json += uucs::strprintf("  \"wall_s\": %.3f,\n", wall_s);
    json += uucs::strprintf(
        "  \"registers\": %llu,\n  \"syncs_acked\": %llu,\n"
        "  \"records_stored\": %llu,\n  \"lost\": %llu,\n"
        "  \"duplicated\": %llu,\n  \"errors\": %llu,\n",
        static_cast<unsigned long long>(total.registers),
        static_cast<unsigned long long>(total.syncs_acked),
        static_cast<unsigned long long>(stored),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(duplicated),
        static_cast<unsigned long long>(total.errors));
    json += uucs::strprintf(
        "  \"syncs_per_s\": %.1f,\n  \"acks_per_s\": %.1f,\n", syncs_per_s,
        acks_per_s);
    json += uucs::strprintf(
        "  \"journal_entries\": %llu,\n  \"journal_batches\": %llu,\n"
        "  \"entries_per_batch\": %.1f,\n  \"largest_batch\": %llu,\n"
        "  \"waited_batches\": %llu,\n",
        static_cast<unsigned long long>(commit.entries),
        static_cast<unsigned long long>(commit.batches), entries_per_batch,
        static_cast<unsigned long long>(commit.largest_batch),
        static_cast<unsigned long long>(commit.waited_batches));
    json += uucs::strprintf(
        "  \"fsyncs\": %llu,\n  \"fsyncs_per_1k_acks\": %.2f,\n"
        "  \"fsync_reduction_vs_per_append\": %.1f,\n"
        "  \"immediate_acks\": %llu,\n",
        static_cast<unsigned long long>(fsyncs), fsyncs_per_1k_acks,
        fsync_reduction, static_cast<unsigned long long>(commit.immediate_acks));
    json += uucs::strprintf(
        "  \"ack_latency_p50_us\": %.0f,\n  \"ack_latency_p90_us\": %.0f,\n"
        "  \"ack_latency_p99_us\": %.0f,\n",
        p50_us, p90_us, p99_us);
    json += uucs::strprintf(
        "  \"ack_latency_samples\": %zu,\n  \"ack_latency_acks\": %llu\n",
        latencies.size(), static_cast<unsigned long long>(total.latency_count));
    json += "}\n";
    uucs::write_file(opt.json_path, json);
    std::printf("\nwrote %s\n", opt.json_path.c_str());
  }

  bool ok = !report_failures && lost == 0 && duplicated == 0;
  if (opt.smoke) {
    // CI floors: correctness is absolute; the throughput floor is set far
    // below any healthy run so only a real regression trips it.
    constexpr double kMinSyncsPerS = 50.0;
    if (total.errors != 0) {
      std::fprintf(stderr, "SMOKE FAIL: %llu connection errors\n",
                   static_cast<unsigned long long>(total.errors));
      ok = false;
    }
    if (total.registers != opt.connections ||
        total.syncs_acked !=
            opt.connections * static_cast<std::size_t>(opt.syncs)) {
      std::fprintf(stderr, "SMOKE FAIL: incomplete swarm\n");
      ok = false;
    }
    if (syncs_per_s < kMinSyncsPerS) {
      std::fprintf(stderr, "SMOKE FAIL: %.1f syncs/s < %.1f floor\n",
                   syncs_per_s, kMinSyncsPerS);
      ok = false;
    }
    // With the generous overload config above, a healthy swarm must never
    // be shed — any nonzero count means the gate misfires under load.
    const uucs::OverloadStats shed = ingest.overload_stats();
    const std::uint64_t total_shed = shed.shed_queue + shed.shed_deadline +
                                     shed.shed_registrations +
                                     shed.degraded_rejects;
    if (total_shed != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: %llu requests shed (queue=%llu deadline=%llu "
                   "reg=%llu degraded=%llu) under a healthy load\n",
                   static_cast<unsigned long long>(total_shed),
                   static_cast<unsigned long long>(shed.shed_queue),
                   static_cast<unsigned long long>(shed.shed_deadline),
                   static_cast<unsigned long long>(shed.shed_registrations),
                   static_cast<unsigned long long>(shed.degraded_rejects));
      ok = false;
    }
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
  } else if (lost != 0 || duplicated != 0) {
    std::fprintf(stderr, "FAIL: lost=%llu duplicated=%llu\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(duplicated));
  }
  return ok ? 0 : 1;
}
