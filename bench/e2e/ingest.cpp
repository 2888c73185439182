// Ingest workloads: a real ingest server in this process, configured like
// uucs_server's defaults, driven over loopback TCP by one generator thread
// (this one) on at most nproc connections.
//
// A run is a sequence of epochs. Each epoch starts a fresh server with a
// fresh journal on the state directory's disk, registers every client and
// warms up (set-up), then alternates rounds of a seeded Poisson open loop
// at the workload's frozen rate (latency is timed from each request's due
// time, so queueing inside the generator counts) and a fixed-count closed
// loop at the workload's maximum in-flight count (throughput), then audits
// exactly-once. Fresh servers bound memory: the server keeps every
// uploaded record.
//
// The traced run alternates untraced and traced epochs. A traced epoch
// swaps IngestServer for an EventLoopServer whose handler is the
// benchmark's copy of IngestServer::handle_request, stamping each public
// call; with the generator's own stamps every acked request decomposes
// into seven stages that sum to its client-observed latency.

#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/event_loop.hpp"
#include "server/ingest.hpp"
#include "server/net.hpp"
#include "server/overload.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "study/controlled_study.hpp"
#include "testcase/suite.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"
#include "util/kvtext.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace uucs_bench {
namespace {

/// Frozen workload parameters. `rate` is half of the closed-loop
/// saturation measured on the reference host when the benchmark was
/// defined, rounded down; it must not be retuned, or numbers stop being
/// comparable across commits.
struct IngestShape {
  bool upload = true;
  std::size_t clients = 4096;
  std::size_t conns = 4;
  std::size_t pipeline = 64;        ///< in flight per connection (client-side cap)
  std::size_t records = 6;          ///< per upload sync
  double rate = 0.0;                ///< open-loop syncs/s
  double open_s = 2.0;              ///< open-loop time, per epoch
  std::size_t closed_syncs = 7000;  ///< closed-loop syncs (~0.5 s), per epoch
  std::size_t rounds = 4;           ///< open/closed alternations per epoch
  std::size_t warmup = 2048;        ///< closed-loop syncs inside set-up
};

IngestShape ingest_shape(const Options& opt) {
  IngestShape s;
  s.upload = opt.workload == "ingest-upload";
  if (s.upload) {
    s.rate = 7000.0;  // saturation 13.7-14.7k syncs/s
  } else {
    // Result-free replies carry no id to match on: one in flight each.
    s.pipeline = 1;
    s.records = 0;
    s.rate = 1700.0;  // saturation 3.3-3.6k syncs/s
    s.closed_syncs = 2000;
    s.warmup = 512;
  }
  if (opt.smoke) {
    s.clients = 256;
    s.rate /= 4.0;
    s.open_s = 0.3;
    s.closed_syncs /= 8;
    s.rounds = 1;
    s.warmup = 128;
  }
  return s;
}

/// uucs_server's defaults: 2 workers, 4 shards, group commit 512 / 500 us,
/// overload control off. Snapshots are off: at benchmark rates a full
/// snapshot every 4096 entries would rewrite the whole store many times a
/// second and the workload would measure save(), not the sync path.
uucs::IngestServer::Config server_config() {
  uucs::IngestServer::Config c;
  c.loop.port = 0;
  c.loop.workers = 2;
  c.loop.max_connections = 8192;
  c.loop.idle_timeout_s = 900.0;
  c.commit.max_batch_entries = 512;
  c.commit.max_wait_us = 500;
  c.snapshot_every = 0;
  return c;
}
constexpr std::size_t kShards = 4;
constexpr std::size_t kServerThreads = 4;  ///< loop + 2 workers + committer

// --- server-side stamps (traced epochs) ---------------------------------------

/// Stamps one request collects inside the server. The worker writes its
/// fields before append_async (whose mutex orders them before the
/// callback's writes); the generator reads them only after the server
/// stopped, and joining its threads orders those reads after every write.
struct ServerStamps {
  std::int64_t handler = 0;     ///< handler entry (worker)
  std::int64_t admitted = 0;    ///< peek + admit done
  std::int64_t dispatched = 0;  ///< dispatch_request_deferred done
  std::int64_t batch = 0;       ///< its batch's write started
  std::int64_t callback = 0;    ///< durability callback entry
  std::uint32_t request_bytes = 0;
  std::uint32_t response_bytes = 0;
};

/// The request serial a sync carries as `sync_seq = serial + 1`; -1 for
/// anything else (registrations).
std::int64_t sync_serial(std::string_view payload) {
  constexpr std::string_view kKey = "\nsync_seq = ";
  const std::size_t at = payload.find(kKey);
  if (at == std::string_view::npos) return -1;
  std::int64_t seq = 0;
  const char* begin = payload.data() + at + kKey.size();
  const auto [ptr, ec] = std::from_chars(begin, payload.data() + payload.size(), seq);
  return (ec != std::errc() || seq <= 0) ? -1 : seq - 1;
}

/// The traced stand-in for IngestServer: the same loop, admission gate,
/// dispatch and group commit, wired by the benchmark so each call is
/// stamped. Only the healthy-journal path of IngestServer::handle_request
/// is copied: the benchmark never degrades the journal or asks for stats.
class TracedIngest {
 public:
  TracedIngest(uucs::UucsServer& server, const uucs::IngestServer::Config& config,
               std::vector<ServerStamps>& stamps)
      : server_(server), stamps_(stamps) {
    uucs::GroupCommitJournal::Config commit = config.commit;
    // Runs on the commit thread once per batch write, before the disk is
    // touched; injects nothing, only stamps the batch start.
    commit.fault_hook = [this] {
      batch_start_ns_ = now_ns();
      return uucs::JournalFault{};
    };
    committer_ = std::make_unique<uucs::GroupCommitJournal>(*server_.mutable_journal(), commit);
    overload_ = std::make_unique<uucs::OverloadController>(config.overload);
    loop_ = std::make_unique<uucs::EventLoopServer>(
        config.loop, [this](std::string payload, uucs::EventLoopServer::Responder respond) {
          handle(std::move(payload), std::move(respond));
        });
  }
  ~TracedIngest() { stop(); }
  TracedIngest(const TracedIngest&) = delete;
  TracedIngest& operator=(const TracedIngest&) = delete;

  std::uint16_t port() const { return loop_->port(); }
  uucs::EventLoopStats loop_stats() const { return loop_->stats(); }
  uucs::GroupCommitJournal::Stats commit_stats() const { return committer_->stats(); }

  /// Journal bytes, read with the commit thread parked.
  std::size_t journal_bytes() {
    std::size_t bytes = 0;
    committer_->with_exclusive([&] { bytes = server_.journal()->size_bytes(); });
    return bytes;
  }

  /// IngestServer::stop's order: loop first (no handler mid-flight), then
  /// the committer (drains every queued ack).
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    loop_->stop();
    committer_.reset();
  }

 private:
  void handle(std::string payload, uucs::EventLoopServer::Responder respond) {
    const std::int64_t serial = sync_serial(payload);
    ServerStamps* st = (serial >= 0 && static_cast<std::size_t>(serial) < stamps_.size())
                           ? &stamps_[static_cast<std::size_t>(serial)]
                           : nullptr;
    const std::int64_t t_handler = now_ns();
    const uucs::RequestPeek peek = uucs::peek_request(payload);
    const uucs::Admission verdict =
        overload_->admit(peek, respond.queue_age_ms(), loop_->inflight());
    const std::int64_t t_admitted = now_ns();
    if (verdict != uucs::Admission::kOk) {  // overload control is off
      respond.dismiss();
      return;
    }
    uucs::DispatchResult result = uucs::dispatch_request_deferred(server_, payload);
    const std::int64_t t_dispatched = now_ns();
    if (st != nullptr) {
      st->handler = t_handler;
      st->admitted = t_admitted;
      st->dispatched = t_dispatched;
      st->request_bytes = static_cast<std::uint32_t>(payload.size());
      st->response_bytes = static_cast<std::uint32_t>(result.response.size());
    }
    committer_->append_async(
        std::move(result.journal_entries),
        [this, st, t_dispatched, respond,
         response = std::move(result.response)](bool durable) mutable {
          const std::int64_t t_cb = now_ns();
          if (st != nullptr) {
            // The request's batch is the last one that started writing at
            // or after its append; an older stamp means its batch carried
            // barriers only and wrote nothing (it lingered, then acked).
            st->batch = batch_start_ns_ >= t_dispatched ? batch_start_ns_ : t_cb;
            st->callback = t_cb;
          }
          if (durable) {
            respond.send(std::move(response));
          } else {
            respond.dismiss();
          }
        });
  }

  uucs::UucsServer& server_;
  std::vector<ServerStamps>& stamps_;  ///< indexed by request serial
  std::int64_t batch_start_ns_ = 0;    ///< commit thread only
  bool stopped_ = false;
  std::unique_ptr<uucs::GroupCommitJournal> committer_;
  std::unique_ptr<uucs::OverloadController> overload_;
  std::unique_ptr<uucs::EventLoopServer> loop_;  ///< last: stops first
};

// --- the generator ------------------------------------------------------------

enum class Phase : std::uint8_t { kWarmup, kOpen, kClosed };

/// One sync, as the generator sees it.
struct Req {
  std::int64_t due_ns = 0;    ///< open loop: scheduled send time; else issue time
  std::int64_t issue_ns = 0;  ///< when the generator picked it up
  std::int64_t sent_ns = 0;   ///< stamp taken before the send() that completed it
  std::int64_t recv_ns = 0;   ///< stamp taken after the recv() that completed the reply
  std::uint32_t client = 0;
  Phase phase = Phase::kWarmup;
  bool acked = false;
};

struct Conn {
  int fd = -1;
  uucs::FrameReader reader;
  std::string out;                 ///< queued request frames
  std::size_t out_off = 0;         ///< bytes of `out` already sent
  std::uint64_t queued_total = 0;  ///< bytes ever queued
  std::uint64_t sent_total = 0;    ///< bytes ever sent
  std::deque<std::pair<std::uint64_t, std::int64_t>> unsent;  ///< (frame end, serial)
  std::size_t in_flight = 0;
  std::int64_t current = -1;       ///< fetch: the one request in flight
  bool want_out = false;
  bool dead = false;
};

/// Drives one epoch's traffic. Single-threaded: every socket, the arrival
/// schedule and the reply checks run on the calling thread. Clients are
/// drawn when a sync is issued and records when it is sent, each from its
/// own stream; both happen in serial order, so a seed fixes every input.
class Generator {
 public:
  Generator(const IngestShape& shape, std::uint16_t port,
            const std::vector<uucs::RunRecord>& pool,
            const std::vector<std::string>& known, std::size_t req_cap,
            uucs::Rng client_picks, uucs::Rng record_picks)
      : shape_(shape), pool_(pool), client_picks_(client_picks),
        record_picks_(record_picks), cap_(req_cap) {
    reqs_.reserve(req_cap);
    request_.protocol_version = uucs::kProtocolVersionMax;
    request_.known_testcase_ids = known;
    request_.results.resize(shape.records);
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) problem("epoll_create1 failed");
    conns_.resize(shape.conns);
    for (std::size_t i = 0; i < conns_.size(); ++i) connect_one(i, port);
  }
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epfd_ >= 0) ::close(epfd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Registers `n` clients, 64 in flight per connection (replies need no
  /// matching); collects the server-minted GUIDs.
  void register_clients(std::size_t n) {
    const std::string sentinel = "@NONCE@";
    const std::string full = uucs::encode_register_request(
        uucs::HostSpec::paper_study_machine(), sentinel, uucs::kProtocolVersionMax);
    const std::size_t at = full.find(sentinel);
    registering_ = true;
    std::size_t issued = 0;
    const auto fill = [&] {
      for (std::size_t i = 0; i < conns_.size() && issued < n; ++i) {
        while (conns_[i].in_flight < 64 && issued < n && !conns_[i].dead) {
          payload_.assign(full, 0, at);
          payload_ += "bench-" + std::to_string(issued++);
          payload_.append(full, at + sentinel.size());
          queue_frame(i, -1);
        }
      }
    };
    fill();
    last_progress_ = now_ns();
    while (guids_.size() + reg_errors_ < n && !stall_) {
      pump(now_ns() + 100'000'000);
      check_progress();
      fill();
    }
    registering_ = false;
    if (guids_.size() != n) problem("registered " + std::to_string(guids_.size()) + " of " + std::to_string(n));
  }

  /// Closed loop: issues `count` syncs, keeping every connection at its
  /// pipeline cap, and waits for the last ack. Returns the seconds from
  /// the first send to the last ack. A fixed count (not a fixed time)
  /// keeps the records the server ends up holding, and so its memory,
  /// independent of how fast it is.
  double closed_loop(Phase phase, std::size_t count) {
    closed_phase_ = phase;
    closed_left_ = count;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < conns_.size(); ++i) refill(i);
    drain();
    closed_left_ = 0;
    std::int64_t last = start;
    for (const Req& r : reqs_) last = std::max(last, r.recv_ns);
    return seconds(last - start);
  }

  /// Open loop: Poisson arrivals at `rate` for [start, end), each timed
  /// from its due time; requests wait in a client-side FIFO while every
  /// connection is at its cap. Drains before returning.
  void open_loop(double rate, std::int64_t start, std::int64_t end, uucs::Rng& arrivals) {
    const double mean_gap_ns = 1e9 / rate;
    double next_due = static_cast<double>(start) + arrivals.exponential(mean_gap_ns);
    while (!stall_) {
      const std::int64_t now = now_ns();
      while (static_cast<std::int64_t>(next_due) <= now && next_due < end) {
        const std::int64_t serial = new_request(Phase::kOpen, static_cast<std::int64_t>(next_due), now);
        if (serial < 0) break;
        place(serial);
        next_due += arrivals.exponential(mean_gap_ns);
      }
      if (next_due >= end) break;
      pump(static_cast<std::int64_t>(next_due));
    }
    drain();
  }

  const std::vector<Req>& requests() const { return reqs_; }
  const std::vector<std::string>& guid_strings() const { return guid_strs_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  const std::vector<std::string>& problems() const { return problems_; }
  /// The first kCaptureFrames sync frames sent while capture was on.
  static constexpr std::size_t kCaptureFrames = 2000;
  const std::string& captured() const { return captured_; }
  void set_capture(bool on) { capturing_ = on; }

 private:
  void problem(const std::string& why) {
    if (problems_.size() < 20) problems_.push_back(why);
  }

  void connect_one(std::size_t i, std::uint16_t port) {
    Conn& c = conns_[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) {
      problem("socket failed");
      c.dead = true;
      return;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      problem(std::string("connect: ") + std::strerror(errno));
      c.dead = true;
      return;
    }
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev);
  }

  /// Allocates the next request serial (-1 once the cap is reached).
  std::int64_t new_request(Phase phase, std::int64_t due, std::int64_t issue) {
    if (reqs_.size() >= cap_) {  // sized for 1.5x the expected arrivals
      if (!stall_) problem("request cap reached");
      stall_ = true;
      return -1;
    }
    Req r;
    r.due_ns = due;
    r.issue_ns = issue;
    r.phase = phase;
    r.client = static_cast<std::uint32_t>(
        client_picks_.uniform_int(0, static_cast<std::int64_t>(guids_.size()) - 1));
    reqs_.push_back(r);
    return static_cast<std::int64_t>(reqs_.size() - 1);
  }

  /// Open loop: the least-loaded connection with room, else the backlog.
  void place(std::int64_t serial) {
    std::size_t best = conns_.size();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].dead || conns_[i].in_flight >= shape_.pipeline) continue;
      if (best == conns_.size() || conns_[i].in_flight < conns_[best].in_flight) best = i;
    }
    if (best == conns_.size()) {
      backlog_.push_back(serial);
    } else {
      send_sync(best, serial);
    }
  }

  /// Closed loop: tops connection `i` back up to its cap.
  void refill(std::size_t i) {
    while (closed_left_ > 0 && conns_[i].in_flight < shape_.pipeline && !conns_[i].dead) {
      const std::int64_t now = now_ns();
      const std::int64_t serial = new_request(closed_phase_, now, now);
      if (serial < 0) return;
      --closed_left_;
      send_sync(i, serial);
    }
  }

  void send_sync(std::size_t i, std::int64_t serial) {
    const Req& r = reqs_[static_cast<std::size_t>(serial)];
    request_.guid = guids_[r.client];
    request_.sync_seq = static_cast<std::uint64_t>(serial) + 1;
    const std::string& guid = guid_strs_[r.client];
    for (std::size_t k = 0; k < shape_.records; ++k) {
      uucs::RunRecord& rec = request_.results[k];
      rec = pool_[static_cast<std::size_t>(
          record_picks_.uniform_int(0, static_cast<std::int64_t>(pool_.size()) - 1))];
      // guid/serial: the serial names the request, so replies are matched
      // by their first stored run_id.
      rec.run_id.assign(guid);
      rec.run_id += '/';
      char num[24];
      const auto res = std::to_chars(num, num + sizeof(num),
                                     static_cast<std::uint64_t>(serial) * shape_.records + k);
      rec.run_id.append(num, res.ptr);
      rec.client_guid = guid;
    }
    payload_.clear();
    uucs::encode_sync_request_into(request_, payload_);
    if (shape_.records == 0) conns_[i].current = serial;
    queue_frame(i, serial);
  }

  void queue_frame(std::size_t i, std::int64_t serial) {
    Conn& c = conns_[i];
    const std::size_t before = c.out.size();
    uucs::TcpChannel::frame_header_into(c.out, payload_.size());
    c.out += payload_;
    const std::size_t bytes = c.out.size() - before;
    if (capturing_ && captured_frames_ < kCaptureFrames && serial >= 0) {
      // Reserved once: growing a multi-megabyte buffer mid-loop would
      // stall this thread and show up as generator lateness.
      if (captured_.empty()) captured_.reserve(bytes * kCaptureFrames * 5 / 4);
      ++captured_frames_;
      captured_.append(c.out, before, bytes);
    }
    c.queued_total += bytes;
    c.unsent.emplace_back(c.queued_total, serial);
    ++c.in_flight;
    ++frames_sent_;
    flush(i);
  }

  void flush(std::size_t i) {
    Conn& c = conns_[i];
    while (c.out_off < c.out.size()) {
      const std::int64_t stamp = now_ns();
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        c.sent_total += static_cast<std::uint64_t>(n);
        while (!c.unsent.empty() && c.unsent.front().first <= c.sent_total) {
          const std::int64_t serial = c.unsent.front().second;
          if (serial >= 0) reqs_[static_cast<std::size_t>(serial)].sent_ns = stamp;
          c.unsent.pop_front();
        }
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        kill(i, "send failed");
        return;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    set_want_out(i, c.out_off < c.out.size());
  }

  void set_want_out(std::size_t i, bool want) {
    Conn& c = conns_[i];
    if (c.want_out == want || c.dead) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_out = want;
  }

  void kill(std::size_t i, const std::string& why) {
    Conn& c = conns_[i];
    if (c.dead) return;
    problem("connection " + std::to_string(i) + ": " + why);
    c.dead = true;
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
  }

  /// Waits for socket events until `until_ns` (or the first batch of
  /// events) and handles them.
  void pump(std::int64_t until_ns) {
    const std::int64_t wait = std::max<std::int64_t>(0, until_ns - now_ns());
    timespec ts{};
    ts.tv_sec = wait / 1'000'000'000;
    ts.tv_nsec = wait % 1'000'000'000;
    epoll_event events[16];
    const int n = ::epoll_pwait2(epfd_, events, 16, &ts, nullptr);
    if (n < 0) {
      if (errno != EINTR) problem(std::string("epoll_pwait2: ") + std::strerror(errno));
      return;
    }
    for (int e = 0; e < n; ++e) {
      const std::size_t i = static_cast<std::size_t>(events[e].data.u64);
      if (conns_[i].dead) continue;
      if (events[e].events & EPOLLOUT) flush(i);
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) read(i);
    }
    if (n > 0) last_progress_ = now_ns();
  }

  void read(std::size_t i) {
    Conn& c = conns_[i];
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        const std::int64_t stamp = now_ns();
        try {
          c.reader.feed(buf, static_cast<std::size_t>(n));
          std::string_view frame;
          while (c.reader.next_view(frame)) on_frame(i, frame, stamp);
        } catch (const std::exception& e) {
          kill(i, std::string("bad reply framing: ") + e.what());
          return;
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        kill(i, n == 0 ? "server closed the connection" : "recv failed");
        return;
      }
    }
  }

  void on_frame(std::size_t i, std::string_view frame, std::int64_t stamp) {
    Conn& c = conns_[i];
    if (c.in_flight > 0) --c.in_flight;
    bool parsed = true;
    try {
      doc_.parse(frame);
    } catch (const std::exception& e) {
      problem(std::string("unparsable reply: ") + e.what());
      parsed = false;
    }
    if (parsed && doc_.empty()) {
      problem("empty reply");
      parsed = false;
    }
    if (registering_) {
      if (parsed && doc_.at(0).type() == "register-response") {
        guid_strs_.emplace_back(doc_.at(0).get("guid"));
        guids_.push_back(uucs::Guid::parse(guid_strs_.back()));
      } else {
        ++reg_errors_;
        if (parsed) problem("register reply [" + std::string(doc_.at(0).type()) + "]");
      }
      return;
    }
    const std::int64_t serial = parsed ? match(c, doc_.at(0)) : -1;
    if (serial >= 0) {
      Req& r = reqs_[static_cast<std::size_t>(serial)];
      r.recv_ns = stamp;
      r.acked = true;
    }
    // The slot is free either way: keep the loop going.
    if (!backlog_.empty()) {
      const std::int64_t next = backlog_.front();
      backlog_.pop_front();
      send_sync(i, next);
    } else {
      refill(i);
    }
  }

  /// The serial a sync reply answers, after checking it acks exactly what
  /// was sent (-1 and a problem otherwise).
  std::int64_t match(Conn& c, const uucs::KvDoc::Rec& head) {
    if (head.type() != "sync-response") {
      problem("sync reply [" + std::string(head.type()) + "]: " +
              std::string(head.has("message") ? head.get("message") : ""));
      return -1;
    }
    const auto accepted = head.get_int_or("accepted_results", -1);
    const auto duplicate = head.get_int_or("duplicate_results", -1);
    const auto testcases = head.get_int_or("testcase_count", -1);
    std::int64_t serial = -1;
    if (shape_.records == 0) {
      serial = c.current;
      c.current = -1;
      // A fresh client (nothing known) gets a full batch of 16.
      if (accepted != 0 || testcases != 16 || doc_.size() != 17) {
        problem("fetch reply carries " + std::to_string(testcases) + " testcases");
        return -1;
      }
    } else {
      const std::string_view stored = head.has("stored") ? head.get("stored") : "";
      const std::size_t slash = stored.find('/');
      std::uint64_t first = 0;
      if (slash != std::string_view::npos) {
        std::from_chars(stored.data() + slash + 1, stored.data() + stored.size(), first);
      }
      serial = static_cast<std::int64_t>(first / shape_.records);
      if (accepted != static_cast<std::int64_t>(shape_.records) || duplicate != 0 ||
          testcases != 0 || slash == std::string_view::npos) {
        problem("upload reply: accepted " + std::to_string(accepted) + ", duplicate " +
                std::to_string(duplicate));
        return -1;
      }
    }
    if (serial < 0 || static_cast<std::size_t>(serial) >= reqs_.size() ||
        reqs_[static_cast<std::size_t>(serial)].acked) {
      problem("reply matches no outstanding request");
      return -1;
    }
    return serial;
  }

  std::size_t outstanding() const {
    std::size_t n = backlog_.size();
    for (const Conn& c : conns_) {
      if (!c.dead) n += c.in_flight;
    }
    return n;
  }

  /// Marks the generator stalled after 10 s without any socket event.
  void check_progress() {
    if (!stall_ && now_ns() - last_progress_ > 10'000'000'000) {
      problem(std::to_string(outstanding()) + " requests never answered");
      stall_ = true;
    }
  }

  /// Waits for every outstanding reply (or a stall).
  void drain() {
    last_progress_ = now_ns();
    while (outstanding() > 0 && !stall_) {
      pump(now_ns() + 100'000'000);
      check_progress();
    }
  }

  const IngestShape& shape_;
  const std::vector<uucs::RunRecord>& pool_;
  uucs::Rng client_picks_;
  uucs::Rng record_picks_;
  std::size_t cap_;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Req> reqs_;
  std::deque<std::int64_t> backlog_;
  std::vector<uucs::Guid> guids_;
  std::vector<std::string> guid_strs_;
  uucs::SyncRequest request_;  ///< recycled: records keep their capacity
  std::string payload_;
  uucs::KvDoc doc_;
  bool registering_ = false;
  std::size_t reg_errors_ = 0;
  Phase closed_phase_ = Phase::kWarmup;
  std::size_t closed_left_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::int64_t last_progress_ = 0;
  bool stall_ = false;
  bool capturing_ = false;
  std::size_t captured_frames_ = 0;
  std::string captured_;
  std::vector<std::string> problems_;
};

// --- epochs -----------------------------------------------------------------

/// Seeded inputs shared by every epoch of a run.
struct Inputs {
  std::vector<uucs::RunRecord> pool;  ///< upload: real simulate_record output
  uucs::TestcaseStore catalog;
  std::vector<std::string> known;     ///< upload: the whole catalog; fetch: none
};

Inputs make_inputs(const IngestShape& shape, std::uint64_t seed) {
  Inputs in;
  if (shape.upload) {
    // A small controlled study: ~1.6k records of the paper's 8 testcases.
    uucs::study::ControlledStudyConfig cfg;
    cfg.participants = 48;
    cfg.seed = seed;
    cfg.jobs = 1;
    in.pool = uucs::study::run_controlled_study(cfg).results.records();
    in.catalog = uucs::study::controlled_study_testcases(uucs::sim::Task::kWord);
    in.known = in.catalog.ids();
  } else {
    uucs::Rng rng(1);  // uucs_server --seed-suite's catalog
    in.catalog = uucs::generate_internet_suite(uucs::SuiteSpec{}, rng);
  }
  return in;
}

/// Per-request stage durations (ns) of traced open-loop syncs, plus the
/// layer counters of the traced epochs.
struct Ledger {
  static constexpr std::size_t kStages = 7;
  static constexpr const char* kNames[kStages] = {
      "gen_wait", "ingress", "admission", "dispatch", "journal_queue", "write_fsync", "reply"};
  std::array<std::vector<double>, kStages> stages;
  std::vector<double> total;      ///< client-observed latency
  std::vector<double> lateness;   ///< generator lateness
  /// Largest |latency - sum of stages| over requests (ns): 0 unless a stamp
  /// is missing or out of order, which clamps a stage at 0.
  std::int64_t residual_max = 0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  std::uint64_t syncs = 0;
  std::uint64_t batches = 0;
  std::uint64_t entries = 0;
  std::uint64_t journal_bytes = 0;
  std::vector<double> frame_ns;   ///< FrameReader replay, per frame
  std::size_t spans_left = 20000; ///< full spans kept for this many requests
};

struct EpochOut {
  double setup_s = 0.0;
  std::vector<double> latency_ms;  ///< open-loop acks, from due time
  std::vector<double> lateness_us;
  std::vector<double> closed_per_s;  ///< one per round
  /// Server CPU (the process minus the generator thread) over the open
  /// and closed phases, per sync acked in them.
  double cpu_per_sync_us = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t acked = 0;
  std::vector<std::string> problems;
};

/// Replays captured request frames through a fresh FrameReader, timing
/// feed + next_view per frame.
void replay_frames(const std::string& bytes, std::vector<double>& out) {
  uucs::FrameReader reader;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) break;
    std::size_t len = 0;
    std::from_chars(bytes.data() + pos + 5, bytes.data() + nl, len);  // "UUCS <len>\n"
    const std::size_t frame = nl + 1 - pos + len;
    std::string_view view;
    const std::int64_t a = now_ns();
    reader.feed(bytes.data() + pos, frame);
    const bool got = reader.next_view(view);
    const std::int64_t b = now_ns();
    if (!got) break;
    out.push_back(static_cast<double>(b - a));
    pos += frame;
  }
}

/// Folds one traced epoch's open-loop syncs into the ledger. Each stage is
/// the gap between two consecutive stamps of one clock, clamped at 0, so a
/// request's stages sum exactly to its latency when every stamp is present
/// and in order; the ledger's residual shows any request where one is not.
void fold_ledger(const std::vector<Req>& reqs, const std::vector<ServerStamps>& stamps,
                 Ledger& ledger, ChromeTrace* trace) {
  for (std::size_t s = 0; s < reqs.size(); ++s) {
    const Req& r = reqs[s];
    if (r.phase != Phase::kOpen || !r.acked) continue;
    const ServerStamps& st = stamps[s];
    const std::int64_t at[] = {r.due_ns,     r.sent_ns, st.handler, st.admitted,
                               st.dispatched, st.batch,  st.callback, r.recv_ns};
    std::int64_t residual = r.recv_ns - r.due_ns;
    for (std::size_t k = 0; k < Ledger::kStages; ++k) {
      const std::int64_t stage = std::max<std::int64_t>(0, at[k + 1] - at[k]);
      residual -= stage;
      ledger.stages[k].push_back(static_cast<double>(stage));
    }
    ledger.residual_max = std::max(ledger.residual_max, residual < 0 ? -residual : residual);
    ledger.total.push_back(static_cast<double>(r.recv_ns - r.due_ns));
    ledger.lateness.push_back(static_cast<double>(r.issue_ns - r.due_ns));
    ledger.request_bytes += st.request_bytes;
    ledger.response_bytes += st.response_bytes;
    ++ledger.syncs;
    if (trace != nullptr && ledger.spans_left > 0) {
      --ledger.spans_left;
      static constexpr const char* kTids[Ledger::kStages] = {
          "generator", "loop", "worker", "worker", "committer", "committer", "loop"};
      for (std::size_t k = 0; k < Ledger::kStages; ++k) {
        trace->complete(Ledger::kNames[k], kTids[k], at[k], at[k + 1] - at[k], s);
      }
    }
  }
}

/// One epoch: fresh server and journal, set-up, open loop, closed loop,
/// exactly-once audit. `ledger` non-null runs it traced.
EpochOut run_epoch(const IngestShape& shape, const Inputs& in, const Options& opt,
                   const std::string& dir, std::size_t epoch, Ledger* ledger,
                   ChromeTrace* trace) {
  EpochOut out;
  uucs::Rng root = uucs::Rng(opt.seed).fork(1000 + epoch);
  uucs::Rng arrivals = root.fork(1);
  const std::string journal = dir + "/epoch.journal";
  std::remove(journal.c_str());
  const std::size_t cap = shape.warmup + shape.closed_syncs +
                          static_cast<std::size_t>(shape.rate * shape.open_s * 1.5) + 1000;
  const uucs::IngestServer::Config config = server_config();

  const std::int64_t setup_start = now_ns();
  uucs::UucsServer server(opt.seed + epoch, 16, kShards);
  server.add_testcases(in.catalog);
  server.attach_journal(journal);
  std::vector<ServerStamps> stamps;
  std::unique_ptr<TracedIngest> traced;
  std::unique_ptr<uucs::IngestServer> ingest;
  if (ledger != nullptr) {
    stamps.resize(cap);
    traced = std::make_unique<TracedIngest>(server, config, stamps);
  } else {
    ingest = std::make_unique<uucs::IngestServer>(server, config);
  }
  Generator gen(shape, traced ? traced->port() : ingest->port(), in.pool, in.known, cap,
                root.fork(2), root.fork(3));
  gen.register_clients(shape.clients);
  gen.closed_loop(Phase::kWarmup, shape.warmup);
  out.setup_s = seconds(now_ns() - setup_start);

  // The phases alternate in rounds, so throughput samples spread over the
  // whole run instead of bunching at each epoch's end.
  const double cpu0 = process_cpu_s() - thread_cpu_s();
  const std::size_t slice = shape.closed_syncs / shape.rounds;
  for (std::size_t round = 0; round < shape.rounds; ++round) {
    uucs::GroupCommitJournal::Stats commit_before;
    std::size_t bytes_before = 0;
    if (traced) {
      commit_before = traced->commit_stats();
      bytes_before = traced->journal_bytes();
      gen.set_capture(true);
    }
    const std::int64_t start = now_ns();
    gen.open_loop(shape.rate, start,
                  start + static_cast<std::int64_t>(shape.open_s / shape.rounds * 1e9),
                  arrivals);
    if (traced) {
      gen.set_capture(false);
      const uucs::GroupCommitJournal::Stats c = traced->commit_stats();
      ledger->batches += c.batches - commit_before.batches;
      ledger->entries += c.entries - commit_before.entries;
      ledger->journal_bytes += traced->journal_bytes() - bytes_before;
    }
    out.closed_per_s.push_back(static_cast<double>(slice) /
                               gen.closed_loop(Phase::kClosed, slice));
  }
  const double cpu1 = process_cpu_s() - thread_cpu_s();

  // Stopping joins every server thread: the counters and stamps read
  // below are final.
  if (traced) {
    traced->stop();
  } else {
    ingest->stop();
  }
  const uucs::EventLoopStats loop = traced ? traced->loop_stats() : ingest->loop_stats();

  std::uint64_t measured = 0;
  std::uint64_t acked_records = 0;
  std::uint64_t lost = 0;
  std::string run_id;
  for (std::size_t s = 0; s < gen.requests().size(); ++s) {
    const Req& r = gen.requests()[s];
    ++out.attempted;
    if (!r.acked) continue;
    ++out.acked;
    if (r.phase != Phase::kWarmup) ++measured;
    if (r.phase == Phase::kOpen) {
      out.latency_ms.push_back(static_cast<double>(r.recv_ns - r.due_ns) * 1e-6);
      out.lateness_us.push_back(static_cast<double>(r.issue_ns - r.due_ns) * 1e-3);
    }
    // Exactly-once, part 1: every acked record is held by the server.
    for (std::size_t k = 0; k < shape.records; ++k) {
      run_id = gen.guid_strings()[r.client] + "/" + std::to_string(s * shape.records + k);
      if (!server.has_result(run_id)) ++lost;
      ++acked_records;
    }
  }
  out.cpu_per_sync_us = (cpu1 - cpu0) / static_cast<double>(std::max<std::uint64_t>(measured, 1)) * 1e6;

  out.problems = gen.problems();
  if (lost != 0) out.problems.push_back(std::to_string(lost) + " acked records lost");
  // Part 2: the journal holds exactly the registrations plus the acked
  // records: every stored record is journaled once, so none was stored
  // twice or without an ack. results() is checked too at smoke sizes only:
  // it materializes a merged copy of every record, which at full size
  // would dominate peak_rss_mib.
  if (opt.smoke && server.results().size() != acked_records) {
    out.problems.push_back(uucs::strprintf("store holds %zu records, %llu acked",
                                           server.results().size(),
                                           static_cast<unsigned long long>(acked_records)));
  }
  const std::size_t journaled = server.journal()->entries().size();
  if (journaled != shape.clients + acked_records) {
    out.problems.push_back(uucs::strprintf(
        "journal holds %zu entries, expected %llu", journaled,
        static_cast<unsigned long long>(shape.clients + acked_records)));
  }
  // Part 3: the loop answered every frame it read.
  if (loop.frames != gen.frames_sent() || loop.responses != loop.frames ||
      loop.dismissed != 0 || loop.protocol_errors != 0) {
    out.problems.push_back(uucs::strprintf(
        "loop: %llu frames sent, %llu read, %llu answered, %llu dismissed, %llu bad",
        static_cast<unsigned long long>(gen.frames_sent()),
        static_cast<unsigned long long>(loop.frames),
        static_cast<unsigned long long>(loop.responses),
        static_cast<unsigned long long>(loop.dismissed),
        static_cast<unsigned long long>(loop.protocol_errors)));
  }
  if (out.acked != out.attempted) {
    out.problems.push_back(uucs::strprintf("%llu of %llu syncs not acked",
                                           static_cast<unsigned long long>(out.attempted - out.acked),
                                           static_cast<unsigned long long>(out.attempted)));
  }

  if (ledger != nullptr) {
    fold_ledger(gen.requests(), stamps, *ledger, trace);
    replay_frames(gen.captured(), ledger->frame_ns);
  }
  traced.reset();
  ingest.reset();
  std::remove(journal.c_str());
  return out;
}

double us(double ns) { return ns * 1e-3; }

}  // namespace

RunResult run_ingest(const Options& opt) {
  const IngestShape shape = ingest_shape(opt);
  RunResult result;
  result.busy_threads = kServerThreads + 1;  // + this generator thread
  // Wake-ups within a microsecond of the due time, not the default 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  const Inputs in = make_inputs(shape, opt.seed);
  const std::string dir = opt.state_dir + "/uucs_bench." + std::to_string(::getpid());
  uucs::make_dirs(dir);

  Ledger ledger;
  ChromeTrace trace;
  const std::int64_t origin = now_ns();
  std::vector<double> setup, latency, lateness, closed, cpu;
  // Epochs run until --seconds have passed, so a slow host runs fewer of
  // them instead of a longer run. Traced runs alternate untraced (even)
  // and traced (odd) epochs, and end on a pair.
  std::size_t epochs = 0;
  const std::size_t min_epochs = opt.trace ? 2 : 1;
  while (epochs < min_epochs || (opt.trace && epochs % 2 == 1) ||
         seconds(now_ns() - origin) < opt.seconds) {
    const std::size_t e = epochs++;
    const bool traced = opt.trace && e % 2 == 1;
    const EpochOut out = run_epoch(shape, in, opt, dir, e, traced ? &ledger : nullptr,
                                   traced && !opt.trace_out.empty() ? &trace : nullptr);
    result.attempted += out.attempted;
    result.failed += out.attempted - out.acked;
    for (const std::string& p : out.problems) result.fail("epoch " + std::to_string(e) + ": " + p);
    setup.push_back(out.setup_s);
    // Hand the dead server's memory back, so every epoch starts from the
    // same footprint and peak_rss_mib reads one epoch's peak.
    ::malloc_trim(0);
    if (traced) continue;
    latency.insert(latency.end(), out.latency_ms.begin(), out.latency_ms.end());
    lateness.insert(lateness.end(), out.lateness_us.begin(), out.lateness_us.end());
    closed.insert(closed.end(), out.closed_per_s.begin(), out.closed_per_s.end());
    cpu.push_back(out.cpu_per_sync_us);
  }
  ::rmdir(dir.c_str());

  const std::size_t open_acks = latency.size();
  const double ack_p50 = percentile(latency, 0.50);
  const double ack_p90 = percentile(latency, 0.90);
  const double ack_p99 = percentile(latency, 0.99);
  const double late_p99 = percentile(lateness, 0.99);
  const bool valid = late_p99 <= 1000.0;
  if (!valid) {
    std::fprintf(stderr, "uucs_bench: generator p99 lateness %.0f us > 1 ms: run invalid\n",
                 late_p99);
  }

  Metrics& e2e = result.end_to_end;
  e2e.set("latency_p50_ms", ack_p50, "ms");
  e2e.set("throughput_per_s", median(closed), "1/s");
  e2e.set("peak_rss_mib", peak_rss_mib(), "MiB");
  e2e.set("setup_s", median(setup), "s");

  std::string ledger_json;
  if (opt.trace) {
    Metrics& m = result.per_layer;
    m.set("client.ack_p50_ms", ack_p50, "ms");
    m.set("client.ack_p90_ms", ack_p90, "ms");
    m.set("client.ack_p99_ms", ack_p99, "ms");
    m.set("client.acks", static_cast<double>(open_acks), "count");
    m.set("server.cpu_per_sync_us", median(cpu), "us");
    m.set("gen.lateness_us.p50", us(percentile(ledger.lateness, 0.50)), "us");
    m.set("gen.lateness_us.p99", us(percentile(ledger.lateness, 0.99)), "us");
    auto& st = ledger.stages;
    m.set("gen.wait_us.p50", us(percentile(st[0], 0.50)), "us");
    m.set("gen.wait_us.p99", us(percentile(st[0], 0.99)), "us");
    m.set("loop.ingress_us.p50", us(percentile(st[1], 0.50)), "us");
    m.set("loop.ingress_us.p99", us(percentile(st[1], 0.99)), "us");
    m.set("loop.frame_ns.p50", percentile(ledger.frame_ns, 0.50), "ns");
    m.set("overload.admit_ns.p50", percentile(st[2], 0.50), "ns");
    m.set("protocol.dispatch_us.p50", us(percentile(st[3], 0.50)), "us");
    m.set("protocol.dispatch_us.p99", us(percentile(st[3], 0.99)), "us");
    const double syncs = static_cast<double>(std::max<std::uint64_t>(ledger.syncs, 1));
    m.set("protocol.request_bytes.mean", ledger.request_bytes / syncs, "B");
    m.set("protocol.response_bytes.mean", ledger.response_bytes / syncs, "B");
    m.set("journal.queue_us.p50", us(percentile(st[4], 0.50)), "us");
    m.set("journal.queue_us.p99", us(percentile(st[4], 0.99)), "us");
    m.set("journal.write_fsync_us.p50", us(percentile(st[5], 0.50)), "us");
    m.set("journal.write_fsync_us.p99", us(percentile(st[5], 0.99)), "us");
    m.set("journal.entries_per_batch",
          ledger.batches ? static_cast<double>(ledger.entries) / static_cast<double>(ledger.batches)
                         : 0.0,
          "count");
    m.set("journal.fsyncs_per_1k_syncs", 1000.0 * static_cast<double>(ledger.batches) / syncs,
          "count");
    m.set("journal.bytes_per_sync", static_cast<double>(ledger.journal_bytes) / syncs, "B");
    m.set("loop.reply_us.p50", us(percentile(st[6], 0.50)), "us");
    m.set("loop.reply_us.p99", us(percentile(st[6], 0.99)), "us");
    m.set("ledger.residual_us.max", us(static_cast<double>(ledger.residual_max)), "us");
    if (ledger.residual_max > 1000) {
      result.fail(uucs::strprintf("traced ledger does not add up: a request's stages miss "
                                  "its latency by %lld ns",
                                  static_cast<long long>(ledger.residual_max)));
    }
    const double traced_p50_ms = percentile(ledger.total, 0.50) * 1e-6;
    m.set("trace.overhead_frac", ack_p50 > 0 ? traced_p50_ms / ack_p50 - 1.0 : 0.0, "frac");

    // The ledger stage by stage: means add up to the mean latency exactly;
    // p50s are each stage's own median.
    ledger_json = ", \"ledger\": {";
    double mean_sum = 0.0;
    for (std::size_t k = 0; k < Ledger::kStages; ++k) {
      const double mu = mean(st[k]);
      mean_sum += mu;
      ledger_json += uucs::strprintf(
          "%s\"%s\": {\"p50_us\": %s, \"p99_us\": %s, \"mean_us\": %s}", k ? ", " : "",
          Ledger::kNames[k], json_num(us(percentile(st[k], 0.50))).c_str(),
          json_num(us(percentile(st[k], 0.99))).c_str(), json_num(us(mu)).c_str());
    }
    ledger_json += uucs::strprintf(", \"sum_of_means_us\": %s, \"latency_mean_us\": %s, "
                                   "\"latency_p50_us\": %s, \"requests\": %llu}",
                                   json_num(us(mean_sum)).c_str(),
                                   json_num(us(mean(ledger.total))).c_str(),
                                   json_num(us(percentile(ledger.total, 0.50))).c_str(),
                                   static_cast<unsigned long long>(ledger.syncs));
    std::fprintf(stderr, "traced ledger (%llu open-loop syncs)\n",
                 static_cast<unsigned long long>(ledger.syncs));
    std::fprintf(stderr, "  %-14s %10s %10s %10s\n", "stage", "p50 us", "p99 us", "mean us");
    for (std::size_t k = 0; k < Ledger::kStages; ++k) {
      std::fprintf(stderr, "  %-14s %10.1f %10.1f %10.1f\n", Ledger::kNames[k],
                   us(percentile(st[k], 0.50)), us(percentile(st[k], 0.99)), us(mean(st[k])));
    }
    std::fprintf(stderr, "  %-14s %10.1f %10.1f %10.1f\n", "client", us(percentile(ledger.total, 0.50)),
                 us(percentile(ledger.total, 0.99)), us(mean(ledger.total)));
    if (!trace.empty()) trace.write(opt.trace_out, origin);
  }

  std::string per_epoch;
  for (std::size_t i = 0; i < closed.size(); ++i) {
    per_epoch += (i ? ", " : "") + json_num(closed[i]);
  }
  result.report = uucs::strprintf(
      "\"clients\": %zu, \"connections\": %zu, \"pipeline\": %zu, \"records_per_sync\": %zu, "
      "\"open_rate_per_s\": %s, \"open_s\": %s, \"closed_syncs\": %zu, \"epochs\": %zu, "
      "\"open_acks\": %zu, \"ack_p90_ms\": %s, \"ack_p99_ms\": %s, "
      "\"gen_lateness_p99_us\": %s, \"valid\": %s, \"cpu_per_sync_us\": %s, "
      "\"closed_per_s\": [%s]",
      shape.clients, shape.conns, shape.pipeline, shape.records, json_num(shape.rate).c_str(),
      json_num(shape.open_s).c_str(), shape.closed_syncs, epochs, open_acks,
      json_num(ack_p90).c_str(), json_num(ack_p99).c_str(), json_num(late_p99).c_str(),
      valid ? "true" : "false", json_num(median(cpu)).c_str(), per_epoch.c_str()) +
      ledger_json;
  return result;
}

}  // namespace uucs_bench
