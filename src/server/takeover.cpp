#include "server/takeover.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/error.hpp"
#include "util/kvtext.hpp"
#include "util/logging.hpp"

namespace uucs {

namespace {

/// Control-protocol version. Bumped only when the handoff message sequence
/// itself changes; the *wire* protocol clients speak negotiates separately.
constexpr std::int64_t kTakeoverVersion = 1;

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Absolute deadline for a multi-syscall control operation: every poll gets
/// the *remaining* budget, so a peer trickling bytes cannot stretch one
/// message past its timeout.
struct Deadline {
  double end;
  explicit Deadline(double timeout_s) : end(mono_s() + timeout_s) {}
  int remaining_ms(const char* what) const {
    const double r = end - mono_s();
    if (r <= 0.0) throw TimeoutError(what);
    return static_cast<int>(r * 1000.0) + 1;
  }
};

void wait_fd(int fd, short events, const Deadline& deadline, const char* what) {
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, deadline.remaining_ms(what));
    if (r > 0) return;
    if (r == 0) throw TimeoutError(what);
    if (errno == EINTR) continue;
    throw SystemError(std::string(what) + ": poll: " + std::strerror(errno));
  }
}

void write_frame(int fd, const std::string& payload, double timeout_s,
                 const char* what) {
  const std::string framed = TcpChannel::frame(payload);
  const Deadline deadline(timeout_s);
  std::size_t off = 0;
  while (off < framed.size()) {
    wait_fd(fd, POLLOUT, deadline, what);
    const ssize_t n =
        ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    throw SystemError(std::string(what) + ": send: " + std::strerror(errno));
  }
}

std::string read_frame(int fd, FrameReader& reader, double timeout_s,
                       const char* what) {
  std::string payload;
  if (reader.next(payload)) return payload;
  const Deadline deadline(timeout_s);
  for (;;) {
    wait_fd(fd, POLLIN, deadline, what);
    // One byte at a time, so a read never runs past the frame: the byte
    // after the takeover-accept frame may carry the listener (send_fd_msg),
    // and a plain read(2) that consumes it silently drops the passed fd.
    char byte = 0;
    const ssize_t n = ::read(fd, &byte, 1);
    if (n > 0) {
      reader.feed(&byte, 1);
      if (reader.next(payload)) return payload;
      continue;
    }
    if (n == 0) {
      throw ProtocolError(std::string(what) + ": peer closed the control socket");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw SystemError(std::string(what) + ": read: " + std::strerror(errno));
  }
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw ConfigError("control socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

UniqueFd unix_listen(const std::string& path) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) throw SystemError(std::string("socket(AF_UNIX): ") + std::strerror(errno));
  const sockaddr_un addr = make_unix_addr(path);
  // A stale socket file from a crashed predecessor would make bind fail
  // forever; the path is per-instance by convention, so unlinking is safe.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw SystemError("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd.get(), 4) != 0) {
    throw SystemError("listen " + path + ": " + std::strerror(errno));
  }
  return fd;
}

UniqueFd unix_connect(const std::string& path) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) throw SystemError(std::string("socket(AF_UNIX): ") + std::strerror(errno));
  const sockaddr_un addr = make_unix_addr(path);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw SystemError("connect " + path + ": " + std::strerror(errno));
  }
  return fd;
}

/// Passes `fd_to_send` over the unix socket with a one-byte carrier message
/// (SCM_RIGHTS needs at least one data byte).
void send_fd_msg(int sock, int fd_to_send, double timeout_s) {
  const Deadline deadline(timeout_s);
  char byte = 'F';
  iovec iov{};
  iov.iov_base = &byte;
  iov.iov_len = 1;
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
  std::memcpy(CMSG_DATA(cm), &fd_to_send, sizeof(int));
  for (;;) {
    wait_fd(sock, POLLOUT, deadline, "takeover fd pass");
    const ssize_t n = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    if (n == 1) return;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    throw SystemError(std::string("takeover fd pass: sendmsg: ") + std::strerror(errno));
  }
}

UniqueFd recv_fd_msg(int sock, double timeout_s) {
  const Deadline deadline(timeout_s);
  char byte = 0;
  iovec iov{};
  iov.iov_base = &byte;
  iov.iov_len = 1;
  alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = ctrl;
  msg.msg_controllen = sizeof(ctrl);
  for (;;) {
    wait_fd(sock, POLLIN, deadline, "takeover fd receive");
    const ssize_t n = ::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
    if (n == 0) {
      throw ProtocolError("takeover fd receive: peer closed before passing the listener");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      throw SystemError(std::string("takeover fd receive: recvmsg: ") + std::strerror(errno));
    }
    for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr; cm = CMSG_NXTHDR(&msg, cm)) {
      if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS &&
          cm->cmsg_len == CMSG_LEN(sizeof(int))) {
        int fd = -1;
        std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
        return UniqueFd(fd);
      }
    }
    throw ProtocolError("takeover fd receive: message carried no SCM_RIGHTS fd");
  }
}

std::string abort_message(const std::string& reason) {
  KvRecord rec("takeover-abort");
  rec.set("reason", reason);
  return kv_serialize({rec});
}

}  // namespace

const char* to_string(TakeoverStage stage) {
  switch (stage) {
    case TakeoverStage::kHello: return "hello";
    case TakeoverStage::kPause: return "pause";
    case TakeoverStage::kDrain: return "drain";
    case TakeoverStage::kFlush: return "flush";
    case TakeoverStage::kSnapshot: return "snapshot";
    case TakeoverStage::kSendFd: return "send-fd";
    case TakeoverStage::kSendState: return "send-state";
    case TakeoverStage::kWaitReady: return "wait-ready";
    case TakeoverStage::kRetire: return "retire";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TakeoverController (old process)

TakeoverController::TakeoverController(IngestServer& ingest, UucsServer& server,
                                       Config config)
    : ingest_(ingest), server_(server), config_(std::move(config)) {
  if (config_.socket_path.empty()) {
    throw ConfigError("takeover controller needs a control socket path");
  }
  if (config_.state_dir.empty()) {
    throw ConfigError("takeover controller needs a state dir to hand over");
  }
  listen_fd_ = unix_listen(config_.socket_path);
  thread_ = std::thread([this] { accept_loop(); });
}

TakeoverController::~TakeoverController() { stop(); }

void TakeoverController::stop() {
  if (stopping_.exchange(true)) return;
  // Shutdown unblocks an accept_loop parked in poll at the next timeout; a
  // shutdown(2) on a listening unix socket also wakes it immediately.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  listen_fd_.reset();
  // After a handoff the successor may already have re-bound this path for
  // the *next* upgrade; unlinking would tear its control socket down.
  if (!handed_off_.load(std::memory_order_acquire)) {
    ::unlink(config_.socket_path.c_str());
  }
}

bool TakeoverController::enter_stage(TakeoverStage s) {
  stage_.store(static_cast<int>(s), std::memory_order_release);
  if (config_.stage_hook && !config_.stage_hook(s)) {
    killed_.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

void TakeoverController::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd p{};
    p.fd = listen_fd_.get();
    p.events = POLLIN;
    const int r = ::poll(&p, 1, 200);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    UniqueFd conn(::accept4(listen_fd_.get(), nullptr, nullptr, SOCK_CLOEXEC));
    if (!conn) continue;
    const bool done = handle_connection(conn.get());
    conn.reset();
    // A completed handoff or a simulated kill ends this process's tenure;
    // the control socket has nothing left to offer.
    if (done || killed_.load(std::memory_order_acquire)) break;
  }
}

bool TakeoverController::handle_connection(int fd) {
  FrameReader reader;
  bool quiesced = false;
  try {
    if (!enter_stage(TakeoverStage::kHello)) return false;
    const auto hello =
        kv_parse(read_frame(fd, reader, config_.io_timeout_s, "takeover hello"));
    if (hello.empty() || hello.front().type() != "takeover-hello") {
      throw ProtocolError("expected takeover-hello");
    }
    const std::int64_t version = hello.front().get_int_or("version", -1);
    if (version != kTakeoverVersion) {
      write_frame(fd,
                  abort_message("unsupported takeover version " +
                                std::to_string(version)),
                  config_.io_timeout_s, "takeover abort");
      return false;
    }
    KvRecord accept_rec("takeover-accept");
    accept_rec.set_int("version", kTakeoverVersion);
    accept_rec.set_int("port", ingest_.port());
    write_frame(fd, kv_serialize({accept_rec}), config_.io_timeout_s,
                "takeover accept");

    if (!enter_stage(TakeoverStage::kPause)) return false;
    ingest_.loop().pause_accept();
    quiesced = true;

    if (!enter_stage(TakeoverStage::kDrain)) return false;
    ingest_.loop().begin_drain();
    if (!ingest_.loop().wait_connections_drained(config_.drain_timeout_s)) {
      // Stragglers past the deadline are cut: their un-acked requests are
      // stranded (generation-checked Responders drop the replies), so no
      // ack can escape after the final snapshot. The clients retry against
      // the successor and dedup absorbs the replays.
      ingest_.loop().close_all_connections();
    }
    ingest_.loop().wait_workers_idle();

    if (!enter_stage(TakeoverStage::kFlush)) return false;
    ingest_.flush_commits();

    if (!enter_stage(TakeoverStage::kSnapshot)) return false;
    ingest_.snapshot_now();

    if (!enter_stage(TakeoverStage::kSendFd)) return false;
    const int lfd = ingest_.loop().listener_fd();
    UUCS_CHECK_MSG(lfd >= 0, "listener already retired");
    send_fd_msg(fd, lfd, config_.io_timeout_s);

    if (!enter_stage(TakeoverStage::kSendState)) return false;
    const std::uint64_t clients = server_.client_count();
    const std::uint64_t results = server_.results().size();
    KvRecord state("takeover-state");
    state.set_int("version", kTakeoverVersion);
    state.set("state_dir", config_.state_dir);
    state.set("journal", config_.journal_path);
    state.set_int("clients", static_cast<std::int64_t>(clients));
    state.set_int("results", static_cast<std::int64_t>(results));
    state.set_int("generation",
                  static_cast<std::int64_t>(server_.generation() + 1));
    state.set_int("port", ingest_.port());
    write_frame(fd, kv_serialize({state}), config_.io_timeout_s, "takeover state");

    if (!enter_stage(TakeoverStage::kWaitReady)) return false;
    const auto ready = kv_parse(
        read_frame(fd, reader, config_.ready_timeout_s, "takeover ready"));
    if (ready.empty() || ready.front().type() != "takeover-ready") {
      throw ProtocolError("expected takeover-ready");
    }
    const std::int64_t got_clients = ready.front().get_int_or("clients", -1);
    const std::int64_t got_results = ready.front().get_int_or("results", -1);
    if (got_clients != static_cast<std::int64_t>(clients) ||
        got_results != static_cast<std::int64_t>(results)) {
      throw ProtocolError(
          "successor replayed " + std::to_string(got_clients) + " clients / " +
          std::to_string(got_results) + " results, expected " +
          std::to_string(clients) + " / " + std::to_string(results));
    }

    if (!enter_stage(TakeoverStage::kRetire)) return false;
    ingest_.loop().retire_listener();
    handed_off_.store(true, std::memory_order_release);
    // Courtesy only: the successor also serves on EOF, so a crash right
    // here leaves exactly one accepting process either way.
    try {
      KvRecord go("takeover-go");
      write_frame(fd, kv_serialize({go}), config_.io_timeout_s, "takeover go");
    } catch (const std::exception&) {
    }
    log_info("takeover", "handed off to successor (clients=" +
                             std::to_string(clients) +
                             ", results=" + std::to_string(results) + ")");
    if (config_.on_handed_off) config_.on_handed_off();
    return true;
  } catch (const std::exception& e) {
    log_warn("takeover", "handoff failed, rolling back: " + std::string(e.what()));
    try {
      write_frame(fd, abort_message(e.what()), 1.0, "takeover abort");
    } catch (const std::exception&) {
    }
    rollbacks_.fetch_add(1, std::memory_order_relaxed);
    if (quiesced) ingest_.resume();
    return false;
  }
}

// ---------------------------------------------------------------------------
// TakeoverClient (new process)

TakeoverClient::TakeoverClient(const std::string& socket_path, double io_timeout_s)
    : fd_(unix_connect(socket_path)), io_timeout_s_(io_timeout_s) {}

TakeoverClient::Inherited TakeoverClient::begin() {
  KvRecord hello("takeover-hello");
  hello.set_int("version", kTakeoverVersion);
  write_frame(fd_.get(), kv_serialize({hello}), io_timeout_s_, "takeover hello");

  const auto accept_rec = kv_parse(
      read_frame(fd_.get(), reader_, io_timeout_s_, "takeover accept"));
  if (accept_rec.empty()) throw ProtocolError("empty takeover accept");
  if (accept_rec.front().type() == "takeover-abort") {
    throw Error("predecessor aborted the takeover: " +
                accept_rec.front().get_or("reason", "?"));
  }
  if (accept_rec.front().type() != "takeover-accept") {
    throw ProtocolError("expected takeover-accept, got [" +
                        accept_rec.front().type() + "]");
  }

  Inherited out;
  // The predecessor quiesces, snapshots, then passes the fd: budget the
  // whole drain + snapshot, not one message's io timeout.
  out.listener = recv_fd_msg(fd_.get(), io_timeout_s_ + 60.0);

  const auto state = kv_parse(
      read_frame(fd_.get(), reader_, io_timeout_s_, "takeover state"));
  if (state.empty()) throw ProtocolError("empty takeover state");
  if (state.front().type() == "takeover-abort") {
    throw Error("predecessor aborted the takeover: " +
                state.front().get_or("reason", "?"));
  }
  if (state.front().type() != "takeover-state") {
    throw ProtocolError("expected takeover-state, got [" +
                        state.front().type() + "]");
  }
  const KvRecord& rec = state.front();
  out.state_dir = rec.get("state_dir");
  out.journal_path = rec.get_or("journal", "");
  out.generation = static_cast<std::uint64_t>(rec.get_int_or("generation", 1));
  out.expect_clients = static_cast<std::uint64_t>(rec.get_int_or("clients", 0));
  out.expect_results = static_cast<std::uint64_t>(rec.get_int_or("results", 0));
  out.port = static_cast<std::uint16_t>(rec.get_int_or("port", 0));
  return out;
}

TakeoverClient::Go TakeoverClient::confirm_ready(std::uint64_t clients,
                                                 std::uint64_t results,
                                                 double go_timeout_s) {
  KvRecord ready("takeover-ready");
  ready.set_int("clients", static_cast<std::int64_t>(clients));
  ready.set_int("results", static_cast<std::int64_t>(results));
  bool write_failed = false;
  try {
    write_frame(fd_.get(), kv_serialize({ready}), io_timeout_s_, "takeover ready");
  } catch (const std::exception&) {
    // EPIPE: the predecessor is gone (crash) or rolled back and closed. A
    // rollback sent an abort first, which is still buffered for us to read.
    write_failed = true;
  }
  try {
    const auto resp = kv_parse(read_frame(
        fd_.get(), reader_, write_failed ? io_timeout_s_ : go_timeout_s,
        "takeover go"));
    if (!resp.empty() && resp.front().type() == "takeover-abort") {
      return Go::kAbort;
    }
    return Go::kServe;
  } catch (const std::exception&) {
    // EOF without an abort, or a wedged predecessor: either way nobody else
    // is accepting (a wedged predecessor paused before it snapshotted our
    // state), so serving is the safe choice.
    return Go::kServe;
  }
}

}  // namespace uucs
