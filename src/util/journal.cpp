#include "util/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace uucs {

namespace {

void write_fully(int fd, const char* data, std::size_t len, const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SystemError("journal write " + path + ": " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// The group-commit journal whose write intent the calling thread holds and
/// has not yet queued entries under (see WriteIntent: one per thread).
thread_local const GroupCommitJournal* t_open_intent = nullptr;

void fsync_or_throw(int fd, const std::string& path, std::uint64_t* counter = nullptr) {
  if (::fsync(fd) != 0) {
    throw SystemError("journal fsync " + path + ": " + std::strerror(errno));
  }
  if (counter) ++*counter;
}

std::string read_fd(int fd, const std::string& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw SystemError("journal stat " + path + ": " + std::strerror(errno));
  }
  std::string data(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::pread(fd, data.data() + off, data.size() - off,
                              static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SystemError("journal read " + path + ": " + std::strerror(errno));
    }
    if (n == 0) {
      data.resize(off);  // file shrank under us; parse what we have
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  return data;
}

}  // namespace

std::uint32_t Journal::crc32(std::string_view data) { return uucs::crc32(data); }

void Journal::frame_into(std::string& out, std::string_view payload) {
  char header[48];
  const int n = std::snprintf(header, sizeof(header), "UUCSJ %zu %08x\n",
                              payload.size(), uucs::crc32(payload));
  out.append(header, static_cast<std::size_t>(n));
  out.append(payload);
  out.push_back('\n');
}

Journal Journal::open(const std::string& path) {
  Journal j;
  j.path_ = path;
  j.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (j.fd_ < 0) {
    throw SystemError("journal open " + path + ": " + std::strerror(errno));
  }

  const std::string data = read_fd(j.fd_, path);
  std::size_t off = 0;
  std::size_t good = 0;  // offset just past the last intact frame
  while (off < data.size()) {
    const auto nl = data.find('\n', off);
    if (nl == std::string::npos) break;
    const auto fields = split_ws(std::string_view(data).substr(off, nl - off));
    if (fields.size() != 3 || fields[0] != "UUCSJ") break;
    const auto len = parse_int(fields[1]);
    if (!len || *len < 0) break;
    char* end = nullptr;
    const unsigned long crc = std::strtoul(fields[2].c_str(), &end, 16);
    if (end == nullptr || *end != '\0') break;
    const std::size_t payload_at = nl + 1;
    const std::size_t payload_len = static_cast<std::size_t>(*len);
    if (payload_at + payload_len + 1 > data.size()) break;  // torn tail
    if (data[payload_at + payload_len] != '\n') break;
    // CRC the view first; copy the payload only once it verifies.
    const std::string_view payload =
        std::string_view(data).substr(payload_at, payload_len);
    if (crc32(payload) != static_cast<std::uint32_t>(crc)) break;
    j.entries_.emplace_back(payload);
    off = payload_at + payload_len + 1;
    good = off;
  }

  j.recovery_.entries = j.entries_.size();
  j.recovery_.dropped_bytes = data.size() - good;
  if (j.recovery_.dropped_bytes > 0) {
    if (::ftruncate(j.fd_, static_cast<off_t>(good)) != 0) {
      throw SystemError("journal truncate " + path + ": " + std::strerror(errno));
    }
    fsync_or_throw(j.fd_, path, &j.fsync_count_);
  }
  j.size_bytes_ = good;
  return j;
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      entries_(std::move(other.entries_)),
      recovery_(other.recovery_),
      size_bytes_(other.size_bytes_),
      fsync_count_(other.fsync_count_),
      batch_buf_(std::move(other.batch_buf_)) {
  other.fd_ = -1;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    entries_ = std::move(other.entries_);
    recovery_ = other.recovery_;
    size_bytes_ = other.size_bytes_;
    fsync_count_ = other.fsync_count_;
    batch_buf_ = std::move(other.batch_buf_);
    other.fd_ = -1;
  }
  return *this;
}

Journal::~Journal() { close(); }

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Journal::append(const std::string& payload) { append_batch({payload}); }

void Journal::append_batch(std::vector<std::string>&& payloads) {
  if (payloads.empty()) return;
  UUCS_CHECK_MSG(fd_ >= 0, "journal " + path_ + " is closed");
  // Frame directly into the persistent batch buffer: its capacity is warm
  // after the first few batches, so steady-state group commit performs no
  // allocation between the caller's payloads and the write(2).
  batch_buf_.clear();
  for (const auto& p : payloads) frame_into(batch_buf_, p);
  write_fully(fd_, batch_buf_.data(), batch_buf_.size(), path_);
  fsync_or_throw(fd_, path_, &fsync_count_);
  // Durable: keep the caller's strings rather than copies of them.
  entries_.insert(entries_.end(), std::make_move_iterator(payloads.begin()),
                  std::make_move_iterator(payloads.end()));
  size_bytes_ += batch_buf_.size();
}

std::uint64_t Journal::free_bytes() const {
  if (fd_ < 0) return ~std::uint64_t{0};
  struct statvfs vfs {};
  if (::fstatvfs(fd_, &vfs) != 0) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(vfs.f_bavail) *
         static_cast<std::uint64_t>(vfs.f_frsize);
}

bool Journal::repair_tail() noexcept {
  if (fd_ < 0) return false;
  if (::ftruncate(fd_, static_cast<off_t>(size_bytes_)) != 0) return false;
  // A shrinking fsync allocates nothing, so it works even on a full disk;
  // if it still fails the device itself is gone and appending is unsafe.
  if (::fsync(fd_) != 0) return false;
  ++fsync_count_;
  return true;
}

void Journal::compact(const std::vector<std::string>& keep) {
  UUCS_CHECK_MSG(fd_ >= 0, "journal " + path_ + " is closed");
  const std::string tmp = path_ + ".compact";
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tfd < 0) {
    throw SystemError("journal open " + tmp + ": " + std::strerror(errno));
  }
  std::string buf;
  for (const auto& p : keep) frame_into(buf, p);
  try {
    write_fully(tfd, buf.data(), buf.size(), tmp);
    fsync_or_throw(tfd, tmp, &fsync_count_);
  } catch (...) {
    ::close(tfd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(tfd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw SystemError("journal rename " + tmp + ": " + std::strerror(err));
  }
  fsync_parent_dir(path_);
  // The old fd still points at the replaced inode; reopen the new file.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw SystemError("journal reopen " + path_ + ": " + std::strerror(errno));
  }
  entries_ = keep;
  size_bytes_ = buf.size();
}

GroupCommitJournal::GroupCommitJournal(Journal& journal)
    : GroupCommitJournal(journal, Config()) {}

GroupCommitJournal::GroupCommitJournal(Journal& journal, Config config)
    : journal_(journal), config_(config) {
  if (config_.max_batch_entries == 0) config_.max_batch_entries = 1;
  committer_ = std::thread([this] { commit_loop(); });
}

GroupCommitJournal::~GroupCommitJournal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  state_cv_.notify_all();
  if (committer_.joinable()) committer_.join();
}

GroupCommitJournal::WriteIntent GroupCommitJournal::begin_write() {
  UUCS_CHECK_MSG(t_open_intent == nullptr, "a thread holds one write intent at a time");
  std::lock_guard<std::mutex> lock(mu_);
  t_open_intent = this;
  ++intents_;
  return WriteIntent(this);
}

void GroupCommitJournal::end_write() {
  // Usually this thread's append() has ended the intent already, and there
  // is nothing to do.
  if (t_open_intent != this) return;
  bool ring = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t_open_intent = nullptr;
    // wait_cap_ is set only while the commit thread waits on intents, so
    // the last one out rings it exactly when a batch is held for it.
    ring = --intents_ == 0 && wait_cap_ != 0;
  }
  if (ring) work_cv_.notify_one();
}

std::uint64_t GroupCommitJournal::append(std::vector<std::string> entries) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries.empty()) return last_lsn_;
  // Once its entries are queued the caller is no longer a writer in flight:
  // its own intent ends here, so a batch never waits for the writer whose
  // entries it already holds.
  if (t_open_intent == this) {
    t_open_intent = nullptr;
    --intents_;
  }
  last_lsn_ += entries.size();
  const Health h = health_.load(std::memory_order_relaxed);
  if (h == Health::kOk) {
    for (std::string& e : entries) pending_.push_back(std::move(e));
    if (idle_waiting_ ||
        (wait_cap_ != 0 && (intents_ == 0 || pending_.size() >= wait_cap_))) {
      wake_due_.store(true, std::memory_order_relaxed);
    }
    return last_lsn_;
  }
  // Degraded or broken: nothing queued now can become durable before the
  // parked backlog replays, so wait() fails these LSNs at once — the caller
  // answers with a typed DEGRADED rejection (or stays silent and lets the
  // client time out) instead of trusting a lost write. The payloads were
  // already applied in memory by dispatch (the ingest plane gates writes
  // pre-dispatch while degraded, but a health flip can race that check),
  // so they join the parked backlog: recovery replays them before any wait
  // on them can succeed.
  ++stats_.rejected_appends;
  if (h == Health::kDegraded) {
    for (std::string& e : entries) parked_.push_back(std::move(e));
    stats_.parked_entries = parked_.size();
  }
  return last_lsn_;
}

void GroupCommitJournal::wait(std::uint64_t lsn,
                              std::function<void(bool)> on_durable) {
  bool durable = true;
  if (lsn > durable_lsn_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-checked under the lock the commit thread publishes durable_lsn_
    // and collects waiters under, so a queued waiter cannot miss its batch.
    if (lsn > durable_lsn_.load(std::memory_order_relaxed)) {
      if (health_.load(std::memory_order_relaxed) == Health::kOk && !stopping_) {
        waiters_.push_back({lsn, std::move(on_durable)});
        return;
      }
      durable = false;
    }
  }
  if (durable) immediate_acks_.fetch_add(1, std::memory_order_relaxed);
  if (on_durable) on_durable(durable);
}

void GroupCommitJournal::append_async(std::vector<std::string> entries,
                                      std::function<void(bool)> on_durable) {
  const bool queued = !entries.empty();
  const std::uint64_t lsn = append(std::move(entries));
  if (queued) notify();
  wait(lsn, std::move(on_durable));
}

void GroupCommitJournal::append_sync(std::vector<std::string> entries) {
  if (entries.empty()) return;
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  bool ok = false;
  append_async(std::move(entries), [&](bool durable) {
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
    ok = durable;
    done_cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done; });
  if (!ok) {
    throw SystemError("group commit failed for journal " + journal_.path());
  }
}

void GroupCommitJournal::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.notify_all();
  // Degraded mode keeps pending_ empty (appends are parked at the door),
  // so flush() does not wait out a recovery — parked entries were never
  // acked and every wait on them has already failed.
  state_cv_.wait(lock, [&] {
    return (pending_.empty() && !committing_) || stopping_;
  });
}

void GroupCommitJournal::with_exclusive(const std::function<void()>& fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++exclusive_waiters_;
    work_cv_.notify_all();
    // Wait until the backlog is durable and the commit thread is parked —
    // only then is the underlying Journal safe to touch (compact swaps the
    // fd out from under any in-flight append otherwise).
    state_cv_.wait(lock, [&] {
      return (pending_.empty() && !committing_ && !exclusive_active_) ||
             stopping_;
    });
    --exclusive_waiters_;
    if (stopping_) return;
    exclusive_active_ = true;
  }
  try {
    fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    exclusive_active_ = false;
    work_cv_.notify_all();
    state_cv_.notify_all();
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  exclusive_active_ = false;
  work_cv_.notify_all();
  state_cv_.notify_all();
}

GroupCommitJournal::Stats GroupCommitJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.immediate_acks = immediate_acks_.load(std::memory_order_relaxed);
  return s;
}

std::size_t GroupCommitJournal::effective_batch_cap() const {
  if (!slow_mode_) return config_.max_batch_entries;
  const std::size_t factor = std::max<std::size_t>(1, config_.widened_batch_factor);
  return config_.max_batch_entries * factor;
}

std::uint32_t GroupCommitJournal::effective_wait_us() const {
  if (!slow_mode_) return config_.max_wait_us;
  return std::max(config_.max_wait_us, config_.widened_max_wait_us);
}

void GroupCommitJournal::note_batch_seconds(double seconds) {
  if (config_.slow_fsync_threshold_s <= 0.0) return;
  fsync_ewma_s_ = fsync_ewma_s_ <= 0.0 ? seconds
                                       : 0.8 * fsync_ewma_s_ + 0.2 * seconds;
  if (seconds > config_.slow_fsync_threshold_s) ++stats_.slow_fsyncs;
  // Hysteresis: widen above the threshold, narrow only once the device is
  // comfortably fast again, so the regime does not flap per batch.
  if (!slow_mode_ && fsync_ewma_s_ > config_.slow_fsync_threshold_s) {
    slow_mode_ = true;
    widened_flag_.store(true, std::memory_order_release);
  } else if (slow_mode_ && fsync_ewma_s_ < config_.slow_fsync_threshold_s / 2.0) {
    slow_mode_ = false;
    widened_flag_.store(false, std::memory_order_release);
  }
}

bool GroupCommitJournal::write_batch(std::vector<std::string>& payloads,
                                     bool* broken, std::string* why,
                                     double* seconds) {
  // Injected fault first: a simulated ENOSPC/EIO fails the attempt without
  // touching the file — exactly the shape of the headroom check below, so
  // the recovery path the chaos suite exercises is the production one.
  JournalFault fault;
  if (config_.fault_hook) fault = config_.fault_hook();
  if (fault.stall_s > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(fault.stall_s));
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (fault.err != 0) {
    *why = std::string("injected ") + std::strerror(fault.err);
    *seconds = fault.stall_s;
    return false;
  }
  if (config_.min_free_bytes > 0) {
    std::size_t need = 0;
    for (const auto& p : payloads) need += p.size() + 32;  // frame overhead
    const std::uint64_t free = journal_.free_bytes();
    if (free < config_.min_free_bytes + need) {
      *why = strprintf("journal disk headroom %llu below floor %llu",
                       static_cast<unsigned long long>(free),
                       static_cast<unsigned long long>(config_.min_free_bytes));
      return false;
    }
  }
  if (payloads.empty()) return true;  // recovery probe with nothing parked
  try {
    // One buffered write + one fsync. On success the journal keeps the
    // payload strings; on failure it leaves them for the caller to park.
    journal_.append_batch(std::move(payloads));
  } catch (const std::exception& e) {
    *why = e.what();
    // A failed write may have left torn bytes past the last good frame;
    // truncate them away so the file stays appendable once space returns.
    if (!journal_.repair_tail()) *broken = true;
    return false;
  }
  *seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count() +
             fault.stall_s;
  return true;
}

void GroupCommitJournal::attempt_recovery(std::unique_lock<std::mutex>& lock) {
  std::vector<std::string> parked;
  parked.swap(parked_);
  committing_ = true;
  lock.unlock();

  bool broken = false;
  std::string why;
  double seconds = 0.0;
  // Parked entries replay FIRST, before any new append can queue: requests
  // whose state they carry were applied in memory, and their LSNs precede
  // every LSN assigned after recovery.
  const bool ok = write_batch(parked, &broken, &why, &seconds);

  lock.lock();
  committing_ = false;
  if (ok) {
    if (!parked.empty()) {
      // The parked backlog is every LSN after the durable one, in order.
      // No waiter needs releasing: wait() fails instead of queueing while
      // degraded, and the failure that degraded the journal settled every
      // waiter queued before it.
      durable_lsn_.store(durable_lsn_.load(std::memory_order_relaxed) + parked.size(),
                         std::memory_order_release);
      ++stats_.batches;
      stats_.entries += parked.size();
      stats_.largest_batch = std::max(stats_.largest_batch, parked.size());
      note_batch_seconds(seconds);
    }
    if (parked_.empty()) {
      health_.store(Health::kOk, std::memory_order_release);
      ++stats_.recoveries;
      stats_.parked_entries = 0;
    } else {
      // An append raced the probe and parked fresh entries meanwhile; stay
      // degraded so the next recheck replays them before service resumes.
      stats_.parked_entries = parked_.size();
    }
  } else {
    // Keep queue order: the probed batch is older than anything parked
    // while the probe ran.
    for (std::string& e : parked_) parked.push_back(std::move(e));
    parked_ = std::move(parked);
    stats_.parked_entries = parked_.size();
    if (broken) health_.store(Health::kBroken, std::memory_order_release);
  }
  state_cv_.notify_all();
  work_cv_.notify_all();
}

void GroupCommitJournal::collect_waiters(bool ok) {
  const std::uint64_t durable = durable_lsn_.load(std::memory_order_relaxed);
  auto keep = waiters_.begin();
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (!ok || it->lsn <= durable) {
      ready_.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  waiters_.erase(keep, waiters_.end());
}

void GroupCommitJournal::fire_ready(bool ok) {
  for (Waiter& w : ready_) {
    if (w.on_durable) w.on_durable(ok);
  }
  ready_.clear();
}

void GroupCommitJournal::commit_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_ && pending_.empty()) break;
    const Health h = health_.load(std::memory_order_relaxed);
    if (h == Health::kDegraded && !stopping_) {
      // Appends are rejected at the door while degraded, so the only job is
      // probing the disk for recovery at the recheck cadence.
      work_cv_.wait_for(
          lock,
          std::chrono::milliseconds(
              std::max<std::uint32_t>(1, config_.recheck_interval_ms)),
          [&] { return stopping_; });
      if (stopping_ || exclusive_active_) continue;
      attempt_recovery(lock);
      continue;
    }
    if (h == Health::kBroken) {
      // Terminal: serve rejections until shutdown.
      work_cv_.wait(lock, [&] { return stopping_; });
      continue;
    }
    // Exclusive *waiters* do not pause the loop — they are waiting for the
    // backlog to drain, so the loop must keep committing (the wait for
    // writers below is skipped to get there faster). Only an *active*
    // exclusive section parks it.
    idle_waiting_ = true;
    work_cv_.wait(lock, [&] {
      return stopping_ || (!pending_.empty() && !exclusive_active_);
    });
    idle_waiting_ = false;
    if (pending_.empty()) {
      if (stopping_) break;
      continue;  // woken for an exclusive section; state_cv_ handles it
    }
    // Group window: write what is pending now, unless a writer is still
    // dispatching (a WriteIntent is outstanding). Then wait for it, but
    // only until the last intent ends, the batch fills or the window
    // closes, and never while shutting down or draining for an exclusive
    // section. No timer ever runs for a batch that no writer is still
    // adding to. A slow device widens the window and the cap
    // (note_batch_seconds), so the fsync cadence drops instead of the ack
    // queue growing without bound.
    const std::size_t batch_cap = effective_batch_cap();
    const std::uint32_t wait_us = effective_wait_us();
    const auto cut = [&] {
      return stopping_ || intents_ == 0 || pending_.size() >= batch_cap ||
             exclusive_waiters_ > 0;
    };
    if (wait_us > 0 && !cut()) {
      ++stats_.waited_batches;
      wait_cap_ = batch_cap;
      work_cv_.wait_for(lock, std::chrono::microseconds(wait_us), cut);
      wait_cap_ = 0;
    }
    // Swapping keeps both vectors' capacity warm across batches.
    batch_.swap(pending_);
    const std::uint64_t batch_lsn = last_lsn_;
    committing_ = true;
    const bool widened = slow_mode_;
    lock.unlock();

    bool broken = false;
    std::string why;
    double seconds = 0.0;
    const bool ok = write_batch(batch_, &broken, &why, &seconds);
    // Record the batch before releasing any ack, so an observer woken by an
    // ack never sees stats that lag the durability it was just promised.
    lock.lock();
    if (!ok) {
      ++stats_.failed_batches;
      if (broken) {
        health_.store(Health::kBroken, std::memory_order_release);
        log_error("journal", "group commit broken (unrepairable): " + why);
      } else {
        if (health_.load(std::memory_order_relaxed) == Health::kOk) {
          ++stats_.degraded_spells;
          log_warn("journal", "group commit degraded: " + why);
        }
        health_.store(Health::kDegraded, std::memory_order_release);
        // Park the failed batch and everything queued behind it, in LSN
        // order: dispatch already applied them in memory, so they replay
        // ahead of any new entry on recovery, restoring "applied in memory
        // implies on disk" before any wait on them can succeed.
        for (std::string& p : batch_) parked_.push_back(std::move(p));
        for (std::string& p : pending_) parked_.push_back(std::move(p));
        stats_.parked_entries = parked_.size();
      }
      pending_.clear();
    } else {
      durable_lsn_.store(batch_lsn, std::memory_order_release);
      ++stats_.batches;
      stats_.entries += batch_.size();
      stats_.largest_batch = std::max(stats_.largest_batch, batch_.size());
      if (widened) ++stats_.widened_batches;
      note_batch_seconds(seconds);
    }
    // A failed batch fails every waiter: the ones on it and the ones on
    // entries queued behind it, which were just parked.
    collect_waiters(ok);
    lock.unlock();

    // Acks release strictly after the batch hit disk (or failed).
    fire_ready(ok);
    batch_.clear();

    lock.lock();
    committing_ = false;
    state_cv_.notify_all();
  }
  // Nothing is left to write, so a waiter still queued can never complete.
  collect_waiters(false);
  lock.unlock();
  fire_ready(false);
}

}  // namespace uucs
