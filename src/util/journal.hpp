#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace uucs {

/// Crash-durable append-only log of opaque string payloads.
///
/// Both sync endpoints ride on this: the client journals pending run
/// records (and their acks) so a crash mid-session loses nothing, and the
/// server journals accepted results and registrations between snapshots.
///
/// On-disk format, one frame per entry:
///
///   UUCSJ <payload-bytes> <crc32-hex>\n<payload>\n
///
/// append() fsyncs before returning, so a completed append survives a
/// SIGKILL or power loss. open() replays the file and tolerates a torn
/// tail: the first frame that is incomplete or fails its CRC — and
/// everything after it — is truncated away, and every frame before it is
/// recovered intact. compact() atomically rewrites the file (tmp + fsync +
/// rename + directory fsync) so snapshots can drop acknowledged entries.
class Journal {
 public:
  struct RecoveryStats {
    std::size_t entries = 0;        ///< intact entries replayed at open()
    std::size_t dropped_bytes = 0;  ///< torn/corrupt tail truncated at open()
  };

  /// Opens (creating if absent) the journal at `path`, replays every
  /// intact entry and truncates any torn tail in place. Throws SystemError
  /// if the file cannot be opened or repaired.
  static Journal open(const std::string& path);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  const std::string& path() const { return path_; }

  /// Entries recovered at open() plus everything appended since.
  const std::vector<std::string>& entries() const { return entries_; }
  const RecoveryStats& recovery() const { return recovery_; }
  std::size_t size_bytes() const { return size_bytes_; }

  /// fsync(2) calls issued so far (append batches + compactions + tail
  /// repair). The ingest bench reads this to prove group commit actually
  /// amortizes durability: fsyncs grow per *batch*, not per entry.
  std::uint64_t fsync_count() const { return fsync_count_; }

  /// Appends one payload (arbitrary bytes, including newlines) and fsyncs.
  void append(const std::string& payload);

  /// Appends several payloads with a single write + fsync, then takes them
  /// over: once the fsync succeeds each payload is moved into entries()
  /// (the vector keeps its size; its strings are left moved-from). If the
  /// write or the fsync throws, `payloads` is left intact, so a caller can
  /// keep a failed batch for a retry.
  void append_batch(std::vector<std::string>&& payloads);

  /// Free bytes on the filesystem holding the journal (statvfs), or
  /// UINT64_MAX when it cannot be determined — an unreadable statvfs must
  /// not degrade a healthy server.
  std::uint64_t free_bytes() const;

  /// Truncates the file back to the last known-good frame boundary after a
  /// failed append_batch (a partial write leaves torn bytes the next open()
  /// would have to discard). Returns false when the truncate itself fails —
  /// the file is then in an unknown state and must not be appended to.
  bool repair_tail() noexcept;

  /// Atomically replaces the journal contents with `keep` (snapshot
  /// compaction). The in-memory entry list becomes `keep`.
  void compact(const std::vector<std::string>& keep);

  void close();

  /// CRC-32 (IEEE 802.3) of `data`; exposed for tests. Delegates to the
  /// shared util/crc32 implementation (slice-by-16 or hardware).
  static std::uint32_t crc32(std::string_view data);

  /// Appends one on-disk frame (`UUCSJ <len> <crc>\n<payload>\n`) for
  /// `payload` to `out` without any intermediate allocation. This is the
  /// single authority on the frame format: append_batch and compact build
  /// their write buffers with it, and the golden byte-identity tests pin
  /// its output against checked-in fixtures.
  static void frame_into(std::string& out, std::string_view payload);

 private:
  Journal() = default;

  std::string path_;
  int fd_ = -1;
  std::vector<std::string> entries_;
  RecoveryStats recovery_;
  std::size_t size_bytes_ = 0;
  std::uint64_t fsync_count_ = 0;
  /// Reused across append_batch calls so steady-state group commit frames
  /// every batch into already-warm capacity instead of growing a fresh
  /// std::string per batch.
  std::string batch_buf_;
};

/// A disk fault injected into one group-commit batch attempt (the test hook
/// through which the server-side failpoints reach the journal without the
/// util layer depending on them). `err` of 0 passes clean; ENOSPC/EIO fail
/// the batch as if the disk did; a positive `stall_s` delays the attempt
/// first (a slow device), then writes for real.
struct JournalFault {
  int err = 0;
  double stall_s = 0.0;
};

/// Group-commit front end for a Journal: appends from concurrent request
/// handlers coalesce into one buffered write + one fsync on a dedicated
/// commit thread, and each append's completion fires only after the batch
/// holding it is durable. Durability semantics are exactly the journal's —
/// "acknowledged implies on disk" — but the fsync cost is amortized over
/// every append that queued while the previous batch was being written, or
/// that a writer in flight (a WriteIntent) added before its batch was cut,
/// instead of being paid per append. The on-disk format is untouched
/// (Journal::append_batch does the writing), so journals written through
/// this replay with plain Journal::open.
///
/// Log sequence numbers: every queued entry gets the next LSN (1, 2, ...),
/// and after each fsync the commit thread publishes the durable LSN — the
/// LSN of the last entry written. A completion waits on an LSN, not on a
/// batch, so a wait whose LSN is already durable completes at once on the
/// caller's thread. LSNs live only in memory; nothing on disk changes.
///
/// Threading: every public member may be called from any thread. The
/// wrapped Journal must not be touched directly while a GroupCommitJournal
/// is attached to it, except inside with_exclusive().
class GroupCommitJournal {
 public:
  /// Disk-safety state machine (DESIGN.md §15). kOk is normal service.
  /// kDegraded means a batch write failed (ENOSPC/EIO or the headroom check
  /// tripped): its entries are parked in memory, every new append is
  /// rejected, and the commit thread probes for recovery every
  /// `recheck_interval_ms` — a successful re-append of the parked entries
  /// flips back to kOk, and only then can any ack referring to them fire.
  /// kBroken is terminal: the file could not even be truncated back to a
  /// frame boundary after a failed write, so appending again could corrupt
  /// recovered data.
  enum class Health : std::uint8_t { kOk = 0, kDegraded, kBroken };

  struct Config {
    /// Entry count that cuts a batch short while it waits for writers in
    /// flight (see max_wait_us): a full batch is written at once.
    std::size_t max_batch_entries = 512;
    /// Longest a batch waits for writers already in flight. The commit
    /// thread writes whatever is pending as soon as it finds it, unless a
    /// WriteIntent is outstanding; then it waits until the last intent
    /// ends, the batch reaches max_batch_entries, or this many
    /// microseconds pass, whichever comes first. It never delays an idle
    /// log or a batch with no writer in flight. 0 never waits.
    std::uint32_t max_wait_us = 500;
    /// Refuse to write a batch when the journal filesystem has less than
    /// this many free bytes left (plus the batch itself) — degrading on a
    /// statvfs check is recoverable, hitting real ENOSPC mid-write needs a
    /// tail repair first. 0 disables the check.
    std::uint64_t min_free_bytes = 0;
    /// While degraded, how often the commit thread re-probes the disk for
    /// recovery.
    std::uint32_t recheck_interval_ms = 200;
    /// A batch write+fsync slower than this (EWMA-smoothed) widens the
    /// group window: a batch may wait longer and grow larger for writers in
    /// flight, so a slow device sees fewer fsyncs instead of an ack queue
    /// that falls behind. Entries queued during a slow write still pile up
    /// behind it and go out together. 0 disables slow-fsync adaptation.
    double slow_fsync_threshold_s = 0.0;
    /// max_wait_us while in the widened (slow-device) regime: the longest a
    /// batch waits for writers in flight (the larger of the two applies).
    std::uint32_t widened_max_wait_us = 5000;
    /// max_batch_entries multiplier while in the widened regime.
    std::size_t widened_batch_factor = 4;
    /// Consulted once per batch attempt before touching the disk; the
    /// chaos suite injects deterministic ENOSPC/EIO/slow-fsync here.
    std::function<JournalFault()> fault_hook;
  };

  struct Stats {
    std::uint64_t entries = 0;        ///< payloads made durable
    std::uint64_t batches = 0;        ///< write+fsync cycles (== fsyncs here)
    std::size_t largest_batch = 0;    ///< most entries in one fsync
    std::uint64_t immediate_acks = 0;   ///< waits completed at once: LSN already durable
    std::uint64_t failed_batches = 0;   ///< batch attempts that failed
    std::uint64_t rejected_appends = 0; ///< appends refused while not kOk
    std::uint64_t degraded_spells = 0;  ///< kOk -> kDegraded transitions
    std::uint64_t recoveries = 0;       ///< kDegraded -> kOk transitions
    std::size_t parked_entries = 0;     ///< failed-batch payloads awaiting replay
    std::uint64_t slow_fsyncs = 0;      ///< batches over the slow threshold
    std::uint64_t widened_batches = 0;  ///< batches committed in the widened regime
    std::uint64_t waited_batches = 0;   ///< batches whose write waited for a WriteIntent
  };

  /// A writer in flight: taken by a thread before it starts work that may
  /// append (for the ingest plane, dispatch of a write-class request). It
  /// ends as soon as that thread's next non-empty append() queues its
  /// entries, under the same lock, or else when the token is ended or
  /// destroyed (work that appended nothing). While any intent is
  /// outstanding the commit thread holds a pending batch for it, up to
  /// Config::max_wait_us: a batch waits only for writers that have not
  /// queued yet, never for the one whose entries it already holds. Ending
  /// the last intent rings the commit thread (through notify() when an
  /// append ended it), so the batch goes out at once. Intents only decide
  /// when a batch is cut, never which LSN a wait covers. A thread holds at
  /// most one token at a time and ends it itself (end or destroy one
  /// before beginning the next, even when an append already ended its
  /// intent); move-only, ends on destruction, and must not outlive its
  /// GroupCommitJournal. End an
  /// intent that has not appended before blocking on a durability wait
  /// (flush): a batch held for it would otherwise sit out the whole window.
  class WriteIntent {
   public:
    WriteIntent() = default;
    WriteIntent(WriteIntent&& other) noexcept
        : journal_(std::exchange(other.journal_, nullptr)) {}
    WriteIntent& operator=(WriteIntent&& other) noexcept {
      if (this != &other) {
        end();
        journal_ = std::exchange(other.journal_, nullptr);
      }
      return *this;
    }
    ~WriteIntent() { end(); }

    /// Ends the intent now; later calls (and the destructor) do nothing.
    void end() {
      if (journal_ != nullptr) std::exchange(journal_, nullptr)->end_write();
    }

   private:
    friend class GroupCommitJournal;
    explicit WriteIntent(GroupCommitJournal* journal) : journal_(journal) {}
    GroupCommitJournal* journal_ = nullptr;
  };

  /// `journal` must outlive this object. (Two overloads rather than a
  /// `Config config = {}` default: a nested aggregate's member initializers
  /// may not be used in default arguments inside the enclosing class.)
  explicit GroupCommitJournal(Journal& journal);
  GroupCommitJournal(Journal& journal, Config config);

  /// Drains every queued append (completions fire), then joins the thread.
  ~GroupCommitJournal();

  GroupCommitJournal(const GroupCommitJournal&) = delete;
  GroupCommitJournal& operator=(const GroupCommitJournal&) = delete;

  /// Queues `entries` for the next batch and returns the LSN of the last
  /// one. Empty `entries` queue nothing and return the highest LSN assigned
  /// so far, so a wait on it covers everything queued before the call.
  /// Never blocks on disk and does not wake the commit thread: a caller
  /// that queues under its own lock rings notify() after releasing it.
  /// Non-empty `entries` end the calling thread's WriteIntent, if it holds
  /// one. While degraded the entries join the parked backlog (recovery replays
  /// them); once broken they are dropped. Either way a wait on the returned
  /// LSN fails until recovery has written it.
  std::uint64_t append(std::vector<std::string> entries);

  /// Starts the calling thread's WriteIntent (see there). Takes the lock
  /// once; the append that ends it takes no extra lock, and ending one that
  /// never appended takes it once more.
  WriteIntent begin_write();

  /// Wakes the commit thread for entries queued by append(), if they need
  /// it: when it was idle, or when the batch it is holding for writers in
  /// flight is now full or has no writer left to wait for. Otherwise the
  /// batch being written or the end of the last WriteIntent picks them up,
  /// and the commit thread is not woken once per append for nothing.
  void notify() {
    if (wake_due_.exchange(false, std::memory_order_relaxed)) work_cv_.notify_one();
  }

  /// Runs `on_durable` once every entry up to `lsn` is durable: at once,
  /// on the calling thread, when durable_lsn() already covers `lsn` (LSN 0,
  /// "observed nothing", always is); otherwise on the commit thread after
  /// the fsync that covers it. `on_durable(false)` means `lsn` could not be
  /// made durable — its batch failed, or the journal is degraded, broken or
  /// stopping — and the caller must NOT acknowledge.
  void wait(std::uint64_t lsn, std::function<void(bool durable)> on_durable);

  /// wait(append(entries)) plus notify(): `on_durable` fires once `entries`
  /// and everything queued before them are durable. Empty `entries` wait
  /// for everything queued before the call, at once if that is already on
  /// disk.
  void append_async(std::vector<std::string> entries,
                    std::function<void(bool durable)> on_durable);

  /// Blocks until `entries` are durable; throws SystemError on failure.
  /// Coalesces with concurrent appends exactly like append_async.
  void append_sync(std::vector<std::string> entries);

  /// LSN of the last entry known to be on disk; lock-free.
  std::uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Blocks until everything queued before the call is durable.
  void flush();

  /// Runs `fn` with the commit thread parked and no batch in flight — the
  /// only safe window to touch the underlying Journal directly (snapshot
  /// compaction). Appends queued meanwhile are held and committed after.
  void with_exclusive(const std::function<void()>& fn);

  Stats stats() const;

  /// Current disk-safety state; lock-free (the ingest plane consults it on
  /// every request to gate writes while degraded).
  Health health() const { return health_.load(std::memory_order_acquire); }

  /// True while the slow-fsync adaptation has widened the group window.
  bool widened() const { return widened_flag_.load(std::memory_order_acquire); }

 private:
  struct Waiter {
    std::uint64_t lsn;
    std::function<void(bool)> on_durable;
  };

  void commit_loop();
  void end_write();  ///< WriteIntent's end: drops intents_ unless append did, rings if last
  /// Moves every waiter that `ok` settles — all of them when false, those
  /// whose LSN is durable when true — into ready_, in arrival order. Lock
  /// held; the caller fires ready_ after releasing it.
  void collect_waiters(bool ok);
  void fire_ready(bool ok);  ///< commit thread, lock released
  /// One disk attempt (fault hook, headroom check, append, tail repair on
  /// failure). Runs without the lock. Returns false on failure, with
  /// `payloads` intact; `broken` is set when the file could not be repaired
  /// afterwards. On success the journal has taken the payload strings.
  bool write_batch(std::vector<std::string>& payloads, bool* broken,
                   std::string* why, double* seconds);
  /// Degraded-mode probe: replays the parked entries (plus a headroom
  /// check); flips back to kOk on success. Expects `lock` held; drops and
  /// reacquires it around the disk attempt.
  void attempt_recovery(std::unique_lock<std::mutex>& lock);
  void note_batch_seconds(double seconds);  ///< EWMA + widen/narrow (lock held)
  std::size_t effective_batch_cap() const;  ///< lock held
  std::uint32_t effective_wait_us() const;  ///< lock held

  Journal& journal_;
  Config config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< commit thread waits for appends
  std::condition_variable state_cv_;  ///< flush()/with_exclusive() wait here
  /// Queued entries: while kOk, the last pending_.size() LSNs assigned.
  std::vector<std::string> pending_;
  std::vector<std::string> batch_;  ///< commit thread: the batch being written
  std::vector<Waiter> waiters_;  ///< completions whose LSN is not yet durable
  std::vector<Waiter> ready_;    ///< commit thread: settled, about to fire
  std::uint64_t last_lsn_ = 0;   ///< highest LSN assigned
  std::atomic<std::uint64_t> durable_lsn_{0};  ///< written under mu_ only
  std::atomic<std::uint64_t> immediate_acks_{0};
  bool committing_ = false;  ///< a batch is being written right now
  bool idle_waiting_ = false;  ///< commit thread: waiting for a first append
  std::size_t wait_cap_ = 0;  ///< commit thread: batch cap while waiting on intents, else 0
  std::size_t intents_ = 0;  ///< WriteIntents whose entries are not queued yet
  /// Set by append() when the commit thread needs waking; the first
  /// notify() after it rings the condition variable.
  std::atomic<bool> wake_due_{false};
  bool stopping_ = false;
  std::atomic<Health> health_{Health::kOk};  ///< written under mu_ only
  /// While degraded: every entry after durable_lsn_, in LSN order — the
  /// failed batch, what queued behind it, and appends since. Replays first.
  std::vector<std::string> parked_;
  double fsync_ewma_s_ = 0.0;        ///< smoothed batch write+fsync seconds
  bool slow_mode_ = false;           ///< widened group window active
  std::atomic<bool> widened_flag_{false};
  std::size_t exclusive_waiters_ = 0;
  bool exclusive_active_ = false;
  Stats stats_;
  std::thread committer_;
};

}  // namespace uucs
