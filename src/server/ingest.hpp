#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "server/event_loop.hpp"
#include "server/failpoints.hpp"
#include "server/overload.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/clock.hpp"
#include "util/journal.hpp"

namespace uucs {

/// The assembled ingest plane (DESIGN.md §13): an EventLoopServer accepting
/// the wire protocol, a worker pool dispatching requests against a (sharded)
/// UucsServer, and — when the server has a journal attached — a
/// GroupCommitJournal that coalesces every concurrent ack's durability into
/// one buffered write + one fsync.
///
/// Ack protocol (DESIGN.md §13): the server queues each request's journal
/// entries on the committer while it still holds the lock that publishes
/// them, and reports the highest log sequence number (LSN) the response
/// observed — its own entries, or the original behind a duplicate upload or
/// a repeated nonce. The response leaves once the committer's durable LSN
/// reaches it: from the commit thread after the covering fsync, or at once
/// on the worker when it is already durable. A result-free sync observes
/// nothing and never waits for a batch. Without a journal, responses leave
/// as soon as the worker finishes.
///
/// Exactly-once is end-to-end unchanged from the blocking stack: clients
/// mint run_ids, the server dedups them, and nothing is acked before it is
/// durable — only the *batching* of the durability write is new.
class IngestServer {
 public:
  struct Config {
    EventLoopServer::Config loop;
    GroupCommitJournal::Config commit;
    /// Journal entries (LSNs) between automatic snapshots (0: never).
    /// Snapshots run server.save(state_dir) inside the committer's
    /// exclusive section, then the journal restarts empty.
    std::size_t snapshot_every = 0;
    std::string state_dir;
    /// Admission control, load shedding, and the memory-pressure accept
    /// gate (DESIGN.md §15). Default-constructed = everything off.
    OverloadController::Config overload;
    /// Optional fault-injection registry (chaos runs). Not owned; wired
    /// into the journal's fault hook and the pressure probe.
    ServerFailpoints* failpoints = nullptr;
  };

  /// `server` must outlive this object; its journal (if any) must be
  /// attached before construction and not touched directly afterwards.
  IngestServer(UucsServer& server, Config config, Clock* clock = nullptr);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  std::uint16_t port() const { return loop_->port(); }

  /// Orderly shutdown: stop accepting, fail new appends, drain the
  /// committer so every in-flight ack resolves, then stop the loop.
  /// Idempotent.
  void stop();

  /// Snapshot on demand (same exclusive path as snapshot_every).
  void snapshot_now();

  /// Quiesces the ingest plane for a takeover or graceful exit: stops
  /// accepting (newcomers queue in the kernel backlog — the listening socket
  /// stays open), drains every connection, force-closes stragglers after
  /// `drain_timeout_s` (their un-acked requests are stranded, never acked,
  /// and will be retried + deduplicated), waits for the worker pool to go
  /// idle, then flushes the group-commit batch. After this returns no code
  /// path can append to the journal until resume(). Returns true when the
  /// drain completed without force-closing.
  bool quiesce(double drain_timeout_s);

  /// Rolls a quiesce back: resumes accepting (and serves the backlog that
  /// queued up meanwhile). The takeover controller calls this when the new
  /// process dies before confirming readiness.
  void resume();

  /// Blocks until everything queued at the group-commit journal is durable.
  /// No-op without a journal.
  void flush_commits() {
    if (committer_) committer_->flush();
  }

  EventLoopStats loop_stats() const { return loop_->stats(); }
  bool has_committer() const { return committer_ != nullptr; }
  GroupCommitJournal::Stats commit_stats() const;
  std::uint64_t snapshots_taken() const { return snapshots_.load(); }

  OverloadStats overload_stats() const { return overload_->stats(); }

  /// kOk when no journal is attached (nothing can degrade).
  GroupCommitJournal::Health journal_health() const {
    return committer_ ? committer_->health() : GroupCommitJournal::Health::kOk;
  }

  /// The [stats-response] message answering a [stats-request]: every loop,
  /// commit, and overload counter as one kv record. Also what
  /// `uucs_server --stats-interval` prints a digest of.
  std::string encode_stats_response() const;

  EventLoopServer& loop() { return *loop_; }

 private:
  void handle_request(std::string payload, EventLoopServer::Responder respond);
  void shed(const RequestPeek& peek, EventLoopServer::Responder respond,
            const std::string& kind, const std::string& message);
  void maybe_snapshot(std::uint64_t lsn);
  /// `trigger_lsn` 0 forces a snapshot; otherwise it is skipped when a
  /// racing worker already took the threshold that LSN crossed.
  void do_snapshot(std::uint64_t trigger_lsn);

  UucsServer& server_;
  Config config_;
  Clock* clock_;
  std::unique_ptr<GroupCommitJournal> committer_;
  std::unique_ptr<OverloadController> overload_;
  std::atomic<std::uint64_t> snapshot_lsn_{0};  ///< LSN that triggered the last snapshot
  std::atomic<std::uint64_t> snapshots_{0};
  std::mutex snapshot_mu_;
  std::atomic<bool> stopped_{false};
  std::unique_ptr<EventLoopServer> loop_;  ///< last member: stops first
};

}  // namespace uucs
