#include "server/ingest.hpp"

#include <cerrno>

#include "server/protocol.hpp"
#include "util/error.hpp"
#include "util/kvtext.hpp"
#include "util/logging.hpp"

namespace uucs {

IngestServer::IngestServer(UucsServer& server, Config config, Clock* clock)
    : server_(server), config_(std::move(config)), clock_(clock) {
  if (server_.has_journal()) {
    GroupCommitJournal::Config commit = config_.commit;
    if (config_.failpoints != nullptr && !commit.fault_hook) {
      ServerFailpoints* fp = config_.failpoints;
      commit.fault_hook = [fp] {
        const ServerFaultAction action = fp->on_journal_batch();
        JournalFault fault;
        switch (action.kind) {
          case ServerFaultKind::kEnospc: fault.err = ENOSPC; break;
          case ServerFaultKind::kEio: fault.err = EIO; break;
          case ServerFaultKind::kSlowFsync: fault.stall_s = action.delay_s; break;
          default: break;
        }
        return fault;
      };
    }
    committer_ = std::make_unique<GroupCommitJournal>(*server_.mutable_journal(),
                                                      commit);
    server_.attach_committer(committer_.get());
  }
  OverloadController::Config overload = config_.overload;
  if (overload.failpoints == nullptr) overload.failpoints = config_.failpoints;
  overload_ = std::make_unique<OverloadController>(overload);
  // The loop starts with accept paused: handle_request reads loop_, so no
  // request may reach a worker before loop_ is stored (an adopted listener
  // can hold a backlog of connections ready the moment the loop runs).
  EventLoopServer::Config loop_config = config_.loop;
  loop_config.start_paused = true;
  loop_ = std::make_unique<EventLoopServer>(
      loop_config, [this](std::string payload, EventLoopServer::Responder respond) {
        handle_request(std::move(payload), std::move(respond));
      });
  if (!config_.loop.start_paused) loop_->resume_accept();
  overload_->start([this] { loop_->pause_accept(); },
                   [this] { loop_->resume_accept(); });
}

IngestServer::~IngestServer() { stop(); }

void IngestServer::stop() {
  if (stopped_.exchange(true)) return;
  // Pressure monitor first: it holds callbacks into the loop's accept gate.
  overload_->stop();
  // Loop first: joining its worker pool guarantees no handler is mid-flight,
  // so nothing appends to the committer after this line. The EventLoopServer
  // object stays alive (only stopped), which keeps the Responders held by
  // queued durability callbacks safe to fire — their sends land in a
  // completion queue nobody drains.
  loop_->stop();
  // Committer second: its destructor drains the backlog, so every queued
  // entry is on disk before shutdown even though the acks go nowhere. The
  // server must not hold on to it past that.
  if (committer_) server_.attach_committer(nullptr);
  committer_.reset();
}

bool IngestServer::quiesce(double drain_timeout_s) {
  // Park the pressure monitor so a probe cannot re-open the accept gate
  // mid-drain (releases any pause the monitor itself held).
  overload_->set_suspended(true);
  loop_->pause_accept();
  loop_->begin_drain();
  const bool clean = loop_->wait_connections_drained(drain_timeout_s);
  if (!clean) {
    // A straggler that is still mid-request must not receive an ack after
    // the final snapshot: closing the connection strands its Responder (the
    // generation check drops the reply), so the client retries against
    // whoever serves next and dedup absorbs the replay.
    loop_->close_all_connections();
  }
  // With accept paused and every connection closed, nothing dispatches new
  // work; once the workers go idle, no code path can append to the journal.
  loop_->wait_workers_idle();
  if (committer_) committer_->flush();
  return clean;
}

void IngestServer::resume() {
  loop_->resume_accept();
  overload_->set_suspended(false);
}

GroupCommitJournal::Stats IngestServer::commit_stats() const {
  UUCS_CHECK_MSG(committer_ != nullptr, "no journal attached");
  return committer_->stats();
}

namespace {
const char* health_name(GroupCommitJournal::Health health) {
  switch (health) {
    case GroupCommitJournal::Health::kOk: return "ok";
    case GroupCommitJournal::Health::kDegraded: return "degraded";
    case GroupCommitJournal::Health::kBroken: return "broken";
  }
  return "unknown";
}
}  // namespace

std::string IngestServer::encode_stats_response() const {
  KvRecord rec("stats-response");
  rec.set_int("generation", static_cast<std::int64_t>(server_.generation()));
  rec.set_int("clients", static_cast<std::int64_t>(server_.client_count()));
  rec.set_int("snapshots", static_cast<std::int64_t>(snapshots_.load()));

  const EventLoopStats loop = loop_->stats();
  rec.set_int("loop.open_connections", static_cast<std::int64_t>(loop.open_connections));
  rec.set_int("loop.accepted", static_cast<std::int64_t>(loop.accepted));
  rec.set_int("loop.frames", static_cast<std::int64_t>(loop.frames));
  rec.set_int("loop.responses", static_cast<std::int64_t>(loop.responses));
  rec.set_int("loop.dismissed", static_cast<std::int64_t>(loop.dismissed));
  rec.set_int("loop.inflight", static_cast<std::int64_t>(loop.inflight));
  rec.set_int("loop.protocol_errors", static_cast<std::int64_t>(loop.protocol_errors));
  rec.set_int("loop.idle_timeouts", static_cast<std::int64_t>(loop.idle_timeouts));
  rec.set_int("loop.accept_pauses", static_cast<std::int64_t>(loop.accept_pauses));
  rec.set_int("loop.buffered_bytes", static_cast<std::int64_t>(loop.buffered_bytes));
  rec.set_int("loop.max_buffered_bytes", static_cast<std::int64_t>(loop.max_buffered_bytes_seen));
  rec.set_int("loop.buffer_read_pauses", static_cast<std::int64_t>(loop.buffer_read_pauses));
  rec.set_int("loop.buffer_accept_pauses", static_cast<std::int64_t>(loop.buffer_accept_pauses));

  const OverloadStats shed = overload_->stats();
  rec.set_int("shed.queue", static_cast<std::int64_t>(shed.shed_queue));
  rec.set_int("shed.deadline", static_cast<std::int64_t>(shed.shed_deadline));
  rec.set_int("shed.registrations", static_cast<std::int64_t>(shed.shed_registrations));
  rec.set_int("shed.degraded_rejects", static_cast<std::int64_t>(shed.degraded_rejects));
  rec.set_int("pressure.pauses", static_cast<std::int64_t>(shed.pressure_pauses));
  rec.set_int("pressure.resumes", static_cast<std::int64_t>(shed.pressure_resumes));
  rec.set_int("pressure.probes", static_cast<std::int64_t>(shed.probes));
  rec.set_double("pressure.available_frac", shed.last_available_frac);

  rec.set("journal.health", health_name(journal_health()));
  if (committer_) {
    const GroupCommitJournal::Stats commit = committer_->stats();
    rec.set_int("journal.entries", static_cast<std::int64_t>(commit.entries));
    rec.set_int("journal.batches", static_cast<std::int64_t>(commit.batches));
    rec.set_int("journal.largest_batch", static_cast<std::int64_t>(commit.largest_batch));
    rec.set_int("journal.waited_batches", static_cast<std::int64_t>(commit.waited_batches));
    rec.set_int("journal.immediate_acks", static_cast<std::int64_t>(commit.immediate_acks));
    rec.set_int("journal.durable_lsn", static_cast<std::int64_t>(committer_->durable_lsn()));
    rec.set_int("journal.failed_batches", static_cast<std::int64_t>(commit.failed_batches));
    rec.set_int("journal.rejected_appends", static_cast<std::int64_t>(commit.rejected_appends));
    rec.set_int("journal.degraded_spells", static_cast<std::int64_t>(commit.degraded_spells));
    rec.set_int("journal.recoveries", static_cast<std::int64_t>(commit.recoveries));
    rec.set_int("journal.parked_entries", static_cast<std::int64_t>(commit.parked_entries));
    rec.set_int("journal.slow_fsyncs", static_cast<std::int64_t>(commit.slow_fsyncs));
    rec.set_int("journal.widened_batches", static_cast<std::int64_t>(commit.widened_batches));
    rec.set_bool("journal.widened", committer_->widened());
  }
  return kv_serialize({rec});
}

void IngestServer::shed(const RequestPeek& peek,
                        EventLoopServer::Responder respond,
                        const std::string& kind, const std::string& message) {
  if (peek.protocol_version >= 3) {
    respond.send(encode_busy(kind, message, overload_->retry_after_ms()));
  } else {
    // Pre-v3 peers' wire bytes are pinned: no new reply shape. Dismissing
    // frees the slot; the client's read timeout is its backpressure signal
    // and its normal retry (with jitter) does the spreading.
    respond.dismiss();
  }
}

void IngestServer::handle_request(std::string payload,
                                  EventLoopServer::Responder respond) {
  const RequestPeek peek = peek_request(payload);
  if (peek.op == RequestPeek::Op::kStats) {
    // Always served, even overloaded — an operator must be able to look.
    respond.send(encode_stats_response());
    return;
  }
  const Admission verdict =
      overload_->admit(peek, respond.queue_age_ms(), loop_->inflight());
  if (verdict != Admission::kOk) {
    shed(peek, std::move(respond), "overload", "server overloaded; retry later");
    return;
  }
  const bool degraded =
      committer_ != nullptr &&
      committer_->health() != GroupCommitJournal::Health::kOk;
  if (degraded && peek.write_class) {
    // The journal cannot make new state durable, so nothing that would
    // create state may even be applied in memory. This also blocks
    // duplicate uploads (write-class by result_count), whose "already
    // stored" ack could otherwise reference state that is parked, not
    // durable.
    overload_->note_degraded_reject();
    shed(peek, std::move(respond), "degraded",
         "journal degraded; writes rejected");
    return;
  }
  // A write-class dispatch is a writer in flight: the commit thread holds a
  // pending batch for it (up to max_wait_us) instead of cutting the batch
  // just before this request's entries queue. The intent ends when the
  // server queues them (append, on this thread), or when dispatch returns
  // or throws without queuing anything.
  GroupCommitJournal::WriteIntent intent;
  if (committer_ != nullptr && peek.write_class) intent = committer_->begin_write();
  DispatchResult result = dispatch_request_deferred(server_, payload, clock_);
  intent.end();
  if (committer_ == nullptr) {
    respond.send(std::move(result.response));
    return;
  }
  // The server queued the request's entries on the committer under the lock
  // that published them, and result.lsn is the newest entry the response
  // observed — its own, or the original behind a duplicate upload or a
  // repeated nonce. No ack, not even "duplicate, already stored", leaves
  // before that LSN is on disk. A result-free sync observed nothing and is
  // answered here on the worker, degraded journal or not.
  // The decision between a typed reply and a silent dismiss belongs here
  // with the peek; the busy message itself is built only if the wait fails.
  const bool typed_busy = peek.protocol_version >= 3;
  const std::uint64_t retry_after_ms = overload_->retry_after_ms();
  committer_->wait(
      result.lsn, [respond, response = std::move(result.response), typed_busy,
                   retry_after_ms](bool durable) mutable {
        if (durable) {
          respond.send(std::move(response));
        } else if (typed_busy) {
          // Never ack — the journal did not record the entries. A v3 client
          // gets a typed DEGRADED and retries after the hint; dedup absorbs
          // the replay once the disk heals.
          respond.send(encode_busy("degraded", "journal degraded; entry not durable",
                                   retry_after_ms));
        } else {
          // Pre-v3: release the slot silently; the client times out and
          // retries. Either way the request slot must not leak.
          respond.dismiss();
        }
      });
  maybe_snapshot(result.lsn);
}

void IngestServer::maybe_snapshot(std::uint64_t lsn) {
  if (config_.snapshot_every == 0 || config_.state_dir.empty()) return;
  if (lsn < snapshot_lsn_.load(std::memory_order_relaxed) + config_.snapshot_every) {
    return;
  }
  do_snapshot(lsn);
}

void IngestServer::snapshot_now() { do_snapshot(/*trigger_lsn=*/0); }

void IngestServer::do_snapshot(std::uint64_t trigger_lsn) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (committer_ && committer_->health() != GroupCommitJournal::Health::kOk) {
    // A snapshot compacts the journal from in-memory state, which would
    // silently promote parked (applied-but-never-acked) entries to durable.
    // Wait for recovery; the threshold fires again on the next accept.
    log_warn("ingest", "snapshot skipped: journal not healthy");
    return;
  }
  if (trigger_lsn != 0) {
    if (trigger_lsn < snapshot_lsn_.load(std::memory_order_relaxed) + config_.snapshot_every) {
      return;  // a racing worker already snapshotted this threshold
    }
    snapshot_lsn_.store(trigger_lsn, std::memory_order_relaxed);
  }
  const std::string dir = config_.state_dir.empty() ? "." : config_.state_dir;
  try {
    if (committer_) {
      // save() compacts the journal, which is only safe with the commit
      // thread parked and no batch in flight.
      committer_->with_exclusive([&] { server_.save(dir); });
    } else {
      server_.save(dir);
    }
    snapshots_.fetch_add(1, std::memory_order_relaxed);
    log_info("ingest", "snapshot written to " + dir);
  } catch (const std::exception& e) {
    // Snapshot failure is not data loss — the journal still holds
    // everything — but it must be visible.
    log_error("ingest", "snapshot failed: " + std::string(e.what()));
  }
}

}  // namespace uucs
