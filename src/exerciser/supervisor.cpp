#include "exerciser/supervisor.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace uucs {

namespace {

/// Shared state one worker thread writes and the supervisor reads. The
/// report is published before `done` flips (release/acquire), so a joined
/// or observed-done slot always carries a complete report.
struct Slot {
  ResourceReport report;
  std::shared_ptr<std::atomic<bool>> done = std::make_shared<std::atomic<bool>>(false);
};

}  // namespace

std::string resource_outcome_name(ResourceOutcome outcome) {
  switch (outcome) {
    case ResourceOutcome::kOk: return "ok";
    case ResourceOutcome::kDegraded: return "degraded";
    case ResourceOutcome::kFailed: return "failed";
    case ResourceOutcome::kHung: return "hung";
    case ResourceOutcome::kAborted: return "aborted";
  }
  return "unknown";
}

std::optional<ResourceOutcome> parse_resource_outcome(const std::string& name) {
  if (name == "ok") return ResourceOutcome::kOk;
  if (name == "degraded") return ResourceOutcome::kDegraded;
  if (name == "failed") return ResourceOutcome::kFailed;
  if (name == "hung") return ResourceOutcome::kHung;
  if (name == "aborted") return ResourceOutcome::kAborted;
  return std::nullopt;
}

int resource_outcome_severity(ResourceOutcome o) {
  switch (o) {
    case ResourceOutcome::kOk: return 0;
    case ResourceOutcome::kDegraded: return 1;
    case ResourceOutcome::kAborted: return 2;
    case ResourceOutcome::kFailed: return 3;
    case ResourceOutcome::kHung: return 4;
  }
  return 0;
}

ResourceOutcome SupervisedOutcome::worst() const {
  ResourceOutcome w = ResourceOutcome::kOk;
  for (const auto& [r, report] : reports) {
    if (resource_outcome_severity(report.outcome) > resource_outcome_severity(w)) {
      w = report.outcome;
    }
  }
  return w;
}

RunSupervisor::RunSupervisor(Clock& clock, double grace_s, double stop_bound_s,
                             double poll_interval_s)
    : clock_(clock),
      grace_s_(grace_s),
      stop_bound_s_(stop_bound_s),
      poll_interval_s_(poll_interval_s) {
  UUCS_CHECK_MSG(grace_s_ >= 0, "watchdog grace must be >= 0");
  UUCS_CHECK_MSG(stop_bound_s_ > 0, "stop bound must be positive");
  UUCS_CHECK_MSG(poll_interval_s_ > 0, "watchdog poll must be positive");
}

SupervisedOutcome RunSupervisor::supervise(const std::vector<Worker>& workers,
                                           double duration,
                                           const std::atomic<bool>& external_stop,
                                           std::vector<Abandoned>& abandoned) {
  const double start = clock_.now();
  SupervisedOutcome outcome;

  std::vector<std::shared_ptr<Slot>> slots;
  std::vector<std::thread> threads;
  slots.reserve(workers.size());
  threads.reserve(workers.size());
  for (const Worker& w : workers) {
    auto slot = std::make_shared<Slot>();
    slots.push_back(slot);
    // The exception barrier: whatever a worker throws — a SystemError from
    // a failed pwrite, an mmap failure, a library bug — becomes a typed
    // report. An uncaught exception here would be std::terminate.
    //
    // The worker plays its own copy of the function: an abandoned worker
    // outlives supervise(), and with it the caller's testcase.
    threads.emplace_back([slot, ex = w.exerciser, f = *w.function] {
      ResourceReport report;
      try {
        report.played_s = ex->run(f);
        const auto deg = ex->degradation();
        report.degraded_events = deg.events;
        if (deg.events > 0) {
          report.outcome = ResourceOutcome::kDegraded;
          report.detail = deg.detail;
        }
      } catch (const std::exception& e) {
        report.outcome = ResourceOutcome::kFailed;
        report.detail = e.what();
      } catch (...) {
        report.outcome = ResourceOutcome::kFailed;
        report.detail = "unknown exception";
      }
      slot->report = std::move(report);
      slot->done->store(true, std::memory_order_release);
    });
  }

  // The watchdog: polls until every worker is done, the stop bound is
  // blown, or the run deadline passes (then it initiates the stop itself).
  const double deadline = start + duration + grace_s_;
  std::optional<double> stop_at;
  auto all_done = [&] {
    return std::all_of(slots.begin(), slots.end(), [](const auto& s) {
      return s->done->load(std::memory_order_acquire);
    });
  };
  bool hung = false;
  while (!all_done()) {
    const double now = clock_.now();
    if (!stop_at && external_stop.load(std::memory_order_relaxed)) {
      stop_at = now;
    }
    if (!stop_at && now >= deadline) {
      outcome.watchdog_fired = true;
      for (const Worker& w : workers) w.exerciser->stop();
      stop_at = now;
    }
    if (stop_at && now - *stop_at >= stop_bound_s_) {
      hung = !all_done();
      break;
    }
    clock_.sleep(poll_interval_s_);
  }

  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (slots[i]->done->load(std::memory_order_acquire)) {
      threads[i].join();
      outcome.reports[workers[i].resource] = slots[i]->report;
    } else {
      // Missed the stop bound: the worker cannot be killed, so it is
      // parked with a keep-alive exerciser reference and reaped later.
      ResourceReport report;
      report.outcome = ResourceOutcome::kHung;
      report.played_s = std::min(clock_.now() - start, duration);
      report.detail = "stop() not honored within bound";
      outcome.reports[workers[i].resource] = std::move(report);
      abandoned.push_back({workers[i].resource, workers[i].exerciser,
                           slots[i]->done, std::move(threads[i])});
    }
  }

  outcome.hung = hung;
  outcome.stopped_early = external_stop.load(std::memory_order_relaxed);
  outcome.elapsed_s = std::min(clock_.now() - start, duration);
  return outcome;
}

std::size_t RunSupervisor::reap(std::vector<Abandoned>& abandoned) {
  std::size_t wedged = 0;
  auto it = abandoned.begin();
  while (it != abandoned.end()) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = abandoned.erase(it);
    } else {
      ++wedged;
      ++it;
    }
  }
  return wedged;
}

}  // namespace uucs
