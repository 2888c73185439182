#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exerciser/exerciser.hpp"

namespace uucs {

/// How one resource's exerciser worker ended. The paper's client borrows
/// resources on end-user machines (§2.2–2.3); a hostile host (full disk,
/// dying device, memory-starved box) must degrade the borrowing, never
/// crash the process or wedge a run — and the analysis pipeline must be
/// able to tell "the user was discomforted" from "the host faulted".
enum class ResourceOutcome {
  kOk,        ///< ran to exhaustion or a honored stop, no faults absorbed
  kDegraded,  ///< completed, but absorbed recoverable host faults
  kFailed,    ///< the worker threw; captured by the exception barrier
  kHung,      ///< missed the stop-responsiveness bound; worker abandoned
  kAborted,   ///< the process died mid-run (seen only via journal replay)
};

std::string resource_outcome_name(ResourceOutcome outcome);
std::optional<ResourceOutcome> parse_resource_outcome(const std::string& name);

/// Severity order used by worst(): ok < degraded < aborted < failed < hung.
int resource_outcome_severity(ResourceOutcome outcome);

/// Per-resource verdict assembled by the supervisor.
struct ResourceReport {
  ResourceOutcome outcome = ResourceOutcome::kOk;
  double played_s = 0.0;            ///< seconds of the function played
  std::size_t degraded_events = 0;  ///< recoverable faults absorbed
  std::string detail;               ///< human-readable cause when not ok
};

/// Outcome of one supervised run across all exercised resources. Extends
/// the old ExerciserSet::RunOutcome shape (stopped_early / elapsed_s keep
/// their exact former semantics) with the typed per-resource verdicts.
struct SupervisedOutcome {
  bool stopped_early = false;   ///< an external stop() arrived before exhaustion
  double elapsed_s = 0.0;       ///< seconds of the testcase actually played
  bool watchdog_fired = false;  ///< the run overran duration + grace
  bool hung = false;            ///< some worker missed the stop bound
  std::map<Resource, ResourceReport> reports;

  /// The most severe per-resource outcome (ok < degraded < failed < hung);
  /// kOk for a blank run with no reports.
  ResourceOutcome worst() const;
};

/// Supervises the worker threads of one exerciser run:
///
///  * every worker runs behind an exception barrier — a thrown
///    SystemError (ENOSPC, EIO, mmap failure, ...) becomes a kFailed
///    report instead of std::terminate tearing down the host process;
///  * a watchdog bounds the whole run to duration + grace_s — if workers
///    are still going past that (e.g. injected slow-IO), it stops them;
///  * once a stop is in flight (external stop() or the watchdog), workers
///    must finish within stop_bound_s or the run is marked hung, the
///    stragglers are abandoned to a reap list, and supervise() returns —
///    the §2.3 "stop immediately" promise degrades to "return promptly
///    and tell the truth about the worker you could not stop".
///
/// Abandoned workers cannot be killed (no such thing for std::thread);
/// they are parked with their keep-alive exerciser reference and joined
/// when they eventually return — reap() opportunistically, or the owning
/// ExerciserSet's destructor as the final (blocking) backstop.
class RunSupervisor {
 public:
  struct Worker {
    Resource resource;
    std::shared_ptr<ResourceExerciser> exerciser;
    /// Read only inside supervise(): each worker thread copies it.
    const ExerciseFunction* function = nullptr;
  };

  /// One parked worker that missed the stop bound. Holds the exerciser
  /// alive, and the thread owns the function it plays, so the still-running
  /// thread never dangles.
  struct Abandoned {
    Resource resource;
    std::shared_ptr<ResourceExerciser> exerciser;
    std::shared_ptr<std::atomic<bool>> done;
    std::thread thread;
  };

  /// grace_s: slack past the testcase duration before the watchdog stops
  /// the run. stop_bound_s: how long a stop may take to be honored.
  /// poll_interval_s: watchdog poll resolution.
  RunSupervisor(Clock& clock, double grace_s, double stop_bound_s,
                double poll_interval_s);

  /// Runs every worker to completion, stop, or watchdog teardown.
  /// `external_stop` is the owner's stop flag (the owner also stops the
  /// exercisers; the supervisor only times the bound from it). Stragglers
  /// are appended to `abandoned`.
  SupervisedOutcome supervise(const std::vector<Worker>& workers, double duration,
                              const std::atomic<bool>& external_stop,
                              std::vector<Abandoned>& abandoned);

  /// Joins every abandoned worker that has since finished; returns how
  /// many are still wedged.
  static std::size_t reap(std::vector<Abandoned>& abandoned);

 private:
  Clock& clock_;
  double grace_s_;
  double stop_bound_s_;
  double poll_interval_s_;
};

}  // namespace uucs
