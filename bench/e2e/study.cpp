// Study workloads: run_controlled_study at jobs = nproc, then the paper's
// figure set, repeated until --seconds of measurement; metrics are medians
// over the repetitions.
//
// The traced run executes the benchmark's own copy of the session driver
// (controlled_study.cpp's UserSessionDriver, reached only through public
// calls) with a span around every call into the sim, testcase and analysis
// layers. Its output must serialize byte-identical to the real
// run_controlled_study for the same seed, or the run fails its check: the
// copy would be measuring a different program. The copy goes away once the
// program stamps its own layers.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "analysis/breakdown.hpp"
#include "analysis/metrics.hpp"
#include "analysis/offsets.hpp"
#include "analysis/streaming.hpp"
#include "engine/session_engine.hpp"
#include "sim/host_model.hpp"
#include "sim/simulation.hpp"
#include "study/controlled_study.hpp"
#include "study/population.hpp"
#include "testcase/suite.hpp"
#include "util/rng_streams.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace uucs_bench {
namespace {

namespace an = uucs::analysis;
namespace st = uucs::study;
using uucs::sim::kTaskCount;

struct StudyShape {
  bool streaming = false;
  std::size_t users = 0;
  std::size_t min_reps = 3;
};

/// Frozen sizes. study-stream's 1M users (~34M runs, ~4 s of engine time
/// on four workers) hold a ~400 MiB population, far more than the LLC, and
/// fill a run with 3 repetitions. A 100k-user shape, with a 0.5 s engine
/// phase, swung between 4.4 and 7.8M runs/s from one repetition to the
/// next; 1M-user repetitions of one run agree within about 8%.
/// study-records keeps ~272k map-based RunRecords (~520 MiB peak, also far
/// over the LLC): at 20k users its repetitions swung as widely, so the
/// larger shape bought no steadiness for 2.5x the memory and a quarter of
/// the repetitions.
StudyShape study_shape(const Options& opt) {
  StudyShape s;
  s.streaming = opt.workload == "study-stream";
  if (opt.smoke) {
    s.users = s.streaming ? 3000 : 300;
    s.min_reps = 2;
  } else {
    s.users = s.streaming ? 1'000'000 : 8'000;
  }
  return s;
}

// --- the figure set ---------------------------------------------------------

void put_breakdown(std::string& out, const an::RunBreakdown& b) {
  out += uucs::strprintf("breakdown %zu %zu %zu %zu\n", b.nonblank_discomforted,
                         b.nonblank_exhausted, b.blank_discomforted,
                         b.blank_exhausted);
}

void put_cell(std::string& out, const an::CellMetrics& c) {
  out += uucs::strprintf("cell %zu %zu %.17g", c.df_count, c.ex_count, c.fd);
  out += c.c05 ? uucs::strprintf(" %.17g", *c.c05) : std::string(" *");
  out += c.ca ? uucs::strprintf(" %.17g %.17g %.17g %zu\n", c.ca->mean, c.ca->lo,
                                c.ca->hi, c.ca->n)
              : std::string(" *\n");
}

void put_km(std::string& out, const uucs::stats::KaplanMeier& km) {
  out += uucs::strprintf("km %zu %zu", km.event_count(), km.censored_count());
  for (const auto& [level, p] : km.curve_points()) {
    out += uucs::strprintf(" %.17g:%.17g", level, p);
  }
  out += '\n';
}

void put_offsets(std::string& out, const std::optional<an::OffsetSummary>& o) {
  if (!o) {
    out += "offsets *\n";
    return;
  }
  out += uucs::strprintf("offsets %zu %.17g %.17g %.17g %.17g %.17g %.17g\n", o->n,
                         o->mean_ci.mean, o->mean_ci.lo, o->mean_ci.hi, o->q25,
                         o->median, o->q75);
}

constexpr std::array<an::BreakdownScope, 2> kScopes = {
    an::BreakdownScope::kCpuAndBlank, an::BreakdownScope::kAllRuns};

/// Fig 9 breakdowns, the Figs 10-12/14-16 cells, the Kaplan-Meier curves
/// and the offset summaries, from the in-memory records.
std::string figures_from_records(const uucs::ResultStore& results) {
  std::string out;
  for (const an::BreakdownScope scope : kScopes) {
    const an::BreakdownTable table = an::compute_breakdown_table(results, scope);
    for (const an::RunBreakdown& b : table.per_task) put_breakdown(out, b);
    put_breakdown(out, table.total);
  }
  std::vector<std::string> tasks;
  for (const auto t : uucs::sim::kAllTasks) tasks.push_back(uucs::sim::task_name(t));
  tasks.emplace_back();  // "" = all tasks
  for (const std::string& task : tasks) {
    for (const uucs::Resource r : uucs::kStudyResources) {
      put_cell(out, an::compute_cell(results, task, r));
    }
  }
  for (const uucs::Resource r : uucs::kStudyResources) {
    put_km(out, an::aggregate_km(results, r));
  }
  for (const std::string& task : tasks) {
    put_offsets(out, an::summarize_offsets(results, task));
  }
  return out;
}

/// The same figure set from streaming aggregates.
std::string figures_from_aggregates(const an::StudyAccumulator& acc) {
  std::string out;
  for (const an::BreakdownScope scope : kScopes) {
    for (std::size_t t = 0; t < kTaskCount; ++t) put_breakdown(out, acc.breakdown(t, scope));
    put_breakdown(out, acc.breakdown_total(scope));
  }
  for (std::size_t t = 0; t <= an::StudyAccumulator::kAllTasks; ++t) {
    for (std::size_t r = 0; r < uucs::kStudyResources.size(); ++r) {
      put_cell(out, acc.cell(t, r));
    }
  }
  for (std::size_t r = 0; r < uucs::kStudyResources.size(); ++r) {
    put_km(out, acc.aggregate_km(r));
  }
  for (std::size_t t = 0; t <= an::StudyAccumulator::kAllTasks; ++t) {
    put_offsets(out, acc.offsets(t));
  }
  return out;
}

/// Aggregates digest: the accumulator's exact serialization (built from
/// the records on the in-memory path).
std::string aggregates_digest(const st::ControlledStudyOutput& out) {
  if (out.aggregates) return hex64(fnv1a(out.aggregates->serialize()));
  an::StudyAccumulator acc;
  for (const uucs::RunRecord& rec : out.results.records()) acc.add(rec);
  return hex64(fnv1a(acc.serialize()));
}

/// Every record's kv serialization, in store order.
std::string records_digest(const uucs::ResultStore& results) {
  std::uint64_t h = fnv1a("");
  std::string buf;
  for (const uucs::RunRecord& rec : results.records()) {
    buf.clear();
    rec.serialize_into(buf);
    h = fnv1a(buf, h);
  }
  return hex64(h);
}

struct Digests {
  std::uint64_t runs = 0;
  std::string aggregates;
  std::string figures;
  std::string records;  ///< traced runs only (in-memory path)

  bool operator==(const Digests& o) const {
    return runs == o.runs && aggregates == o.aggregates && figures == o.figures &&
           records == o.records;
  }
  std::string str() const {
    return uucs::strprintf("runs=%llu aggregates=%s figures=%s",
                           static_cast<unsigned long long>(runs), aggregates.c_str(),
                           figures.c_str()) +
           (records.empty() ? "" : " records=" + records);
  }
};

// --- the untimed reference: the real study call -----------------------------

struct RealRep {
  double outside_s = 0.0;    ///< study call - engine wall - merge (set-up work)
  double wait_s = 0.0;       ///< study call through the figure set
  double runs_per_s = 0.0;   ///< runs / EngineStats::wall_s
  double cpu_per_run_us = 0.0;  ///< process CPU, study call through figures
  Digests digests;
};

RealRep run_real_rep(const StudyShape& shape, const st::PopulationParams& params,
                     std::uint64_t seed, std::size_t jobs, bool want_records_digest) {
  const std::int64_t t1 = now_ns();
  const double cpu0 = process_cpu_s();
  st::ControlledStudyConfig cfg;
  cfg.participants = shape.users;
  cfg.seed = seed;
  cfg.jobs = jobs;
  cfg.streaming = shape.streaming;
  const st::ControlledStudyOutput out = st::run_controlled_study(cfg, params);
  const std::int64_t t2 = now_ns();
  const std::string figures = shape.streaming ? figures_from_aggregates(*out.aggregates)
                                              : figures_from_records(out.results);
  const std::int64_t t3 = now_ns();
  const double cpu1 = process_cpu_s();

  RealRep r;
  const double runs = static_cast<double>(std::max<std::size_t>(out.engine.runs_simulated, 1));
  r.outside_s = seconds(t2 - t1) - out.engine.wall_s - out.engine.merge_s;
  r.wait_s = seconds(t3 - t1);
  r.runs_per_s = out.engine.runs_per_s();
  r.cpu_per_run_us = (cpu1 - cpu0) / runs * 1e6;
  r.digests.runs = out.engine.runs_simulated;
  r.digests.aggregates = aggregates_digest(out);
  r.digests.figures = hex64(fnv1a(figures));
  if (want_records_digest && !shape.streaming) {
    r.digests.records = records_digest(out.results);
  }
  return r;
}

// --- the traced copy of the session driver ----------------------------------

/// controlled_study.cpp's TaskWorld: testcase pointers in ids() order.
struct TaskWorld {
  std::vector<const uucs::Testcase*> cases;
};

std::array<TaskWorld, kTaskCount> make_task_worlds(
    const std::array<uucs::TestcaseStore, kTaskCount>& testcases) {
  std::array<TaskWorld, kTaskCount> worlds;
  for (std::size_t t = 0; t < kTaskCount; ++t) {
    for (const std::string& id : testcases[t].ids()) {
      worlds[t].cases.push_back(&testcases[t].get(id));
    }
  }
  return worlds;
}

/// controlled_study.cpp's WorkerLocal: one streaming worker's pool-bound
/// key table, interned testcases and accumulator.
struct WorkerLocal {
  uucs::StringInterner* pool = nullptr;
  std::unique_ptr<uucs::sim::FlatRunKeys> keys;
  std::array<std::vector<uucs::InternedTestcase>, kTaskCount> interned;
  std::unique_ptr<an::StudyAccumulator> acc;

  void init(uucs::StringInterner& worker_pool, const std::array<TaskWorld, kTaskCount>& worlds) {
    pool = &worker_pool;
    keys = std::make_unique<uucs::sim::FlatRunKeys>(worker_pool);
    for (std::size_t t = 0; t < kTaskCount; ++t) {
      for (const uucs::Testcase* tc : worlds[t].cases) {
        interned[t].push_back(uucs::InternedTestcase{worker_pool.intern(tc->id()),
                                                     worker_pool.intern(tc->description())});
      }
    }
    acc = std::make_unique<an::StudyAccumulator>(worker_pool);
  }
};

struct SpanRec {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t id;  ///< job (user) index
};

/// Span totals of one engine worker; only its own thread writes it.
struct alignas(64) SlotLedger {
  std::int64_t job_ns = 0;       ///< whole session jobs
  std::int64_t simulate_ns = 0;  ///< RunSimulator::simulate on a copied Rng
  std::int64_t call_ns = 0;      ///< simulate_flat / simulate_record (+ run id)
  std::int64_t sink_ns = 0;      ///< StudyAccumulator::add / ResultStore::add
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::vector<SpanRec> spans;    ///< full spans for the first kSpanUsers users
};

constexpr std::size_t kSpanUsers = 1000;

/// controlled_study.cpp's UserSessionDriver, untraced-event variant, with a
/// span around each layer call. The RNG draw sequence is the original's:
/// the extra simulate() runs on a copy of the job's Rng, before or after
/// the real call on alternate runs so cache warmth biases neither side.
class TracedSessionDriver {
 public:
  TracedSessionDriver(const uucs::engine::SessionJob& job,
                      const st::ControlledStudyConfig& config,
                      const uucs::sim::RunSimulator& simulator,
                      const std::array<TaskWorld, kTaskCount>& worlds, uucs::Rng& rng,
                      uucs::sim::Simulation& sim, WorkerLocal* local, SlotLedger& ledger)
      : job_(job), config_(config), simulator_(simulator), worlds_(worlds), rng_(rng),
        sim_(sim), local_(local), ledger_(ledger), keep_spans_(job.index < kSpanUsers) {
    if (local_) {
      flat_ctx_ = simulator_.flat_context(*job_.user, *local_->keys, *local_->pool);
    } else {
      shard_.reserve(job_.tasks.size() * 12);
    }
  }

  uucs::ResultStore run() {
    if (!job_.tasks.empty()) begin_session();
    sim_.run_all();
    return std::move(shard_);
  }

  std::size_t runs() const { return runs_; }

 private:
  uucs::sim::Task task() const { return job_.tasks[task_idx_]; }
  const TaskWorld& world() const { return worlds_[static_cast<std::size_t>(task())]; }

  void span(const char* name, std::int64_t start, std::int64_t end) {
    if (keep_spans_) ledger_.spans.push_back(SpanRec{name, start, end - start, job_.index});
  }

  void begin_session() {
    order_.resize(world().cases.size());
    std::iota(order_.begin(), order_.end(), 0u);
    rng_.shuffle(order_);
    next_ = 0;
    elapsed_ = 0.0;
    first_run_ = true;
    schedule_next_run();
  }

  void schedule_next_run() {
    if (next_ == order_.size()) {
      rng_.shuffle(order_);
      next_ = 0;
    }
    const std::uint32_t pick = order_[next_++];
    const uucs::Testcase& tc = *world().cases[pick];
    const double gap =
        first_run_ ? 0.0
                   : rng_.lognormal(std::log(std::max(config_.mean_gap_s, 1e-9)) -
                                        config_.gap_sigma * config_.gap_sigma / 2.0,
                                    config_.gap_sigma);
    if (elapsed_ + gap + tc.duration() > config_.session_s) {
      end_session();
      return;
    }
    elapsed_ += gap;
    sim_.schedule_in(gap, uucs::sim::EventClass::kRunStart, std::string(),
                     [this, tcp = &tc, pick] { start_run(*tcp, pick); });
  }

  /// Times simulate() on a copy of the job's Rng and `call` (the real
  /// record-building call) on the Rng itself, in alternating order.
  template <typename Call>
  auto timed_pair(const uucs::Testcase& tc, const char* call_name, Call&& call) {
    uucs::Rng copy = rng_;
    const auto replay = [&] {
      const std::int64_t a = now_ns();
      simulator_.simulate(*job_.user, task(), tc, copy);
      const std::int64_t b = now_ns();
      ledger_.simulate_ns += b - a;
      span("simulate", a, b);
    };
    const bool replay_first = (ledger_.runs & 1) == 0;
    if (replay_first) replay();
    const std::int64_t a = now_ns();
    auto rec = call();
    const std::int64_t b = now_ns();
    ledger_.call_ns += b - a;
    span(call_name, a, b);
    if (!replay_first) replay();
    ++ledger_.runs;
    return rec;
  }

  void start_run(const uucs::Testcase& tc, std::uint32_t pick) {
    ++ledger_.events;
    if (local_) {
      start_run_flat(tc, local_->interned[static_cast<std::size_t>(task())][pick]);
      return;
    }
    uucs::RunRecord rec = timed_pair(tc, "simulate_record", [&] {
      return simulator_.simulate_record(
          *job_.user, task(), tc, rng_,
          uucs::strprintf("job-%05zu-%04zu", job_.index, local_serial_++));
    });
    const double offset = rec.offset_s;
    sim_.schedule_in(offset, uucs::sim::EventClass::kRunEnd, std::string(),
                     [this, rec = std::move(rec)]() mutable { end_run(std::move(rec)); });
  }

  void start_run_flat(const uucs::Testcase& tc, const uucs::InternedTestcase& itc) {
    uucs::FlatRunRecord rec = timed_pair(tc, "simulate_flat", [&] {
      return simulator_.simulate_flat(*job_.user, task(), tc, itc, rng_, std::string(),
                                      flat_ctx_, *local_->keys, *local_->pool);
    });
    const double offset = rec.offset_s;
    sim_.schedule_in(offset, uucs::sim::EventClass::kRunEnd, std::string(),
                     [this, rec = std::move(rec)]() mutable { end_run_flat(std::move(rec)); });
  }

  void end_run(uucs::RunRecord rec) {
    ++ledger_.events;
    elapsed_ += rec.offset_s;
    const std::int64_t a = now_ns();
    shard_.add(std::move(rec));
    const std::int64_t b = now_ns();
    ledger_.sink_ns += b - a;
    span("store_add", a, b);
    ++runs_;
    first_run_ = false;
    schedule_next_run();
  }

  void end_run_flat(uucs::FlatRunRecord rec) {
    ++ledger_.events;
    elapsed_ += rec.offset_s;
    const std::int64_t a = now_ns();
    local_->acc->add(rec);
    const std::int64_t b = now_ns();
    ledger_.sink_ns += b - a;
    span("accumulate", a, b);
    ++runs_;
    first_run_ = false;
    schedule_next_run();
  }

  void end_session() {
    if (++task_idx_ < job_.tasks.size()) begin_session();
  }

  const uucs::engine::SessionJob& job_;
  const st::ControlledStudyConfig& config_;
  const uucs::sim::RunSimulator& simulator_;
  const std::array<TaskWorld, kTaskCount>& worlds_;
  uucs::Rng& rng_;
  uucs::sim::Simulation& sim_;
  WorkerLocal* local_;
  SlotLedger& ledger_;
  bool keep_spans_;
  uucs::sim::RunSimulator::FlatRunContext flat_ctx_;

  uucs::ResultStore shard_;
  std::size_t task_idx_ = 0;
  std::vector<std::uint32_t> order_;
  std::size_t next_ = 0;
  double elapsed_ = 0.0;
  bool first_run_ = true;
  std::size_t local_serial_ = 0;
  std::size_t runs_ = 0;
};

struct TracedRep {
  double wait_s = 0.0;  ///< same window as RealRep::wait_s
  Metrics layers;
  Digests digests;
};

/// One traced repetition: the study call rebuilt from public pieces, then
/// the merge and the figure set, each stage timed from the outside.
TracedRep run_traced_rep(const StudyShape& shape, std::uint64_t seed, std::size_t jobs,
                         ChromeTrace* trace) {
  namespace eng = uucs::engine;
  const std::int64_t t0 = now_ns();
  const st::PopulationParams params = st::calibrate_population();
  const std::int64_t t1 = now_ns();

  st::ControlledStudyConfig cfg;
  cfg.participants = shape.users;
  cfg.seed = seed;
  cfg.jobs = jobs;
  cfg.streaming = shape.streaming;
  uucs::Rng root(cfg.seed);
  uucs::Rng pop_rng = root.fork(uucs::streams::kControlledPopulation);
  const std::vector<uucs::sim::UserProfile> users =
      st::generate_population(params, cfg.participants, pop_rng);
  const std::int64_t t2 = now_ns();

  const uucs::sim::HostModel host(cfg.host);
  const uucs::sim::RunSimulator simulator(
      host,
      {params.noise_rates[0], params.noise_rates[1], params.noise_rates[2],
       params.noise_rates[3]},
      params.nonblank_noise_scale);
  std::array<uucs::TestcaseStore, kTaskCount> testcases;
  for (const uucs::sim::Task t : uucs::sim::kAllTasks) {
    testcases[static_cast<std::size_t>(t)] = st::controlled_study_testcases(t);
  }
  const std::array<TaskWorld, kTaskCount> worlds = make_task_worlds(testcases);
  std::vector<eng::SessionJob> session_jobs =
      eng::make_user_session_jobs(users, root, uucs::streams::controlled_user);

  eng::SessionEngine engine(eng::EngineConfig{cfg.jobs, false});
  std::vector<WorkerLocal> locals(cfg.streaming ? engine.workers() : 0);
  std::vector<SlotLedger> ledgers(engine.workers());
  const std::size_t heap_before = mallinfo2().uordblks;
  const std::int64_t t3 = now_ns();
  std::vector<uucs::ResultStore> shards =
      engine.map<uucs::ResultStore>(session_jobs.size(), [&](eng::JobContext& ctx) {
        eng::SessionJob& job = session_jobs[ctx.index()];
        SlotLedger& ledger = ledgers[ctx.worker_slot()];
        WorkerLocal* local = nullptr;
        if (cfg.streaming) {
          local = &locals[ctx.worker_slot()];
          if (!local->pool) local->init(ctx.interner(), worlds);
        }
        const std::int64_t a = now_ns();
        TracedSessionDriver driver(job, cfg, simulator, worlds, job.rng, ctx.simulation(),
                                   local, ledger);
        uucs::ResultStore shard = driver.run();
        ctx.count_runs(driver.runs());
        const std::int64_t b = now_ns();
        ledger.job_ns += b - a;
        if (job.index < kSpanUsers) ledger.spans.push_back(SpanRec{"job", a, b - a, job.index});
        return shard;
      });
  const std::int64_t t4 = now_ns();
  const std::size_t heap_after = mallinfo2().uordblks;

  st::ControlledStudyOutput out;
  std::int64_t merge_ns = 0;
  std::int64_t renumber_ns = 0;
  if (cfg.streaming) {
    const std::int64_t a = now_ns();
    out.aggregates = std::make_unique<an::StudyAccumulator>();
    for (const WorkerLocal& local : locals) {
      if (local.acc) out.aggregates->merge(*local.acc);
    }
    merge_ns = now_ns() - a;
    engine.add_merge_time(seconds(merge_ns));
  } else {
    const std::int64_t a = now_ns();
    std::size_t total = 0;
    for (const uucs::ResultStore& shard : shards) total += shard.size();
    out.results.reserve(total);
    std::size_t run_serial = 0;
    for (uucs::ResultStore& shard : shards) {
      for (uucs::RunRecord& rec : shard.drain()) {
        rec.run_id = uucs::strprintf("run-%05zu", run_serial++);
        out.results.add(std::move(rec));
      }
    }
    renumber_ns = now_ns() - a;
  }
  out.engine = engine.stats();
  const std::int64_t t5 = now_ns();
  const std::string figures = cfg.streaming ? figures_from_aggregates(*out.aggregates)
                                            : figures_from_records(out.results);
  const std::int64_t t6 = now_ns();

  TracedRep r;
  r.wait_s = seconds(t6 - t1);
  r.digests.runs = out.engine.runs_simulated;
  r.digests.aggregates = aggregates_digest(out);
  r.digests.figures = hex64(fnv1a(figures));
  if (!cfg.streaming) r.digests.records = records_digest(out.results);

  SlotLedger sum;
  for (const SlotLedger& l : ledgers) {
    sum.job_ns += l.job_ns;
    sum.simulate_ns += l.simulate_ns;
    sum.call_ns += l.call_ns;
    sum.sink_ns += l.sink_ns;
    sum.runs += l.runs;
    sum.events += l.events;
  }
  const double runs = static_cast<double>(std::max<std::uint64_t>(sum.runs, 1));
  const double cpu_ns = out.engine.cpu_s * 1e9;
  const double record_ns =
      static_cast<double>(sum.call_ns - sum.simulate_ns) / runs;  // call - simulate
  const double sink_ns = static_cast<double>(sum.sink_ns) / runs;
  Metrics& m = r.layers;
  m.set("study.population_s", seconds((t1 - t0) + (t2 - t1)), "s");
  m.set("engine.idle_frac",
        1.0 - static_cast<double>(sum.job_ns) /
                  (static_cast<double>(engine.workers()) * out.engine.wall_s * 1e9),
        "frac");
  m.set("engine.cpu_per_run_ns", cpu_ns / runs, "ns");
  m.set("sim.simulate_ns.mean", static_cast<double>(sum.simulate_ns) / runs, "ns");
  m.set("sim.event_ns.mean",
        static_cast<double>(sum.job_ns - sum.simulate_ns - sum.call_ns - sum.sink_ns) /
            static_cast<double>(std::max<std::uint64_t>(sum.events, 1)),
        "ns");
  m.set("sim.events_per_run", static_cast<double>(sum.events) / runs, "count");
  m.set("testcase.flat_record_ns.mean", cfg.streaming ? record_ns : 0.0, "ns");
  m.set("testcase.record_ns.mean", cfg.streaming ? 0.0 : record_ns, "ns");
  m.set("testcase.store_add_ns.mean", cfg.streaming ? 0.0 : sink_ns, "ns");
  m.set("testcase.bytes_per_record",
        heap_after > heap_before ? static_cast<double>(heap_after - heap_before) / runs : 0.0,
        "B");
  m.set("analysis.accumulate_ns.mean", cfg.streaming ? sink_ns : 0.0, "ns");
  m.set("analysis.merge_ms", static_cast<double>(merge_ns) * 1e-6, "ms");
  m.set("study.renumber_s", seconds(renumber_ns), "s");
  m.set("analysis.figures_s", seconds(t6 - t5), "s");
  m.set("ledger.coverage", cpu_ns > 0 ? static_cast<double>(sum.job_ns) / cpu_ns : 0.0,
        "frac");

  if (trace != nullptr) {
    trace->complete("calibrate_population", "main", t0, t1 - t0, 0);
    trace->complete("generate_population", "main", t1, t2 - t1, 0);
    trace->complete("engine_map", "main", t3, t4 - t3, 0);
    trace->complete(cfg.streaming ? "merge" : "renumber", "main", t4, t5 - t4, 0);
    trace->complete("figures", "main", t5, t6 - t5, 0);
    static const char* const kWorkerTids[] = {"worker-0", "worker-1", "worker-2",
                                              "worker-3", "worker-4", "worker-5",
                                              "worker-6", "worker-7", "worker-n"};
    for (std::size_t s = 0; s < ledgers.size(); ++s) {
      const char* tid = kWorkerTids[std::min<std::size_t>(s, 8)];
      for (const SpanRec& sp : ledgers[s].spans) {
        trace->complete(sp.name, tid, sp.start_ns, sp.dur_ns, sp.id);
      }
    }
  }
  return r;
}

// --- expected digests ---------------------------------------------------------

/// Looks up "<workload> <users> <runs> <aggregates> <figures>" in the
/// expected-digest file; nullopt when the file has no line for the shape.
std::optional<Digests> expected_digests(const std::string& path, const std::string& workload,
                                        std::size_t users) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::size_t n = 0;
    Digests d;
    if (!(fields >> name >> n >> d.runs >> d.aggregates >> d.figures)) continue;
    if (name == workload && n == users) return d;
  }
  return std::nullopt;
}

}  // namespace

RunResult run_study(const Options& opt) {
  const StudyShape shape = study_shape(opt);
  const std::size_t jobs = usable_cpus();
  RunResult result;
  result.busy_threads = jobs;

  std::vector<RealRep> reals;
  std::vector<TracedRep> traced;
  std::vector<double> calibrations;
  st::PopulationParams params;
  ChromeTrace trace;
  const std::int64_t origin = now_ns();
  // Traced runs alternate real and traced repetitions: the real one is the
  // byte-identity reference and the base of trace.overhead_frac.
  const std::size_t min_reps = opt.trace ? 1 : shape.min_reps;
  while (reals.size() < min_reps || seconds(now_ns() - origin) < opt.seconds) {
    // Calibration takes no input, so three timed calls give set-up's median
    // and later repetitions reuse the result.
    if (calibrations.size() < 3) {
      const std::int64_t t0 = now_ns();
      params = st::calibrate_population();
      calibrations.push_back(seconds(now_ns() - t0));
    }
    reals.push_back(run_real_rep(shape, params, opt.seed, jobs, opt.trace));
    result.attempted += reals.back().digests.runs;
    if (!opt.trace) continue;
    traced.push_back(run_traced_rep(shape, opt.seed, jobs,
                                    traced.empty() && !opt.trace_out.empty() ? &trace
                                                                             : nullptr));
    result.attempted += traced.back().digests.runs;
    if (!(traced.back().digests == reals.back().digests)) {
      ++result.failed;
      result.fail("traced driver copy diverges from run_controlled_study: copy " +
                  traced.back().digests.str() + " vs real " + reals.back().digests.str());
    }
  }

  // Determinism gate: every repetition of one seed gives the same output,
  // and the default seed gives the checked-in digests.
  Digests first = reals.front().digests;
  first.records.clear();
  for (RealRep& r : reals) {
    Digests d = r.digests;
    d.records.clear();
    if (!(d == first)) {
      ++result.failed;
      result.fail("repetitions disagree: " + d.str() + " vs " + first.str());
    }
  }
  std::string expected_note = "not checked (seed is not 2004)";
  if (opt.seed == 2004) {
    const std::optional<Digests> want = expected_digests(opt.expected, opt.workload, shape.users);
    if (!want) {
      result.fail("no expected digests for " + opt.workload + " " +
                  std::to_string(shape.users) + " users in " + opt.expected +
                  "; computed " + first.str());
    } else if (!(*want == first)) {
      result.fail("digests differ from " + opt.expected + ": got " + first.str() +
                  ", expected " + want->str());
    } else {
      expected_note = "match " + opt.expected;
    }
  }

  std::vector<double> outside, wait, rate, cpu;
  std::string wait_list, rate_list;
  for (const RealRep& r : reals) {
    outside.push_back(r.outside_s);
    wait.push_back(r.wait_s);
    rate.push_back(r.runs_per_s);
    cpu.push_back(r.cpu_per_run_us);
    wait_list += (wait_list.empty() ? "" : ", ") + json_num(r.wait_s * 1e3);
    rate_list += (rate_list.empty() ? "" : ", ") + json_num(r.runs_per_s);
  }
  Metrics& e2e = result.end_to_end;
  e2e.set("latency_p50_ms", median(wait) * 1e3, "ms");
  e2e.set("throughput_per_s", median(rate), "1/s");
  e2e.set("peak_rss_mib", peak_rss_mib(), "MiB");
  e2e.set("setup_s", median(calibrations) + median(outside), "s");

  if (opt.trace) {
    // Per-layer numbers: the median of each over the traced repetitions.
    std::vector<double> traced_wait;
    for (const TracedRep& t : traced) traced_wait.push_back(t.wait_s);
    for (const Metric& m : traced.front().layers.items()) {
      std::vector<double> values;
      for (const TracedRep& t : traced) {
        for (const Metric& x : t.layers.items()) {
          if (x.name == m.name) values.push_back(x.value);
        }
      }
      result.per_layer.set(m.name, median(values), m.unit);
    }
    result.per_layer.set("trace.overhead_frac", median(traced_wait) / median(wait) - 1.0,
                         "frac");
    result.per_layer.set("study.cpu_per_run_ns", median(cpu) * 1e3, "ns");
    if (!trace.empty()) trace.write(opt.trace_out, origin);
  }

  result.report = uucs::strprintf(
      "\"users\": %zu, \"streaming\": %s, \"jobs\": %zu, \"reps\": %zu, "
      "\"traced_reps\": %zu, \"runs_per_rep\": %llu, \"digests\": %s, "
      "\"expected\": %s, \"calibrate_s\": %s, \"cpu_per_run_us\": %s, \"wait_ms\": [%s], "
      "\"runs_per_s\": [%s]",
      shape.users, shape.streaming ? "true" : "false", jobs, reals.size(), traced.size(),
      static_cast<unsigned long long>(first.runs), json_str(first.str()).c_str(),
      json_str(expected_note).c_str(), json_num(median(calibrations)).c_str(),
      json_num(median(cpu)).c_str(),
      wait_list.c_str(), rate_list.c_str());
  return result;
}

}  // namespace uucs_bench
