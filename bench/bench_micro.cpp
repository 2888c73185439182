/// google-benchmark microbenchmarks for the hot paths of the library: the
/// codec the stores and the wire protocol share, the queueing-trace
/// generators behind the Internet suite, the discrete-event engine, the CDF
/// machinery the analysis pipeline leans on, and a full simulated run.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/breakdown.hpp"
#include "analysis/metrics.hpp"
#include "analysis/offsets.hpp"
#include "server/protocol.hpp"
#include "util/crc32.hpp"
#include "analysis/streaming.hpp"
#include "engine/session_engine.hpp"
#include "exerciser/failpoints.hpp"
#include "monitor/sampler.hpp"
#include "server/fault_injection.hpp"
#include "server/inproc.hpp"
#include "server/server.hpp"
#include "sim/event_queue.hpp"
#include "sim/user_model.hpp"
#include "stats/ecdf.hpp"
#include "stats/special.hpp"
#include "study/controlled_study.hpp"
#include "study/population.hpp"
#include "testcase/suite.hpp"
#include "util/fs.hpp"
#include "util/interner.hpp"
#include "util/journal.hpp"
#include "util/kvtext.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

void BM_RngUniform(benchmark::State& state) {
  uucs::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngPoisson(benchmark::State& state) {
  uucs::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(static_cast<double>(state.range(0))));
  }
}
BENCHMARK(BM_RngPoisson)->Arg(3)->Arg(100);

void BM_KvRoundTrip(benchmark::State& state) {
  const auto tc = uucs::make_ramp_testcase(uucs::Resource::kCpu, 2.0,
                                           static_cast<double>(state.range(0)));
  for (auto _ : state) {
    const std::string text = uucs::kv_serialize({tc.to_record()});
    const auto records = uucs::kv_parse(text);
    benchmark::DoNotOptimize(records.size());
  }
  state.SetLabel(std::to_string(state.range(0)) + "s testcase");
}
BENCHMARK(BM_KvRoundTrip)->Arg(120)->Arg(1200);

std::string crc_test_buffer(std::size_t n) {
  // Mixed bytes so table lookups don't stay in one cache line.
  std::string data(n, '\0');
  std::uint32_t x = 0x12345678u;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    data[i] = static_cast<char>(x >> 24);
  }
  return data;
}

void BM_Crc32Bytewise(benchmark::State& state) {
  // The original reference loop: one table lookup per byte. Kept as
  // the baseline the perf-smoke guard measures BM_Crc32 against (>= 4x).
  const std::string data = crc_test_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(uucs::crc32_bytewise(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel("bytewise");
}
BENCHMARK(BM_Crc32Bytewise)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  // The dispatched production path every journal frame and replay pays:
  // slice-by-16 (or the ARMv8 CRC32 instructions where the IEEE polynomial
  // is available in hardware — x86's SSE4.2 crc32 is CRC32C and would
  // change the journal bytes, so it is deliberately not used).
  const std::string data = crc_test_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(uucs::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(uucs::crc32_impl_name());
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536);

std::string bench_sync_request_text() {
  uucs::SyncRequest req;
  req.guid = uucs::Guid::parse("0123456789abcdef0123456789abcdef");
  req.sync_seq = 7;
  for (int r = 0; r < 2; ++r) {
    uucs::RunRecord rec;
    rec.run_id = "bench/" + std::to_string(r);
    rec.client_guid = "0123456789abcdef0123456789abcdef";
    rec.testcase_id = "memory-ramp-x1-t120";
    rec.task = "bench";
    rec.discomforted = (r % 2) == 0;
    rec.offset_s = 10.0 + r;
    req.results.push_back(std::move(rec));
  }
  return uucs::encode_sync_request(req);
}

void BM_KvParseRecords(benchmark::State& state) {
  // The owning parse: materializes a vector<KvRecord> (heap strings for
  // every key and value) per call. The cold paths still use it.
  const std::string text = bench_sync_request_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(uucs::kv_parse(text).size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_KvParseRecords);

void BM_KvParseDoc(benchmark::State& state) {
  // The zero-copy parse the dispatch hot path uses: string_views into the
  // input plus recycled pair/record vectors — no allocation once warm.
  const std::string text = bench_sync_request_text();
  uucs::KvDoc doc;
  doc.parse(text);  // warm the arena
  for (auto _ : state) {
    doc.parse(text);
    benchmark::DoNotOptimize(doc.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_KvParseDoc);

void BM_PeekRequest(benchmark::State& state) {
  // The admission-control sniff: op + declared result count from the first
  // lines of a frame, without parsing the body.
  const std::string text = bench_sync_request_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(uucs::peek_request(text).op);
  }
}
BENCHMARK(BM_PeekRequest);

void BM_SyncResponseEncodeInto(benchmark::State& state) {
  // Response encode into a recycled buffer. Arg 0: testcase serialization
  // cache cold (re-formats every "%.17g" sample). Arg 1: warm, as served
  // from TestcaseStore — the production configuration.
  uucs::SyncResponse response;
  response.accepted_results = 2;
  response.stored_run_ids = {"bench/0", "bench/1"};
  response.server_testcase_count = 2;
  response.new_testcases.push_back(
      uucs::make_ramp_testcase(uucs::Resource::kMemory, 1.0, 120.0));
  response.new_testcases.push_back(
      uucs::make_ramp_testcase(uucs::Resource::kCpu, 0.5, 0.05, 60.0));
  if (state.range(0) != 0) {
    for (auto& tc : response.new_testcases) tc.warm_encoded_record();
  }
  std::string out;
  uucs::encode_sync_response_into(response, out);  // warm the buffer
  std::size_t bytes = out.size();
  for (auto _ : state) {
    out.clear();
    uucs::encode_sync_response_into(response, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  state.SetLabel(state.range(0) ? "warm testcase cache" : "cold testcase cache");
}
BENCHMARK(BM_SyncResponseEncodeInto)->Arg(0)->Arg(1);

void BM_TestcaseStoreRandomSample(benchmark::State& state) {
  // The hot-sync handout: a batch of 16 for a client that knows nothing,
  // from the first range(0) testcases of the seeded 2140-testcase suite.
  uucs::Rng suite_rng(1);
  const auto suite = uucs::generate_internet_suite(uucs::SuiteSpec{}, suite_rng);
  uucs::TestcaseStore catalog;
  const auto ids = suite.ids();
  for (std::size_t i = 0; i < ids.size() && i < static_cast<std::size_t>(state.range(0)); ++i) {
    catalog.add(suite.get(ids[i]));
  }
  uucs::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.random_sample(16, rng).size());
  }
  state.SetLabel(std::to_string(catalog.size()) + " testcases");
}
BENCHMARK(BM_TestcaseStoreRandomSample)->Arg(64)->Arg(2140);

void BM_JournalBatchBuild(benchmark::State& state) {
  // Group-commit batch framing: header + payload + CRC for range(0)
  // entries appended into one recycled buffer — the pure CPU share of an
  // append_batch, with the write(2)/fsync(2) left out.
  std::vector<std::string> payloads;
  for (int i = 0; i < state.range(0); ++i) {
    payloads.push_back("entry " + std::to_string(i) + std::string(250, 'z'));
  }
  std::string batch;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    batch.clear();
    for (const auto& p : payloads) uucs::Journal::frame_into(batch, p);
    benchmark::DoNotOptimize(batch.size());
  }
  bytes = static_cast<std::int64_t>(batch.size());
  state.SetBytesProcessed(state.iterations() * bytes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JournalBatchBuild)->Arg(64)->Arg(512);

void BM_ExpExpTrace(benchmark::State& state) {
  uucs::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uucs::make_expexp(4.0, 2.0, static_cast<double>(state.range(0)), rng));
  }
}
BENCHMARK(BM_ExpExpTrace)->Arg(120)->Arg(1200);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    uucs::VirtualClock clock;
    uucs::sim::EventQueue queue(clock);
    uucs::Rng rng(3);
    std::size_t fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      queue.schedule_at(rng.uniform(0.0, 1000.0), [&fired] { ++fired; });
    }
    queue.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(10000);

void BM_EventQueueScheduleStep(benchmark::State& state) {
  // Steady-state schedule+step pairs through the (time, class, seq) keyed
  // heap — the self-rescheduling shape every ported driver uses. range(0)
  // is the standing queue depth the new event competes against.
  uucs::VirtualClock clock;
  uucs::sim::EventQueue queue(clock);
  queue.set_max_events(std::numeric_limits<std::size_t>::max());
  uucs::Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    queue.schedule_in(1e12 + i, [] {});  // standing backlog, never fires
  }
  const std::array<uucs::sim::EventClass, 4> classes = {
      uucs::sim::EventClass::kSync, uucs::sim::EventClass::kRunStart,
      uucs::sim::EventClass::kFeedback, uucs::sim::EventClass::kRunEnd};
  std::size_t fired = 0;
  std::size_t n = 0;
  for (auto _ : state) {
    queue.schedule_in(rng.uniform(0.0, 1.0), classes[n++ % classes.size()],
                      [&fired] { ++fired; });
    queue.step();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueScheduleStep)->Arg(0)->Arg(1000)->Arg(100000);

void BM_EventQueueChurnOutline(benchmark::State& state) {
  // Same churn with handlers past HandlerArena::kInlineBytes: prices the
  // size-class slab path (freelist pop/push) instead of the inline slots.
  struct Payload {
    std::array<double, 16> values{};
  };
  for (auto _ : state) {
    uucs::VirtualClock clock;
    uucs::sim::EventQueue queue(clock);
    uucs::Rng rng(3);
    std::size_t fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      Payload p;
      p.values[0] = static_cast<double>(i);
      queue.schedule_at(rng.uniform(0.0, 1000.0),
                        [&fired, p] { fired += p.values[0] >= 0.0; });
    }
    queue.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueChurnOutline)->Arg(1000)->Arg(10000);

void BM_DiscomfortCdfMetrics(benchmark::State& state) {
  uucs::Rng rng(5);
  uucs::stats::DiscomfortCdf cdf;
  for (int i = 0; i < state.range(0); ++i) {
    if (rng.bernoulli(0.7)) {
      cdf.add_discomfort(rng.lognormal(0.3, 0.5));
    } else {
      cdf.add_exhausted();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdf.level_at_fraction(0.05));
    benchmark::DoNotOptimize(cdf.mean_discomfort_level());
  }
}
BENCHMARK(BM_DiscomfortCdfMetrics)->Arg(300)->Arg(3000);

void BM_StudentTQuantile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(uucs::stats::student_t_quantile(0.975, 17.0));
  }
}
BENCHMARK(BM_StudentTQuantile);

void BM_SimulatedRun(benchmark::State& state) {
  static const uucs::sim::HostModel host{uucs::HostSpec::paper_study_machine()};
  uucs::sim::RunSimulator sim(host, {0.0, 0.0, 0.002, 0.003});
  uucs::sim::UserProfile user;
  user.user_id = "bench";
  for (auto t : uucs::sim::kAllTasks) {
    for (auto r : uucs::kStudyResources) user.set_threshold(t, r, 1.0);
  }
  const auto tc = uucs::make_ramp_testcase(uucs::Resource::kCpu, 2.0, 120.0);
  uucs::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.simulate(user, uucs::sim::Task::kQuake, tc, rng));
  }
}
BENCHMARK(BM_SimulatedRun);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  // Per-task dispatch overhead of the bounded work queue: submit trivial
  // tasks and wait for the pool to drain. items/s ~ dispatch throughput.
  uucs::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  constexpr int kBatch = 4096;
  for (auto _ : state) {
    std::atomic<int> done{0};
    for (int i = 0; i < kBatch; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ThreadPoolDispatchBulk(benchmark::State& state) {
  // The batched twin of BM_ThreadPoolDispatch: one lock per queue refill
  // instead of one per task. The engine's session fan-out uses this path.
  uucs::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  constexpr int kBatch = 4096;
  for (auto _ : state) {
    std::atomic<int> done{0};
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      tasks.push_back([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.submit_bulk(tasks);
    pool.wait_idle();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ThreadPoolDispatchBulk)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateRecordMap(benchmark::State& state) {
  // The allocation-heavy record builder the non-streaming path uses: two
  // std::maps of heap strings per run.
  static const uucs::sim::HostModel host{uucs::HostSpec::paper_study_machine()};
  uucs::sim::RunSimulator sim(host, {0.0, 0.0, 0.002, 0.003});
  uucs::sim::UserProfile user;
  user.user_id = "bench";
  for (auto t : uucs::sim::kAllTasks) {
    for (auto r : uucs::kStudyResources) user.set_threshold(t, r, 1.0);
  }
  const auto tc = uucs::make_ramp_testcase(uucs::Resource::kCpu, 2.0, 120.0);
  uucs::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.simulate_record(user, uucs::sim::Task::kQuake, tc, rng, "bench-run"));
  }
}
BENCHMARK(BM_SimulateRecordMap);

void BM_SimulateRecordFlat(benchmark::State& state) {
  // The flat hot-path twin: interned ids + inline arrays, no maps. Same RNG
  // draws as BM_SimulateRecordMap; the delta is pure record-building cost.
  static const uucs::sim::HostModel host{uucs::HostSpec::paper_study_machine()};
  uucs::sim::RunSimulator sim(host, {0.0, 0.0, 0.002, 0.003});
  uucs::sim::UserProfile user;
  user.user_id = "bench";
  for (auto t : uucs::sim::kAllTasks) {
    for (auto r : uucs::kStudyResources) user.set_threshold(t, r, 1.0);
  }
  const auto tc = uucs::make_ramp_testcase(uucs::Resource::kCpu, 2.0, 120.0);
  const uucs::InternedTestcase itc{
      uucs::StringInterner::global().intern(tc.id()),
      uucs::StringInterner::global().intern(tc.description())};
  const auto ctx = sim.flat_context(user);
  uucs::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_flat(
        user, uucs::sim::Task::kQuake, tc, itc, rng, "bench-run", ctx));
  }
}
BENCHMARK(BM_SimulateRecordFlat);

void BM_InternerGlobalHit(benchmark::State& state) {
  // intern() hit on the process-global synchronized pool: every call takes
  // the pool mutex even uncontended. Run with ->Threads(4) the same lock
  // is contended, which is exactly what the sharded drivers avoid by
  // giving each engine worker its own unsynchronized pool.
  auto& pool = uucs::StringInterner::global();
  pool.intern("bench-interner-hot-key");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.intern("bench-interner-hot-key"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InternerGlobalHit)->Threads(1)->Threads(4);

void BM_InternerLocalHit(benchmark::State& state) {
  // The worker-pool shape: an unsynchronized StringInterner instance owned
  // by one thread, as each SessionEngine WorkerSlot holds. No mutex in the
  // hit path, and per-thread instances mean ->Threads(4) scales instead of
  // serializing on a shared lock.
  thread_local uucs::StringInterner pool;
  pool.intern("bench-interner-hot-key");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.intern("bench-interner-hot-key"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InternerLocalHit)->Threads(1)->Threads(4);

void BM_StudyAccumulatorAdd(benchmark::State& state) {
  // Streaming-aggregation absorb cost per flat record (classification is
  // cached by interned testcase id after the first sighting).
  static const uucs::sim::HostModel host{uucs::HostSpec::paper_study_machine()};
  uucs::sim::RunSimulator sim(host, {0.0, 0.0, 0.002, 0.003});
  uucs::sim::UserProfile user;
  user.user_id = "bench";
  for (auto t : uucs::sim::kAllTasks) {
    for (auto r : uucs::kStudyResources) user.set_threshold(t, r, 1.0);
  }
  const auto tc = uucs::make_ramp_testcase(uucs::Resource::kCpu, 2.0, 120.0);
  const uucs::InternedTestcase itc{
      uucs::StringInterner::global().intern(tc.id()),
      uucs::StringInterner::global().intern(tc.description())};
  const auto ctx = sim.flat_context(user);
  uucs::Rng rng(11);
  const uucs::FlatRunRecord rec = sim.simulate_flat(
      user, uucs::sim::Task::kQuake, tc, itc, rng, "bench-run", ctx);
  uucs::analysis::StudyAccumulator acc;
  for (auto _ : state) {
    acc.add(rec);
  }
  benchmark::DoNotOptimize(acc.runs());
}
BENCHMARK(BM_StudyAccumulatorAdd);

/// The figure set the study workloads read off an in-memory store: both
/// Fig 9 breakdown tables, the 15 cells of Figs 10-16, the three
/// Kaplan-Meier curves and the five offset summaries.
std::size_t figure_set(const uucs::ResultStore& results) {
  std::size_t sink = 0;
  for (const auto scope : {uucs::analysis::BreakdownScope::kCpuAndBlank,
                           uucs::analysis::BreakdownScope::kAllRuns}) {
    sink += uucs::analysis::compute_breakdown_table(results, scope).total.total();
  }
  std::vector<std::string> tasks;
  for (const auto t : uucs::sim::kAllTasks) tasks.push_back(uucs::sim::task_name(t));
  tasks.emplace_back();  // "" = all tasks
  for (const std::string& task : tasks) {
    for (const auto r : uucs::kStudyResources) {
      sink += uucs::analysis::compute_cell(results, task, r).df_count;
    }
  }
  for (const auto r : uucs::kStudyResources) {
    sink += uucs::analysis::aggregate_km(results, r).curve_points().size();
  }
  for (const std::string& task : tasks) {
    if (const auto o = uucs::analysis::summarize_offsets(results, task)) sink += o->n;
  }
  return sink;
}

void BM_FigureSetInMemory(benchmark::State& state) {
  // The figure set over a 2k-user controlled study's ~68k map-based
  // records. reserve() is a mutator, so every iteration starts from a
  // store without a run index and pays for building it.
  static const uucs::study::PopulationParams params =
      uucs::study::calibrate_population();
  uucs::study::ControlledStudyConfig config;
  config.participants = 2000;
  config.seed = 2004;
  config.jobs = 1;
  uucs::ResultStore store = uucs::study::run_controlled_study(config, params).results;
  for (auto _ : state) {
    store.reserve(store.size());
    benchmark::DoNotOptimize(figure_set(store));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_FigureSetInMemory)->Unit(benchmark::kMillisecond);

void BM_FigureSetStreamingKm(benchmark::State& state) {
  // The three Kaplan-Meier curves of the streaming figure set, from the
  // merged accumulator of a 20k-user streaming study (~680k runs).
  static const uucs::study::PopulationParams params =
      uucs::study::calibrate_population();
  uucs::study::ControlledStudyConfig config;
  config.participants = 20000;
  config.seed = 2004;
  config.jobs = 0;
  config.streaming = true;
  const auto out = uucs::study::run_controlled_study(config, params);
  for (auto _ : state) {
    std::size_t points = 0;
    for (std::size_t r = 0; r < uucs::kStudyResources.size(); ++r) {
      points += out.aggregates->aggregate_km(r).curve_points().size();
    }
    benchmark::DoNotOptimize(points);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.aggregates->runs()));
}
BENCHMARK(BM_FigureSetStreamingKm)->Unit(benchmark::kMillisecond);

void BM_EngineSessionsPerSec(benchmark::State& state) {
  // End-to-end controlled-study session throughput through the
  // SessionEngine at 1/2/4/8 workers. Output is bit-identical across
  // worker counts; only wall-clock should move (on multi-core hosts).
  static const uucs::study::PopulationParams params =
      uucs::study::calibrate_population();
  uucs::study::ControlledStudyConfig config;
  config.participants = 64;
  config.seed = 7;
  config.jobs = static_cast<std::size_t>(state.range(0));
  std::size_t sessions = 0;
  for (auto _ : state) {
    const auto out = uucs::study::run_controlled_study(config, params);
    sessions = out.engine.jobs_executed;
    benchmark::DoNotOptimize(out.results.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sessions));
  state.SetLabel(std::to_string(state.range(0)) + " workers");
}
BENCHMARK(BM_EngineSessionsPerSec)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ControlledStudyEventDriven(benchmark::State& state) {
  // The full event-driven controlled study on one worker — every run is a
  // run-start/run-end event pair through sim::Simulation. Arg toggles the
  // trace layer, so the delta is the cost of recording (label formatting +
  // trace vector) per event; with tracing off it must price like the old
  // hand-rolled loop.
  static const uucs::study::PopulationParams params =
      uucs::study::calibrate_population();
  uucs::study::ControlledStudyConfig config;
  config.participants = 16;
  config.seed = 7;
  config.jobs = 1;
  config.trace = state.range(0) != 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto out = uucs::study::run_controlled_study(config, params);
    runs = out.results.size();
    benchmark::DoNotOptimize(out.results.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(runs));
  state.SetLabel(config.trace ? "traced" : "untraced");
}
BENCHMARK(BM_ControlledStudyEventDriven)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_JournalAppend(benchmark::State& state) {
  // Durable-append cost: frame + CRC + write + fsync per entry. The fsync
  // dominates, and it is the price every run record / accepted result pays
  // before it is acknowledged. range(0) is the payload size in bytes.
  uucs::TempDir dir;
  uucs::Journal journal = uucs::Journal::open(dir.file("bench.journal"));
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    journal.append(payload);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JournalAppend)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_JournalRecover(benchmark::State& state) {
  // Crash-recovery cost: reopen a journal of range(0) entries and CRC-check
  // every frame. This is the startup tax after an unclean shutdown.
  uucs::TempDir dir;
  const std::string path = dir.file("bench.journal");
  {
    uucs::Journal journal = uucs::Journal::open(path);
    std::vector<std::string> batch;
    for (int i = 0; i < state.range(0); ++i) {
      batch.push_back("entry " + std::to_string(i) + std::string(100, 'y'));
    }
    journal.append_batch(std::move(batch));
  }
  for (auto _ : state) {
    uucs::Journal journal = uucs::Journal::open(path);
    benchmark::DoNotOptimize(journal.entries().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JournalRecover)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_FaultyChannelCleanOverhead(benchmark::State& state) {
  // What the fault decorator costs when no fault fires: one RNG draw and a
  // counter bump per op, on top of the in-process queue round trip. The
  // baseline (Arg 0) is the bare channel; Arg 1 wraps it in a FaultyChannel
  // drawing from a seeded schedule whose probabilities are all zero.
  class Borrowed final : public uucs::MessageChannel {
   public:
    explicit Borrowed(uucs::MessageChannel& inner) : inner_(inner) {}
    void write(const std::string& m) override { inner_.write(m); }
    std::optional<std::string> read() override { return inner_.read(); }
    void close() override { inner_.close(); }

   private:
    uucs::MessageChannel& inner_;
  };
  uucs::InProcChannelPair pair;
  std::unique_ptr<uucs::MessageChannel> channel =
      std::make_unique<Borrowed>(pair.a());
  if (state.range(0) != 0) {
    auto schedule = std::make_shared<uucs::FaultSchedule>(
        uucs::FaultSchedule::seeded(1, uucs::FaultProfile{}));
    channel = std::make_unique<uucs::FaultyChannel>(std::move(channel),
                                                    std::move(schedule));
  }
  const std::string request(256, 'q');
  for (auto _ : state) {
    channel->write(request);
    benchmark::DoNotOptimize(pair.b().read());
    pair.b().write(request);
    benchmark::DoNotOptimize(channel->read());
  }
  state.SetLabel(state.range(0) ? "faulty (no faults)" : "bare channel");
}
BENCHMARK(BM_FaultyChannelCleanOverhead)->Arg(0)->Arg(1);

void BM_HostFailpointGuard(benchmark::State& state) {
  // What the host-failpoint check costs per disk write. Arg 0: disarmed —
  // the guard the live client always pays when a failpoints object is
  // wired in (one relaxed atomic load). Arg 1: armed with an all-clean
  // seeded schedule — mutex + RNG draw + stats bump, the chaos-host price.
  uucs::HostFailpoints fp;
  if (state.range(0) != 0) {
    fp.arm(uucs::HostFaultSchedule::seeded(1, uucs::HostFaultProfile{}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp.on_disk_write().kind);
  }
  state.SetLabel(state.range(0) ? "armed (no faults)" : "disarmed");
}
BENCHMARK(BM_HostFailpointGuard)->Arg(0)->Arg(1);

void BM_MemoryPressureProbe(benchmark::State& state) {
  // One /proc/meminfo (+ cgroup v2) pressure reading — paid once per
  // pressure_check_interval_s by the memory exerciser during a run.
  for (auto _ : state) {
    benchmark::DoNotOptimize(uucs::read_memory_pressure());
  }
}
BENCHMARK(BM_MemoryPressureProbe)->Unit(benchmark::kMicrosecond);

void BM_HotSyncDispatch(benchmark::State& state) {
  // Server-side hot sync with two fresh results per request, with (Arg 1)
  // and without (Arg 0) the fsync'd journal attached — the durability tax
  // on the accept path.
  uucs::TempDir dir;
  uucs::UucsServer server(1, 4);
  server.add_testcase(uucs::make_ramp_testcase(uucs::Resource::kCpu, 1.0, 120.0));
  if (state.range(0) != 0) server.attach_journal(dir.file("server.journal"));
  const uucs::Guid guid =
      server.register_client(uucs::HostSpec::paper_study_machine(), 0.0);
  std::uint64_t serial = 0;
  for (auto _ : state) {
    uucs::SyncRequest request;
    request.guid = guid;
    request.sync_seq = serial + 1;
    for (int i = 0; i < 2; ++i) {
      uucs::RunRecord r;
      r.run_id = "bench/" + std::to_string(serial++);
      r.testcase_id = "cpu-ramp-x1-t120";
      r.task = "bench";
      r.offset_s = 1.0;
      request.results.push_back(std::move(r));
    }
    benchmark::DoNotOptimize(server.hot_sync(request).accepted_results);
  }
  state.SetLabel(state.range(0) ? "journaled" : "in-memory");
}
BENCHMARK(BM_HotSyncDispatch)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_UploadDispatch(benchmark::State& state) {
  // One ingest-upload sync as an IngestServer worker handles it: decode,
  // dedup, store, journal-entry build and response encode of 6 real
  // controlled-study records, through dispatch_request_deferred with a
  // committer attached (its thread writes and fsyncs the entries beside the
  // loop). Requests are encoded 1024 at a time with the timer paused. A
  // fixed iteration count bounds the records the server keeps.
  uucs::study::ControlledStudyConfig cfg;
  cfg.participants = 4;
  cfg.jobs = 1;
  const std::vector<uucs::RunRecord> pool =
      uucs::study::run_controlled_study(cfg).results.records();
  uucs::TempDir dir;
  uucs::UucsServer server(1, 16);
  server.add_testcases(uucs::study::controlled_study_testcases(uucs::sim::Task::kWord));
  server.attach_journal(dir.file("upload.journal"));
  const uucs::Guid guid =
      server.register_client(uucs::HostSpec::paper_study_machine(), 0.0);
  uucs::GroupCommitJournal committer(*server.mutable_journal());
  server.attach_committer(&committer);

  uucs::SyncRequest request;
  request.protocol_version = uucs::kProtocolVersionMax;
  request.guid = guid;
  request.known_testcase_ids = server.testcases().ids();
  request.results.resize(6);
  const std::string guid_text = guid.to_string();
  uucs::Rng picks(7);
  std::uint64_t serial = 0;
  std::vector<std::string> batch;
  std::size_t next = 0;
  const auto refill = [&] {
    batch.clear();
    for (int i = 0; i < 1024; ++i) {
      request.sync_seq = ++serial;
      for (std::size_t k = 0; k < request.results.size(); ++k) {
        uucs::RunRecord& rec = request.results[k];
        rec = pool[static_cast<std::size_t>(
            picks.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
        rec.run_id = guid_text + "/" + std::to_string(serial * 6 + k);
        rec.client_guid = guid_text;
      }
      batch.push_back(uucs::encode_sync_request(request));
    }
    next = 0;
  };
  refill();
  for (auto _ : state) {
    if (next == batch.size()) {
      state.PauseTiming();
      refill();
      state.ResumeTiming();
    }
    const uucs::DispatchResult result =
        uucs::dispatch_request_deferred(server, batch[next++]);
    benchmark::DoNotOptimize(result.lsn);
  }
  committer.flush();
  server.attach_committer(nullptr);
  state.SetItemsProcessed(state.iterations() * 6);
}
BENCHMARK(BM_UploadDispatch)->Iterations(4096);

}  // namespace

BENCHMARK_MAIN();
