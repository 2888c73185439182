/// uucsctl — the paper's Fig 2 tooling in one CLI: create, view and
/// manipulate testcase stores, inspect result stores, compute the analysis
/// grids, and distill comfort profiles for the throttle.
///
///   uucsctl list    STORE.txt                  list testcases
///   uucsctl show    STORE.txt ID               ASCII-plot one testcase
///   uucsctl make    STORE.txt SPEC...          add a testcase and save
///   uucsctl results RESULTS.txt                per-task run summary
///   uucsctl metrics RESULTS.txt                fd / c05 / ca grid (CSV)
///   uucsctl cdf     RESULTS.txt RES [TASK]     ASCII discomfort CDF
///   uucsctl profile RESULTS.txt OUT.txt        write a ComfortProfile
///   uucsctl suite   OUT.txt [SEED]             generate the Internet suite
///   uucsctl study   OUT.txt [N [SEED [JOBS]]] [--trace[=FILE]]
///                   [--streaming] [--jobs=N|auto] [--verbose]
///                   [--max-records-in-memory=N]
///                                              run the controlled study;
///                                              --trace records every
///                                              simulation event;
///                                              --streaming aggregates in
///                                              O(1) space per run and
///                                              writes the aggregate dump
///                                              instead of raw records
///   uucsctl stats   HOST PORT [--verbose]     query a live server's load,
///                                              shedding, and journal-health
///                                              counters ([stats-request]);
///                                              --verbose prints every key
///   uucsctl chaos   HOST PORT [--seed N | --schedule SPEC] [--syncs K]
///                                              replay a fault schedule
///                                              against a live server and
///                                              verify exactly-once uploads
///   uucsctl chaoshost [SEEDS] [--seed-base N | --schedule SPEC]
///                     [--duration S] [--disk-dir DIR]
///                                              drive the real exercisers
///                                              through seeded host faults
///                                              and verify every run ends
///                                              with a typed outcome
///   uucsctl upgrade HOST PORT [--syncs N] [--interval S] [--timeout S]
///                   [--retries N] [--no-expect-bump]
///                                              sync continuously while an
///                                              operator performs a live
///                                              takeover (uucs_server
///                                              --takeover); report the
///                                              client-observed retries,
///                                              worst sync latency, and
///                                              generation bump, and verify
///                                              exactly-once uploads across
///                                              the handoff
///
/// SPEC for `make`: ramp RESOURCE X T | step RESOURCE X T B | blank T
/// SPEC for `chaos --schedule`: OP:KIND[,OP:KIND...], KIND one of
/// drop | disconnect | delay[=S] | truncate | garbage (OP = 0-based
/// channel-operation index)
/// SPEC for `chaoshost --schedule`: OP:KIND[,OP:KIND...], KIND one of
/// enospc | eio | slowio[=S] | pressure[=FRAC] (OP = 0-based exerciser
/// operation index)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/breakdown.hpp"
#include "analysis/export.hpp"
#include "client/client.hpp"
#include "core/comfort_profile.hpp"
#include "exerciser/exerciser_set.hpp"
#include "exerciser/failpoints.hpp"
#include "server/fault_injection.hpp"
#include "server/retry.hpp"
#include "study/controlled_study.hpp"
#include "testcase/suite.hpp"
#include "util/clock.hpp"
#include "util/fs.hpp"
#include "util/kvtext.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace uucs;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: uucsctl list|show|make|results|metrics|cdf|profile|suite|stats|chaos|chaoshost|upgrade ...\n"
               "  list    STORE.txt\n"
               "  show    STORE.txt ID\n"
               "  make    STORE.txt ramp RES X T | step RES X T B | blank T\n"
               "  results RESULTS.txt\n"
               "  metrics RESULTS.txt\n"
               "  profile RESULTS.txt OUT.txt\n"
               "  suite   OUT.txt [SEED]\n"
               "  study   OUT.txt [PARTICIPANTS [SEED [JOBS]]] [--trace[=FILE]]\n"
               "          [--streaming] [--jobs=N|auto] [--verbose] "
               "[--max-records-in-memory=N]\n"
               "          (JOBS: engine workers; auto (default) = hardware "
               "concurrency,\n"
               "           any value is bit-identical;\n"
               "           --trace writes the fired-event log, default "
               "OUT.txt.trace;\n"
               "           --streaming folds runs into exact aggregates "
               "without retaining\n"
               "           records — OUT.txt gets the aggregate dump; "
               "--max-records-in-memory\n"
               "           aborts an in-memory run that would retain more "
               "records than N;\n"
               "           --verbose prints per-worker engine stats and "
               "shard merge time)\n"
               "  stats   HOST PORT [--verbose]\n"
               "          (one-shot load/shedding/journal-health query; "
               "--verbose\n           prints every counter)\n"
               "  chaos   HOST PORT [--seed N | --schedule SPEC] [--syncs K]\n"
               "          [--retries N] [--timeout S] [--retry-max-backoff S]\n"
               "          (drives a live server through injected faults and "
               "verifies\n           every upload is stored exactly once)\n"
               "  chaoshost [SEEDS] [--seed-base N | --schedule SPEC]\n"
               "          [--duration S] [--disk-dir DIR]\n"
               "          (drives the real exercisers through seeded host "
               "faults —\n           ENOSPC, EIO, slow IO, memory pressure — "
               "and verifies every\n           run completes with a typed "
               "outcome and leaks no scratch)\n"
               "  upgrade HOST PORT [--syncs N] [--interval S] [--timeout S]\n"
               "          [--retries N] [--no-expect-bump] "
               "[--retry-max-backoff S]\n"
               "          (syncs continuously while an operator performs a "
               "live\n           takeover; reports client-observed retries, "
               "worst latency,\n           and the generation bump, and "
               "verifies exactly-once uploads)\n");
  std::exit(2);
}

int cmd_list(const std::string& path) {
  const TestcaseStore store = TestcaseStore::load(path);
  std::printf("%zu testcases in %s\n", store.size(), path.c_str());
  for (const auto& id : store.ids()) {
    const Testcase& tc = store.get(id);
    std::string resources;
    for (Resource r : tc.resources()) {
      if (!resources.empty()) resources += ",";
      resources += resource_name(r);
    }
    std::printf("  %-36s %6.0fs  %-16s %s\n", id.c_str(), tc.duration(),
                resources.empty() ? "(blank)" : resources.c_str(),
                tc.description().c_str());
  }
  return 0;
}

int cmd_show(const std::string& path, const std::string& id) {
  const TestcaseStore store = TestcaseStore::load(path);
  const Testcase& tc = store.get(id);
  std::printf("%s: %s (%.0f s)\n", tc.id().c_str(), tc.description().c_str(),
              tc.duration());
  if (tc.is_blank()) {
    std::printf("(blank testcase — no exercise functions)\n");
    return 0;
  }
  constexpr int kWidth = 64;
  constexpr int kHeight = 10;
  for (Resource r : tc.resources()) {
    const ExerciseFunction* f = tc.function(r);
    const double ymax = std::max(1e-9, f->max_level());
    std::printf("\n%s (max %.2f, rate %.1f Hz):\n", resource_name(r).c_str(),
                f->max_level(), f->sample_rate_hz());
    std::vector<std::string> grid(kHeight, std::string(kWidth, ' '));
    for (int col = 0; col < kWidth; ++col) {
      const double t = f->duration() * col / (kWidth - 1);
      const double level = f->level_at(std::min(t, f->duration() - 1e-9));
      int row = static_cast<int>(level / ymax * (kHeight - 1) + 0.5);
      row = std::clamp(row, 0, kHeight - 1);
      grid[static_cast<std::size_t>(kHeight - 1 - row)]
          [static_cast<std::size_t>(col)] = '*';
    }
    for (const auto& line : grid) std::printf("  |%s\n", line.c_str());
    std::printf("  +%s (0..%.0f s)\n", std::string(kWidth, '-').c_str(),
                f->duration());
  }
  return 0;
}

int cmd_make(const std::string& path, const std::vector<std::string>& spec) {
  TestcaseStore store;
  if (path_exists(path)) store = TestcaseStore::load(path);
  if (spec.empty()) usage();
  Testcase tc("pending");
  if (spec[0] == "ramp" && spec.size() == 4) {
    tc = make_ramp_testcase(parse_resource(spec[1]), std::stod(spec[2]),
                            std::stod(spec[3]));
  } else if (spec[0] == "step" && spec.size() == 5) {
    tc = make_step_testcase(parse_resource(spec[1]), std::stod(spec[2]),
                            std::stod(spec[3]), std::stod(spec[4]));
  } else if (spec[0] == "blank" && spec.size() == 2) {
    tc = make_blank_testcase(std::stod(spec[1]));
  } else {
    usage();
  }
  store.add(tc);
  store.save(path);
  std::printf("added %s; %s now holds %zu testcases\n", tc.id().c_str(),
              path.c_str(), store.size());
  return 0;
}

int cmd_results(const std::string& path) {
  const ResultStore results = ResultStore::load(path);
  std::printf("%zu runs in %s\n", results.size(), path.c_str());
  const auto table = analysis::compute_breakdown_table(
      results, analysis::BreakdownScope::kAllRuns);
  for (sim::Task t : sim::kAllTasks) {
    const auto& b = table.per_task[static_cast<std::size_t>(t)];
    if (b.total() == 0) continue;
    std::printf("  %-11s runs %4zu  discomforted %4zu  blank-noise %.2f\n",
                sim::task_display_name(t).c_str(), b.total(),
                b.nonblank_discomforted + b.blank_discomforted,
                b.blank_discomfort_probability());
  }
  return 0;
}

int cmd_metrics(const std::string& path) {
  const ResultStore results = ResultStore::load(path);
  std::printf("%s", analysis::export_metric_grid(results).serialize().c_str());
  return 0;
}

int cmd_cdf(const std::string& path, const std::string& resource,
            const std::string& task) {
  const ResultStore results = ResultStore::load(path);
  const Resource r = parse_resource(resource);
  const auto cdf = analysis::build_discomfort_cdf(
      analysis::select_ramp_runs(results, task, r), r);
  const std::string title =
      (task.empty() ? std::string("all tasks") : task) + " / " + resource_name(r);
  std::printf("%s", cdf.ascii_plot(60, 16, title).c_str());
  const auto m = analysis::metrics_from_cdf(cdf);
  std::printf("fd=%.2f c05=%s ca=%s\n", m.fd,
              m.c05 ? strprintf("%.2f", *m.c05).c_str() : "*",
              m.ca ? strprintf("%.2f", m.ca->mean).c_str() : "*");
  const auto ci = analysis::bootstrap_level_ci(cdf);
  if (ci.valid) {
    std::printf("c05 bootstrap 95%% CI: [%.2f, %.2f]\n", ci.lo, ci.hi);
  }
  return 0;
}

int cmd_profile(const std::string& path, const std::string& out) {
  const ResultStore results = ResultStore::load(path);
  const auto profile = core::ComfortProfile::from_results(results);
  kv_save_file(out, profile.to_records());
  std::printf("wrote %zu comfort curves to %s\n", profile.curve_count(),
              out.c_str());
  std::printf("aggregated 5%%-budget contention: cpu %.2f, memory %.2f, disk %.2f\n",
              profile.max_contention(Resource::kCpu, 0.05),
              profile.max_contention(Resource::kMemory, 0.05),
              profile.max_contention(Resource::kDisk, 0.05));
  return 0;
}

int cmd_suite(const std::string& out, std::uint64_t seed) {
  Rng rng(seed);
  const TestcaseStore store = generate_internet_suite(SuiteSpec{}, rng);
  store.save(out);
  std::printf("generated %zu testcases (seed %llu) into %s\n", store.size(),
              static_cast<unsigned long long>(seed), out.c_str());
  return 0;
}

/// Jobs knob: "auto" (the default) resolves to hardware concurrency via
/// engine::effective_jobs; a number is the exact worker count.
std::size_t parse_jobs_arg(const std::string& s) {
  if (s == "auto") return 0;
  return std::stoul(s);
}

int cmd_study(const std::string& out, const std::vector<std::string>& raw) {
  study::ControlledStudyConfig config;
  std::string trace_path;
  bool verbose = false;
  std::vector<std::string> args;
  for (const std::string& a : raw) {
    if (a == "--trace") {
      config.trace = true;
      trace_path = out + ".trace";
    } else if (a.rfind("--trace=", 0) == 0) {
      config.trace = true;
      trace_path = a.substr(std::string("--trace=").size());
    } else if (a == "--streaming") {
      config.streaming = true;
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a.rfind("--jobs=", 0) == 0) {
      config.jobs = parse_jobs_arg(a.substr(std::string("--jobs=").size()));
    } else if (a.rfind("--max-records-in-memory=", 0) == 0) {
      config.max_records_in_memory =
          std::stoul(a.substr(std::string("--max-records-in-memory=").size()));
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "uucsctl study: unknown option '%s' (flags take =VALUE, "
                   "e.g. --max-records-in-memory=N)\n",
                   a.c_str());
      return 2;
    } else {
      args.push_back(a);
    }
  }
  if (args.size() >= 1) config.participants = std::stoul(args[0]);
  if (args.size() >= 2) config.seed = std::stoull(args[1]);
  if (args.size() >= 3) config.jobs = parse_jobs_arg(args[2]);
  const auto output = study::run_controlled_study(config);
  if (config.streaming) {
    write_file(out, output.aggregates->serialize());
    std::printf(
        "streamed %llu runs for %zu participants (seed %llu); aggregates in "
        "%s\n",
        static_cast<unsigned long long>(output.aggregates->runs()),
        output.users.size(), static_cast<unsigned long long>(config.seed),
        out.c_str());
    std::printf("%s", output.aggregates->summary().render().c_str());
  } else {
    output.results.save(out);
    std::printf("ran %zu runs for %zu participants (seed %llu) into %s\n",
                output.results.size(), output.users.size(),
                static_cast<unsigned long long>(config.seed), out.c_str());
  }
  std::printf("%s", output.engine.summary().render().c_str());
  if (verbose && !output.engine.per_worker.empty()) {
    std::printf("%s", output.engine.worker_summary().render().c_str());
    std::printf("shard merge time: %.3f s\n", output.engine.merge_s);
  }
  if (config.trace) {
    write_file(trace_path, output.trace.serialize());
    std::printf("wrote %zu simulation events to %s\n", output.trace.size(),
                trace_path.c_str());
    std::printf("%s", output.trace.summary().render().c_str());
  }
  return 0;
}

/// One-shot [stats-request] round trip: how loaded is this server, what has
/// it shed, and is its journal healthy?
int cmd_stats(const std::string& host, std::uint16_t port,
              const std::vector<std::string>& raw) {
  bool verbose = false;
  for (const std::string& a : raw) {
    if (a == "--verbose") {
      verbose = true;
    } else {
      usage();
    }
  }
  const ChannelDeadlines deadlines{5.0, 5.0, 5.0};
  auto channel = TcpChannel::connect(host, port, deadlines);
  KvRecord req("stats-request");
  req.set_int("version", 3);
  channel->write(kv_serialize({req}));
  const auto reply = channel->read();
  channel->close();
  if (!reply) {
    std::fprintf(stderr, "uucsctl stats: server closed without answering\n");
    return 1;
  }
  const auto records = kv_parse(*reply);
  if (records.empty() || records[0].type() != "stats-response") {
    std::fprintf(stderr, "uucsctl stats: unexpected reply [%s]\n",
                 records.empty() ? "" : records[0].type().c_str());
    return 1;
  }
  const KvRecord& r = records[0];
  if (verbose) {
    for (const auto& key : r.keys()) {
      std::printf("%-28s %s\n", key.c_str(), r.get(key).c_str());
    }
    return 0;
  }
  std::printf("generation %lld, %lld clients, journal %s\n",
              static_cast<long long>(r.get_int_or("generation", 0)),
              static_cast<long long>(r.get_int_or("clients", 0)),
              r.get_or("journal.health", "none").c_str());
  std::printf("connections %lld open, %lld inflight, %lld buffered bytes\n",
              static_cast<long long>(r.get_int_or("loop.open_connections", 0)),
              static_cast<long long>(r.get_int_or("loop.inflight", 0)),
              static_cast<long long>(r.get_int_or("loop.buffered_bytes", 0)));
  if (r.find("journal.batches")) {
    std::printf("journal: %lld entries in %lld batches, %lld waited for "
                "writers in flight\n",
                static_cast<long long>(r.get_int_or("journal.entries", 0)),
                static_cast<long long>(r.get_int_or("journal.batches", 0)),
                static_cast<long long>(r.get_int_or("journal.waited_batches", 0)));
  }
  std::printf("shed: queue %lld, deadline %lld, registrations %lld, "
              "degraded %lld; pressure pauses %lld (frac %.2f)\n",
              static_cast<long long>(r.get_int_or("shed.queue", 0)),
              static_cast<long long>(r.get_int_or("shed.deadline", 0)),
              static_cast<long long>(r.get_int_or("shed.registrations", 0)),
              static_cast<long long>(r.get_int_or("shed.degraded_rejects", 0)),
              static_cast<long long>(r.get_int_or("pressure.pauses", 0)),
              r.get_double_or("pressure.available_frac", 1.0));
  return 0;
}

int cmd_chaos(const std::string& host, std::uint16_t port,
              const std::vector<std::string>& raw) {
  std::uint64_t seed = 1;
  std::string spec;
  std::size_t syncs = 5;
  std::size_t retries = 10;
  double io_timeout_s = 2.0;
  double max_backoff_s = 1.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto next = [&]() -> std::string {
      if (++i >= raw.size()) usage();
      return raw[i];
    };
    if (raw[i] == "--seed") {
      seed = std::stoull(next());
    } else if (raw[i] == "--schedule") {
      spec = next();
    } else if (raw[i] == "--syncs") {
      syncs = std::stoul(next());
    } else if (raw[i] == "--retries") {
      retries = std::stoul(next());
      if (retries == 0) usage();
    } else if (raw[i] == "--timeout") {
      io_timeout_s = std::stod(next());
    } else if (raw[i] == "--retry-max-backoff") {
      max_backoff_s = std::stod(next());
      if (max_backoff_s <= 0) usage();
    } else {
      usage();
    }
  }

  auto schedule = std::make_shared<FaultSchedule>(
      spec.empty() ? FaultSchedule::seeded(seed, FaultProfile::moderate())
                   : parse_fault_schedule(spec));
  FaultyChannel::Stats stats;
  RealClock clock;
  RetryPolicy policy;
  policy.max_attempts = retries;
  policy.base_delay_s = 0.05;
  policy.max_delay_s = max_backoff_s;
  policy.jitter_seed = seed;
  const ChannelDeadlines deadlines{5.0, io_timeout_s, 5.0};
  RetryingServerApi api(
      [&] {
        return std::make_unique<FaultyChannel>(
            TcpChannel::connect(host, port, deadlines), schedule, &stats);
      },
      clock, policy);

  UucsClient client(HostSpec::detect());
  client.ensure_registered(api);
  std::printf("registered as %s; driving %zu syncs through %s faults\n",
              client.guid().to_string().c_str(), syncs,
              spec.empty() ? strprintf("seed-%llu", (unsigned long long)seed).c_str()
                           : "scripted");

  std::vector<RunRecord> minted;
  for (std::size_t round = 0; round < syncs; ++round) {
    for (int i = 0; i < 2; ++i) {
      RunRecord r;
      r.run_id = client.next_run_id();
      r.testcase_id = "chaos-probe";
      r.task = "chaos";
      r.offset_s = static_cast<double>(round);
      minted.push_back(r);
      client.record_result(r);
    }
    for (int attempt = 0; attempt < 20 && !client.pending_results().empty();
         ++attempt) {
      try {
        client.hot_sync(api);
      } catch (const std::exception& e) {
        std::printf("  sync round %zu: %s (retrying)\n", round, e.what());
      }
    }
  }
  api.disconnect();

  std::printf("channel ops %zu, faults %zu (drop %zu, disconnect %zu, delay %zu, "
              "truncate %zu, garbage %zu); %zu reconnects, %zu retried attempts\n",
              stats.ops, stats.faults(), stats.drops, stats.disconnects,
              stats.delays, stats.truncations, stats.garbage, api.connects(),
              api.retries());

  if (!client.pending_results().empty()) {
    std::printf("FAIL: %zu records never acknowledged\n",
                client.pending_results().size());
    return 1;
  }

  // Verification over a clean connection: re-uploading every minted record
  // must come back 100%% duplicate — each is already stored, exactly once.
  auto clean = TcpChannel::connect(host, port, deadlines);
  RemoteServerApi direct(*clean);
  SyncRequest verify;
  verify.guid = client.guid();
  verify.sync_seq = client.sync_seq() + 1;
  verify.results = minted;
  const SyncResponse response = direct.hot_sync(verify);
  clean->close();
  if (response.duplicate_results != minted.size() ||
      response.accepted_results != 0) {
    std::printf("FAIL: server holds %zu of %zu uploads (%zu stored twice?)\n",
                response.duplicate_results, minted.size(),
                response.accepted_results);
    return 1;
  }
  std::printf("OK: all %zu uploads stored exactly once\n", minted.size());
  return 0;
}

/// Client-side upgrade verifier: registers, then hot-syncs in a tight loop
/// while an operator performs a live takeover of HOST:PORT out-of-band
/// (uucs_server --takeover). Every sync observes the server generation
/// (protocol v2); a bump means the successor answered. On exit the tool
/// reports what a real client experienced across the handoff — reconnects,
/// retried attempts, worst sync latency — and verifies every minted record
/// is stored exactly once on the post-upgrade server.
int cmd_upgrade(const std::string& host, std::uint16_t port,
                const std::vector<std::string>& raw) {
  std::size_t max_syncs = 200;
  double interval_s = 0.05;
  double io_timeout_s = 2.0;
  double max_backoff_s = 1.0;
  std::size_t retries = 10;
  bool expect_bump = true;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto next = [&]() -> std::string {
      if (++i >= raw.size()) usage();
      return raw[i];
    };
    if (raw[i] == "--syncs") {
      max_syncs = std::stoul(next());
      if (max_syncs == 0) usage();
    } else if (raw[i] == "--interval") {
      interval_s = std::stod(next());
      if (interval_s < 0) usage();
    } else if (raw[i] == "--timeout") {
      io_timeout_s = std::stod(next());
    } else if (raw[i] == "--retries") {
      retries = std::stoul(next());
      if (retries == 0) usage();
    } else if (raw[i] == "--no-expect-bump") {
      expect_bump = false;
    } else if (raw[i] == "--retry-max-backoff") {
      max_backoff_s = std::stod(next());
      if (max_backoff_s <= 0) usage();
    } else {
      usage();
    }
  }

  RealClock clock;
  RetryPolicy policy;
  policy.max_attempts = retries;
  policy.base_delay_s = 0.05;
  policy.max_delay_s = max_backoff_s;
  const ChannelDeadlines deadlines{5.0, io_timeout_s, 5.0};
  RetryingServerApi api(
      [&] { return TcpChannel::connect(host, port, deadlines); }, clock, policy);

  UucsClient client(HostSpec::detect());
  client.ensure_registered(api);
  std::printf("registered as %s; syncing every %.0f ms until the generation "
              "bumps (max %zu syncs)\n",
              client.guid().to_string().c_str(), interval_s * 1000.0, max_syncs);

  std::vector<RunRecord> minted;
  bool have_base = false, bumped = false;
  std::uint64_t base_gen = 0, new_gen = 0;
  double worst_ms = 0.0;
  std::size_t completed = 0, failed_syncs = 0;
  for (std::size_t round = 0; round < max_syncs && !bumped; ++round) {
    RunRecord r;
    r.run_id = client.next_run_id();
    r.testcase_id = "upgrade-probe";
    r.task = "upgrade";
    r.offset_s = static_cast<double>(round);
    minted.push_back(r);
    client.record_result(r);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      client.hot_sync(api);
    } catch (const std::exception& e) {
      ++failed_syncs;
      std::printf("  sync %zu failed even after retries: %s\n", round, e.what());
      continue;
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    worst_ms = std::max(worst_ms, ms);
    ++completed;
    const std::uint64_t gen = client.last_server_generation();
    if (!have_base) {
      have_base = true;
      base_gen = gen;
      if (client.last_server_protocol() < 2) {
        std::printf("  note: server answered protocol v%u — generation not "
                    "reported, bump cannot be observed\n",
                    client.last_server_protocol());
      }
    } else if (gen != base_gen) {
      bumped = true;
      new_gen = gen;
      std::printf("  generation bump observed at sync %zu: %llu -> %llu "
                  "(%.1f ms)\n",
                  round, static_cast<unsigned long long>(base_gen),
                  static_cast<unsigned long long>(gen), ms);
    }
    if (interval_s > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
  }

  // Drain anything a failed round left queued; dedup makes this safe.
  for (int attempt = 0; attempt < 20 && !client.pending_results().empty();
       ++attempt) {
    try {
      client.hot_sync(api);
    } catch (const std::exception&) {
    }
  }
  api.disconnect();

  std::printf("client-observed: %zu/%zu syncs completed, %zu reconnects, "
              "%zu retried attempts, worst sync latency %.1f ms\n",
              completed, completed + failed_syncs, api.connects(),
              api.retries(), worst_ms);

  if (!client.pending_results().empty()) {
    std::printf("FAIL: %zu records never acknowledged across the upgrade\n",
                client.pending_results().size());
    return 1;
  }

  // Exactly-once audit against the post-upgrade server: every record minted
  // before, during, and after the handoff must already be stored — once.
  auto clean = TcpChannel::connect(host, port, deadlines);
  RemoteServerApi direct(*clean);
  SyncRequest verify;
  verify.guid = client.guid();
  verify.sync_seq = client.sync_seq() + 1;
  verify.results = minted;
  const SyncResponse response = direct.hot_sync(verify);
  clean->close();
  if (response.duplicate_results != minted.size() ||
      response.accepted_results != 0) {
    std::printf("FAIL: server holds %zu of %zu uploads (%zu stored twice?)\n",
                response.duplicate_results, minted.size(),
                response.accepted_results);
    return 1;
  }

  if (bumped) {
    std::printf("OK: takeover generation %llu -> %llu; all %zu uploads stored "
                "exactly once\n",
                static_cast<unsigned long long>(base_gen),
                static_cast<unsigned long long>(new_gen), minted.size());
    return 0;
  }
  if (expect_bump) {
    std::printf("FAIL: no takeover observed within %zu syncs\n", max_syncs);
    return 1;
  }
  std::printf("OK: no takeover observed (not expected); all %zu uploads "
              "stored exactly once\n",
              minted.size());
  return 0;
}

int cmd_chaoshost(const std::vector<std::string>& raw) {
  std::size_t seeds = 25;
  std::uint64_t seed_base = 1;
  std::string spec;
  double duration_s = 0.25;
  std::string disk_dir;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto next = [&]() -> std::string {
      if (++i >= raw.size()) usage();
      return raw[i];
    };
    if (raw[i] == "--seed-base") {
      seed_base = std::stoull(next());
    } else if (raw[i] == "--schedule") {
      spec = next();
    } else if (raw[i] == "--duration") {
      duration_s = std::stod(next());
    } else if (raw[i] == "--disk-dir") {
      disk_dir = next();
    } else {
      positional.push_back(raw[i]);
    }
  }
  if (positional.size() > 1) usage();
  if (positional.size() == 1) seeds = std::stoul(positional[0]);
  if (seeds == 0 || duration_s <= 0.0) usage();
  if (!spec.empty()) seeds = 1;  // a script is one exact history

  std::unique_ptr<TempDir> scratch;
  if (disk_dir.empty()) {
    scratch = std::make_unique<TempDir>();
    disk_dir = scratch->path();
  } else {
    make_dirs(disk_dir);
  }

  RealClock clock;
  ExerciserConfig cfg;
  cfg.subinterval_s = 0.005;
  cfg.memory_pool_bytes = 8u << 20;
  cfg.disk_file_bytes = 4u << 20;
  cfg.disk_max_write_bytes = 32u << 10;
  cfg.disk_dir = disk_dir;
  cfg.max_threads = 2;
  cfg.watchdog_grace_s = 0.5;
  cfg.stop_bound_s = 0.5;
  cfg.failpoints = std::make_shared<HostFailpoints>();

  Testcase tc("chaoshost-probe");
  tc.set_function(Resource::kCpu, make_constant(0.5, duration_s, 20.0));
  tc.set_function(Resource::kMemory, make_constant(0.6, duration_s, 20.0));
  tc.set_function(Resource::kDisk, make_constant(0.8, duration_s, 20.0));

  std::map<std::string, std::size_t> tally;
  std::size_t watchdogs = 0;
  bool failed = false;
  {
    ExerciserSet set(clock, cfg);
    for (std::size_t i = 0; i < seeds; ++i) {
      const std::uint64_t seed = seed_base + i;
      cfg.failpoints->arm(spec.empty()
                              ? HostFaultSchedule::seeded(seed, HostFaultProfile::hostile())
                              : parse_host_fault_schedule(spec));
      const auto outcome = set.run(tc);
      if (outcome.watchdog_fired) ++watchdogs;
      for (Resource r : tc.resources()) {
        const auto it = outcome.reports.find(r);
        if (it == outcome.reports.end()) {
          std::printf("FAIL: seed %llu left %s without a typed outcome\n",
                      static_cast<unsigned long long>(seed),
                      resource_name(r).c_str());
          failed = true;
          continue;
        }
        ++tally[resource_outcome_name(it->second.outcome)];
      }
      std::printf("  seed %-6llu worst=%-8s watchdog=%d abandoned=%zu\n",
                  static_cast<unsigned long long>(seed),
                  resource_outcome_name(outcome.worst()).c_str(),
                  outcome.watchdog_fired ? 1 : 0, set.abandoned_count());
    }
    cfg.failpoints->disarm();
    // Destroying the set joins any abandoned workers — the sweep must end
    // with every thread accounted for before we audit the scratch dir.
  }

  const auto stats = cfg.failpoints->stats();
  std::printf("%zu runs: ", seeds);
  for (const auto& [name, count] : tally) std::printf("%s %zu  ", name.c_str(), count);
  std::printf("(watchdog fired %zu)\n", watchdogs);
  std::printf("injected %zu faults over %zu ops (enospc %zu, eio %zu, slowio %zu, "
              "pressure %zu)\n",
              stats.injected(), stats.disk_checks + stats.mem_checks, stats.enospc,
              stats.eio, stats.slow_io, stats.mem_pressure);

  const auto leftovers = list_files(disk_dir);
  if (!leftovers.empty()) {
    std::printf("FAIL: %zu scratch files leaked under %s\n", leftovers.size(),
                disk_dir.c_str());
    return 1;
  }
  if (failed) return 1;
  std::printf("OK: every run ended with a typed outcome, no scratch leaked\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (argc < 3 && cmd != "chaoshost") usage();
  try {
    if (cmd == "list") return cmd_list(argv[2]);
    if (cmd == "show" && argc >= 4) return cmd_show(argv[2], argv[3]);
    if (cmd == "make" && argc >= 4) {
      return cmd_make(argv[2], {argv + 3, argv + argc});
    }
    if (cmd == "results") return cmd_results(argv[2]);
    if (cmd == "metrics") return cmd_metrics(argv[2]);
    if (cmd == "cdf" && argc >= 4) {
      return cmd_cdf(argv[2], argv[3], argc >= 5 ? argv[4] : "");
    }
    if (cmd == "profile" && argc >= 4) return cmd_profile(argv[2], argv[3]);
    if (cmd == "suite") {
      return cmd_suite(argv[2], argc >= 4 ? std::stoull(argv[3]) : 1);
    }
    if (cmd == "study") {
      return cmd_study(argv[2], {argv + 3, argv + argc});
    }
    if (cmd == "stats" && argc >= 4) {
      return cmd_stats(argv[2],
                       static_cast<std::uint16_t>(std::stoul(argv[3])),
                       {argv + 4, argv + argc});
    }
    if (cmd == "chaos" && argc >= 4) {
      return cmd_chaos(argv[2],
                       static_cast<std::uint16_t>(std::stoul(argv[3])),
                       {argv + 4, argv + argc});
    }
    if (cmd == "chaoshost") {
      return cmd_chaoshost({argv + 2, argv + argc});
    }
    if (cmd == "upgrade" && argc >= 4) {
      return cmd_upgrade(argv[2],
                         static_cast<std::uint16_t>(std::stoul(argv[3])),
                         {argv + 4, argv + argc});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uucsctl: %s\n", e.what());
    return 1;
  }
  usage();
}
