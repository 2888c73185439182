// uucs_bench: one benchmark for the UUCS ingest plane and study engine.
//
// Usage:
//   uucs_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-out FILE] [--state-dir DIR] [--smoke]
//   uucs_bench --smoke [--state-dir DIR]
//
// Workload and metric names come from BENCHMARK.json, compiled in by
// CMakeLists.txt (see README.md). --seed (default 2004) drives every random
// choice. --seconds (default 20) is the measured time; set-up comes on top.
// --trace 1 runs the traced variant and reports per-layer metrics instead
// of end-to-end ones, writing Chrome trace events to --trace-out when
// given. Journals go under --state-dir (default: the working directory).
//
// Output: one JSON report line (fingerprint, workload parameters, every
// metric, failed checks), then as the last line
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
//
// --smoke without --workload runs all four workloads plus a traced ingest
// and a traced study run at tiny sizes (the bench-smoke ctest).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "util/logging.hpp"
#include "workloads.hpp"

#ifndef UUCS_BENCH_EXPECTED
#define UUCS_BENCH_EXPECTED "expected/seed2004.txt"
#endif

namespace {

using uucs_bench::Options;
using uucs_bench::RunResult;

/// A name from BENCHMARK.json, with its unit ("" for a workload).
struct NamedUnit {
  const char* name;
  const char* unit;
};
// k_workloads, k_end_to_end and k_per_layer, in BENCHMARK.json's order.
#include "benchmark_tables.inc"

template <std::size_t N>
const NamedUnit* lookup(const NamedUnit (&table)[N], const std::string& name) {
  for (const NamedUnit& n : table) {
    if (name == n.name) return &n;
  }
  return nullptr;
}

/// Puts `got` in `table`'s order. A metric the table does not list, or
/// lists with another unit, is a bug in the benchmark and fails the run.
/// A listed metric the run did not produce reads 0, which fails the run
/// for an end-to-end metric: those are never 0. A layer the workload
/// never calls reads 0 (the ingest layers on a study workload, ...).
template <std::size_t N>
uucs_bench::Metrics in_table_order(RunResult& r, const uucs_bench::Metrics& got,
                                   const NamedUnit (&table)[N], bool end_to_end) {
  for (const uucs_bench::Metric& m : got.items()) {
    const NamedUnit* n = lookup(table, m.name);
    if (n == nullptr || m.unit != n->unit) {
      r.fail("metric " + m.name + " (" + m.unit + ") is not in BENCHMARK.json");
    }
  }
  uucs_bench::Metrics out;
  for (const NamedUnit& n : table) {
    double value = 0.0;
    for (const uucs_bench::Metric& m : got.items()) {
      if (m.name == n.name) value = m.value;
    }
    if (end_to_end && !(value > 0.0)) {
      r.fail(std::string("end-to-end metric ") + n.name + " is missing or not positive");
    }
    out.set(n.name, value, n.unit);
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::string names;
  for (const NamedUnit& w : k_workloads) {
    if (!names.empty()) names += '|';
    names += w.name;
  }
  std::fprintf(stderr,
               "uucs_bench: %s\n"
               "usage: uucs_bench --workload %s [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--state-dir DIR] [--smoke]\n"
               "       uucs_bench --smoke [--state-dir DIR]\n",
               why, names.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.state_dir = ".";
  opt.expected = UUCS_BENCH_EXPECTED;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (++i >= argc) usage(("missing value for " + arg).c_str());
      return argv[i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      char* end = nullptr;
      const std::string v = value();
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      const std::string v = value();
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds >= 0.0) || opt.seconds > 3600.0) {
        usage("--seconds takes a number in [0, 3600]");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--state-dir") {
      opt.state_dir = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!opt.workload.empty() && lookup(k_workloads, opt.workload) == nullptr) {
    usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.workload.empty() && !opt.smoke) usage("--workload is required");
  if (opt.smoke) opt.seconds = 0.0;  // the minimum: one epoch, min reps
  return opt;
}

RunResult run(const Options& opt) {
  const std::string& w = opt.workload;
  RunResult r;
  if (w == "ingest-upload" || w == "ingest-fetch") {
    r = uucs_bench::run_ingest(opt);
  } else if (w == "study-stream" || w == "study-records") {
    r = uucs_bench::run_study(opt);
  } else {
    throw std::runtime_error("BENCHMARK.json names workload " + w +
                             ", which the benchmark does not implement");
  }
  r.end_to_end = in_table_order(r, r.end_to_end, k_end_to_end, true);
  if (opt.trace) r.per_layer = in_table_order(r, r.per_layer, k_per_layer, false);
  return r;
}

std::string contract_line(const RunResult& r, bool trace) {
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + (trace ? r.per_layer : r.end_to_end).json() + "}";
}

void print_report(const Options& opt, const RunResult& r) {
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    if (i) problems += ", ";
    problems += uucs_bench::json_str(r.problems[i]);
    std::fprintf(stderr, "uucs_bench: FAILED CHECK: %s\n", r.problems[i].c_str());
  }
  problems += "]";
  std::printf(
      "{\"report\": \"uucs_bench\", \"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %s, \"smoke\": %s, \"fingerprint\": %s, \"params\": {%s}, "
      "\"end_to_end\": %s, \"per_layer\": %s, \"problems\": %s}\n",
      uucs_bench::json_str(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      uucs_bench::json_num(opt.seconds).c_str(), opt.trace ? "true" : "false",
      opt.smoke ? "true" : "false",
      uucs_bench::fingerprint_json(opt.state_dir, r.busy_threads).c_str(), r.report.c_str(),
      r.end_to_end.json().c_str(), r.per_layer.json().c_str(), problems.c_str());
}

/// Every workload untraced, plus one traced ingest and one traced study
/// run, at smoke sizes.
int run_smoke(Options opt) {
  RunResult total;
  const auto one = [&](const char* workload, bool trace) {
    opt.workload = workload;
    opt.trace = trace;
    const RunResult r = run(opt);
    print_report(opt, r);
    total.attempted += r.attempted;
    total.failed += r.failed;
    if (!r.correct) total.correct = false;
  };
  for (const NamedUnit& w : k_workloads) one(w.name, false);
  one("ingest-upload", true);
  one("study-stream", true);
  std::printf("%s\n", contract_line(total, false).c_str());
  return total.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  uucs::Logger::instance().set_level(uucs::LogLevel::kWarn);
  try {
    if (opt.smoke && opt.workload.empty()) return run_smoke(opt);
    const RunResult r = run(opt);
    print_report(opt, r);
    std::printf("%s\n", contract_line(r, opt.trace).c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uucs_bench: %s\n", e.what());
    return 1;
  }
}
