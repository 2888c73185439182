/// Scale bench for the streaming study path (ISSUE 5 layer 4, extended by
/// ISSUE 6 with the jobs sweep): runs the controlled study at 10k/100k/1M
/// synthetic users with --streaming-style aggregation and records
/// wall/cpu/RSS/runs-per-second per size, plus (with --sweep) the same
/// study across a list of worker counts to measure scaling efficiency.
/// The numbers land in BENCH_scale.json (see --json) so future PRs can
/// track throughput, the bounded-memory property and multi-core scaling.
///
/// Usage:
///   bench_scale [--jobs N|auto] [--sizes 10000,100000,1000000]
///               [--sweep 1,2,4,0] [--json FILE] [--verify]
///
/// --verify additionally runs the smallest size through the in-memory path
/// and asserts the streaming aggregates serialize byte-identically (the
/// same check tests/study/test_streaming.cpp pins at small scale); the
/// process exits nonzero on mismatch.
///
/// --sweep runs every size at every listed worker count (0 = one worker
/// per hardware thread), asserts the aggregates stay byte-identical across
/// worker counts, and emits a "jobs" section in the JSON with runs/s,
/// scaling efficiency vs jobs=1, and peak RSS per worker count. Peak RSS
/// is process-wide and monotone (getrusage), so later sweep entries can
/// only report values >= earlier ones.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "common.hpp"
#include "engine/session_engine.hpp"
#include "study/controlled_study.hpp"
#include "study/population.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace {

struct SizeResult {
  std::size_t participants = 0;
  std::size_t runs = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double runs_per_s = 0.0;
  std::size_t max_rss_bytes = 0;
};

struct SweepResult {
  std::size_t participants = 0;
  std::size_t jobs_flag = 0;     ///< as passed (0 = auto)
  std::size_t workers = 0;       ///< resolved worker count
  std::size_t runs = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double merge_s = 0.0;
  double runs_per_s = 0.0;
  double efficiency = 0.0;       ///< (runs/s ÷ jobs=1 runs/s) ÷ workers
  std::size_t max_rss_bytes = 0;
  bool byte_identical = false;   ///< aggregates match the size's jobs=1 run
};

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  for (const std::string& part : uucs::split(csv, ',')) {
    sizes.push_back(std::strtoull(part.c_str(), nullptr, 10));
  }
  return sizes;
}

uucs::study::ControlledStudyOutput run_streaming(
    std::size_t participants, std::size_t jobs,
    const uucs::study::PopulationParams& params) {
  uucs::study::ControlledStudyConfig cfg;
  cfg.participants = participants;
  cfg.seed = 2004;
  cfg.jobs = jobs;
  cfg.streaming = true;
  return uucs::study::run_controlled_study(cfg, params);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = uucs::bench::parse_jobs(argc, argv);
  std::vector<std::size_t> sizes = {10'000, 100'000, 1'000'000};
  std::vector<std::size_t> sweep_jobs;
  std::string json_path;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sizes") == 0 && i + 1 < argc) {
      sizes = parse_sizes(argv[++i]);
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep_jobs = parse_sizes(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    }
  }

  const uucs::study::PopulationParams params = uucs::study::calibrate_population();

  if (verify && !sizes.empty()) {
    uucs::bench::heading("verify: streaming == in-memory");
    uucs::study::ControlledStudyConfig cfg;
    cfg.participants = *std::min_element(sizes.begin(), sizes.end());
    cfg.seed = 2004;
    cfg.jobs = jobs;
    const auto mem = uucs::study::run_controlled_study(cfg, params);
    uucs::analysis::StudyAccumulator ref;
    for (const auto& rec : mem.results.records()) ref.add(rec);
    cfg.streaming = true;
    const auto streamed = uucs::study::run_controlled_study(cfg, params);
    if (streamed.aggregates->serialize() != ref.serialize()) {
      std::fprintf(stderr, "FAIL: streaming aggregates diverge from the "
                           "in-memory path at %zu participants\n",
                   cfg.participants);
      return 1;
    }
    std::printf("ok: %llu runs, aggregates byte-identical\n",
                static_cast<unsigned long long>(streamed.aggregates->runs()));
  }

  std::vector<SizeResult> results;
  for (const std::size_t n : sizes) {
    uucs::bench::heading(uucs::strprintf("%zu users (streaming, jobs=%zu)",
                                         n, jobs));
    const auto out = run_streaming(n, jobs, params);
    SizeResult r;
    r.participants = n;
    r.runs = out.aggregates->runs();
    r.wall_s = out.engine.wall_s;
    r.cpu_s = out.engine.cpu_s;
    r.runs_per_s = out.engine.runs_per_s();
    r.max_rss_bytes = out.engine.max_rss_bytes;
    results.push_back(r);
    std::printf("%s\n", out.engine.summary().render().c_str());
  }

  std::vector<SweepResult> sweep;
  bool sweep_ok = true;
  for (const std::size_t n : sizes) {
    std::string reference;  ///< jobs=1 aggregates for this size
    double base_runs_per_s = 0.0;
    for (const std::size_t j : sweep_jobs) {
      const std::size_t workers = uucs::engine::effective_jobs(j);
      uucs::bench::heading(uucs::strprintf(
          "%zu users sweep (jobs=%zu -> %zu workers)", n, j, workers));
      const auto out = run_streaming(n, j, params);
      SweepResult r;
      r.participants = n;
      r.jobs_flag = j;
      r.workers = workers;
      r.runs = out.aggregates->runs();
      r.wall_s = out.engine.wall_s;
      r.cpu_s = out.engine.cpu_s;
      r.merge_s = out.engine.merge_s;
      r.runs_per_s = out.engine.runs_per_s();
      r.max_rss_bytes = out.engine.max_rss_bytes;
      const std::string agg = out.aggregates->serialize();
      if (reference.empty() && workers == 1) {
        reference = agg;
        base_runs_per_s = r.runs_per_s;
      }
      r.byte_identical = reference.empty() || agg == reference;
      if (!r.byte_identical) sweep_ok = false;
      r.efficiency =
          (base_runs_per_s > 0 && workers > 0)
              ? (r.runs_per_s / base_runs_per_s) / static_cast<double>(workers)
              : 0.0;
      sweep.push_back(r);
      std::printf("%s\n", out.engine.summary().render().c_str());
      if (!r.byte_identical) {
        std::fprintf(stderr,
                     "FAIL: aggregates at jobs=%zu diverge from jobs=1 "
                     "at %zu participants\n",
                     j, n);
      }
    }
  }

  if (!json_path.empty()) {
    std::string json = "{\n";
    json += "  \"description\": \"bench_scale: streaming controlled study "
            "(seed 2004); wall/cpu from EngineStats, RSS = peak process "
            "RSS after the engine drained\",\n";
    json += uucs::strprintf("  \"cores\": %d,\n", uucs::bench::affinity_cores());
    json += uucs::strprintf("  \"jobs\": %zu,\n", jobs);
    json += "  \"sizes\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SizeResult& r = results[i];
      json += uucs::strprintf(
          "    { \"participants\": %zu, \"runs\": %zu, \"wall_s\": %.3f, "
          "\"cpu_s\": %.3f, \"runs_per_s\": %.1f, \"max_rss_mib\": %.1f }%s\n",
          r.participants, r.runs, r.wall_s, r.cpu_s, r.runs_per_s,
          static_cast<double>(r.max_rss_bytes) / (1024.0 * 1024.0),
          i + 1 < results.size() ? "," : "");
    }
    json += sweep.empty() ? "  ]\n" : "  ],\n";
    if (!sweep.empty()) {
      json += "  \"jobs_sweep_note\": \"efficiency = (runs/s vs jobs=1) / "
              "workers; byte_identical compares aggregate serialization "
              "against the same size at jobs=1; max_rss is process-wide "
              "and monotone across sweep entries\",\n";
      json += "  \"jobs_sweep\": [\n";
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepResult& r = sweep[i];
        json += uucs::strprintf(
            "    { \"participants\": %zu, \"jobs\": %zu, \"workers\": %zu, "
            "\"runs\": %zu, \"wall_s\": %.3f, \"cpu_s\": %.3f, "
            "\"merge_s\": %.3f, \"runs_per_s\": %.1f, \"efficiency\": %.3f, "
            "\"max_rss_mib\": %.1f, \"byte_identical\": %s }%s\n",
            r.participants, r.jobs_flag, r.workers, r.runs, r.wall_s, r.cpu_s,
            r.merge_s, r.runs_per_s, r.efficiency,
            static_cast<double>(r.max_rss_bytes) / (1024.0 * 1024.0),
            r.byte_identical ? "true" : "false",
            i + 1 < sweep.size() ? "," : "");
      }
      json += "  ]\n";
    }
    json += "}\n";
    uucs::write_file(json_path, json);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return sweep_ok ? 0 : 1;
}
