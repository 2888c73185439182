#pragma once

/// Shared helpers for the figure/table reproduction benches. Each bench is a
/// standalone binary that reruns the controlled study (seeded, virtual time)
/// and prints the paper's published numbers next to the reproduced ones.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/metrics.hpp"
#include "study/controlled_study.hpp"
#include "util/strings.hpp"

namespace uucs::bench {

/// CPUs this process may run on (sched_getaffinity), 0 when unknown: the
/// cores a recorded number really had.
inline int affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Session-engine worker count from a `--jobs N|auto` flag; "auto" or 0
/// (the default) means one worker per hardware thread. Any value is
/// bit-identical.
inline std::size_t parse_jobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--jobs") {
      const std::string v = argv[i + 1];
      return v == "auto" ? 0 : std::strtoul(v.c_str(), nullptr, 10);
    }
  }
  return 0;
}

/// One calibration + controlled study per process, reused by every section
/// of a bench binary.
inline const study::ControlledStudyOutput& default_study() {
  static const study::ControlledStudyOutput out = [] {
    study::ControlledStudyConfig config;
    return study::run_controlled_study(config);
  }();
  return out;
}

/// A larger population for analyses that need statistical power (the paper
/// notes its own skill results are "preliminary"; the scaled run shows the
/// same machinery with tighter estimates).
inline const study::ControlledStudyOutput& scaled_study(std::size_t participants) {
  static std::size_t cached_n = 0;
  static study::ControlledStudyOutput out;
  if (cached_n != participants) {
    study::ControlledStudyConfig config;
    config.participants = participants;
    config.seed = 777;
    out = study::run_controlled_study(config, default_study().params);
    cached_n = participants;
  }
  return out;
}

inline std::string fmt(double v, int decimals = 2) {
  return strprintf("%.*f", decimals, v);
}

inline std::string fmt_opt(const std::optional<double>& v, int decimals = 2) {
  return v ? fmt(*v, decimals) : "*";
}

inline std::string fmt_ca(const std::optional<stats::MeanCi>& ci) {
  if (!ci) return "*";
  return strprintf("%.2f (%.2f,%.2f)", ci->mean, ci->lo, ci->hi);
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace uucs::bench
