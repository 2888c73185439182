#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace uucs_bench {

/// One invocation's settings (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 2004;
  double seconds = 20.0;       ///< measured time; set-up comes on top
  bool trace = false;          ///< traced run: per-layer metrics only
  bool smoke = false;          ///< tiny sizes, for the ctest smoke
  std::string state_dir;       ///< journals and scratch files go here
  std::string trace_out;       ///< Chrome trace-event file (traced runs)
  std::string expected;        ///< expected study digests for --seed 2004
};

/// ingest-upload / ingest-fetch: a real ingest server in this process,
/// driven over TCP by one generator thread.
RunResult run_ingest(const Options& opt);

/// study-stream / study-records: run_controlled_study at jobs = nproc,
/// then the paper's figure set.
RunResult run_study(const Options& opt);

}  // namespace uucs_bench
