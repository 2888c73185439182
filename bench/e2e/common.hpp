#pragma once

// Shared pieces of uucs_bench: the one clock every span is stamped with,
// sample statistics, the metric list a run prints, resource probes, the
// host/build fingerprint and the Chrome trace-event writer.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace uucs_bench {

/// Every stamp in the benchmark, on any thread, comes from this clock, so
/// stage durations of one request subtract exactly.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank percentile (p in [0, 1]); sorts `v` in place. 0 when empty.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// CPU seconds consumed by every thread of this process so far.
double process_cpu_s();
/// CPU seconds consumed by the calling thread so far.
double thread_cpu_s();
/// Peak resident set size of this process (getrusage high-water mark).
double peak_rss_mib();
/// CPUs this process may run on (sched_getaffinity), at least 1.
std::size_t usable_cpus();

/// FNV-1a 64-bit digest, chainable.
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t h = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; printed as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// {"name": {"value": v, "unit": "u"}, ...} with full double precision.
  std::string json() const;

 private:
  std::vector<Metric> items_;
};

/// What one workload invocation produced. `end_to_end` is measured with
/// tracing off, `per_layer` only by a traced run; `report` carries the
/// workload's own context (sample counts, frozen parameters, the ledger)
/// as the body of a JSON object.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t busy_threads = 0;
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<std::string> problems;  ///< failed checks, one line each
  std::string report;                 ///< "key": value, ... (no braces)

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Host and build identity written into every report: nproc, affinity,
/// CPU model, kernel, the journal directory's filesystem, build type, git
/// revision, and whether the workload's busy threads exceed the cores.
std::string fingerprint_json(const std::string& journal_dir,
                             std::size_t busy_threads);

/// Chrome trace-event JSON ("X" complete events), written at exit.
class ChromeTrace {
 public:
  void complete(const char* name, const char* tid, std::int64_t start_ns,
                std::int64_t dur_ns, std::uint64_t id);
  bool empty() const { return events_.empty(); }
  /// Timestamps are made relative to `origin_ns`.
  void write(const std::string& path, std::int64_t origin_ns) const;

 private:
  struct Event {
    const char* name;
    const char* tid;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;
  };
  std::vector<Event> events_;
};

/// JSON string literal with escaping.
std::string json_str(std::string_view s);
/// Shortest round-tripping decimal form of `v` ("null" for non-finite).
std::string json_num(double v);

}  // namespace uucs_bench
