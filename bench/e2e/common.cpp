#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>

#ifndef UUCS_BENCH_BUILD_TYPE
#define UUCS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef UUCS_SOURCE_DIR
#define UUCS_SOURCE_DIR "."
#endif

namespace uucs_bench {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size());
  return v[idx - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t h) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i) out += ", ";
    out += json_str(items_[i].name) + ": {\"value\": " + json_num(items_[i].value) +
           ", \"unit\": " + json_str(items_[i].unit) + "}";
  }
  return out + "}";
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  return "0x" + hex64(static_cast<std::uint64_t>(st.f_type)).substr(8);
}

/// HEAD of the source tree, or "none" outside a git work tree (the
/// benchmark's own checkout need not be one).
std::string git_revision() {
  const std::string root = UUCS_SOURCE_DIR;
  if (access((root + "/.git").c_str(), F_OK) != 0) return "none";
  const std::string cmd = "git -C '" + root + "' rev-parse HEAD 2>/dev/null";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return "none";
  char buf[64] = {0};
  const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
  pclose(p);
  std::string rev = got ? buf : "";
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
  return rev.empty() ? "none" : rev;
}

}  // namespace

std::string fingerprint_json(const std::string& journal_dir,
                             std::size_t busy_threads) {
  utsname un{};
  uname(&un);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(nproc);
  out += ", \"affinity\": " + json_str(affinity_list());
  out += ", \"usable_cpus\": " + std::to_string(usable_cpus());
  out += ", \"cpu_model\": " + json_str(cpu_model());
  out += ", \"kernel\": " + json_str(std::string(un.sysname) + " " + un.release);
  out += ", \"journal_fs\": " + json_str(fs_type(journal_dir));
  out += ", \"build_type\": " + json_str(UUCS_BENCH_BUILD_TYPE);
  out += ", \"git_rev\": " + json_str(git_revision());
  out += ", \"busy_threads\": " + std::to_string(busy_threads);
  out += std::string(", \"oversubscribed\": ") +
         (busy_threads > usable_cpus() ? "true" : "false");
  return out + "}";
}

void ChromeTrace::complete(const char* name, const char* tid, std::int64_t start_ns,
                           std::int64_t dur_ns, std::uint64_t id) {
  events_.push_back(Event{name, tid, start_ns, std::max<std::int64_t>(dur_ns, 0), id});
}

void ChromeTrace::write(const std::string& path, std::int64_t origin_ns) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "uucs_bench: cannot write trace %s\n", path.c_str());
    return;
  }
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": \"%s\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu}}%s\n",
                 e.name, e.tid, static_cast<double>(e.start_ns - origin_ns) / 1e3,
                 static_cast<double>(e.dur_ns) / 1e3,
                 static_cast<unsigned long long>(e.id),
                 i + 1 < events_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

}  // namespace uucs_bench
