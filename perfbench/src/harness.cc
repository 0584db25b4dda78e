#include "harness.h"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace cbfww::perfbench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t ProcCpuNs(pid_t pid) {
  if (pid <= 0) return 0;
  std::string stat = ReadSmallFile("/proc/" + std::to_string(pid) + "/stat");
  // utime/stime are fields 14/15; scan from the last ')' so a command name
  // with spaces cannot shift them.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(stat.c_str() + close + 1,
                  " %*s %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return 0;
  return (utime + stime) * (1000000000ull / static_cast<uint64_t>(ticks));
}

namespace {

/// A "Field:   123 kB" value of /proc/<pid>/status, in KiB; 0 if absent.
uint64_t StatusKib(const std::string& pid, const std::string& field) {
  std::string status = ReadSmallFile("/proc/" + pid + "/status");
  size_t at = status.find(field);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + field.size(), nullptr, 10);
}

}  // namespace

uint64_t ProcPeakRssKib(pid_t pid) {
  return StatusKib(std::to_string(pid), "VmHWM:");
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current resident set (Linux 4.0+).
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t SelfPeakRssKib() { return StatusKib("self", "VmHWM:"); }

uint64_t SelfAnonRssKib() { return StatusKib("self", "RssAnon:"); }

uint32_t SelfThreadCount() {
  std::string stat = ReadSmallFile("/proc/self/stat");
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  // num_threads is field 20: the 18th after the command name.
  long threads = 0;
  if (std::sscanf(stat.c_str() + close + 1,
                  " %*s %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %*u %*u %*d "
                  "%*d %*d %*d %ld",
                  &threads) != 1) {
    return 0;
  }
  return static_cast<uint32_t>(threads);
}

uint64_t StealTicks() {
  std::string stat = ReadSmallFile("/proc/stat");
  if (stat.rfind("cpu ", 0) != 0) return 0;
  unsigned long long f[8] = {};
  if (std::sscanf(stat.c_str() + 4, "%llu %llu %llu %llu %llu %llu %llu %llu",
                  &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6],
                  &f[7]) != 8) {
    return 0;
  }
  return f[7];
}

double CalibrationLoopMs() {
  const uint64_t start = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < 40000000u; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  // Keep the loop's result observable so it is not folded away.
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - start) / 1e6;
}

double AwaitQuietHost(double budget_s) {
  // Quiet runs saw about one steal tick per CPU-second; stolen runs saw
  // 40 or more. The limit sits between, for a 4-CPU, 250 ms probe.
  constexpr uint64_t kStealLimit = 3;
  constexpr uint64_t kProbeNs = 250'000'000;
  const uint64_t start = NowNs();
  const long cpus = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  for (;;) {
    const uint64_t steal0 = StealTicks();
    const uint64_t until = NowNs() + kProbeNs;
    // Spin in forked children rather than threads: threads would change
    // which malloc arenas and cached stacks the system's threads get next,
    // and with them the peak RSS the run reports.
    std::vector<pid_t> spinners;
    for (long i = 1; i < cpus; ++i) {
      const pid_t pid = fork();
      if (pid == 0) {
        while (NowNs() < until) {
        }
        _exit(0);
      }
      if (pid > 0) spinners.push_back(pid);
    }
    while (NowNs() < until) {
    }
    for (pid_t pid : spinners) waitpid(pid, nullptr, 0);
    const double waited = static_cast<double>(NowNs() - start) / 1e9;
    if (StealTicks() - steal0 <= kStealLimit || waited + 2.25 > budget_s) {
      return waited;
    }
    std::this_thread::sleep_for(std::chrono::seconds(2));
  }
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const size_t n = values_.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return values_[rank - 1];
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

const char* LayerName(uint8_t layer) {
  switch (layer) {
    case kLayerGateway: return "gateway";
    case kLayerNodeDirect: return "node_direct";
    case kLayerCluster: return "cluster";
    case kLayerCore: return "core";
    default: return "none";
  }
}

void SpanLog::Append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tlayer\tparent\top_class\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%s\t%s\t%u\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.op), LayerName(s.layer),
                 LayerName(s.parent), static_cast<unsigned>(s.op_class),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

double MetricList::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

const std::string& MetricList::UnitOf(const std::string& name) const {
  static const std::string kNone;
  for (const Entry& e : entries_) {
    if (e.name == name) return e.unit;
  }
  return kNone;
}

std::vector<std::string> MetricList::Names() const {
  std::vector<std::string> names;
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           FullDigits(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  out += "}";
  return out;
}

std::string FullDigits(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace cbfww::perfbench
