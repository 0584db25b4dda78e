#ifndef CBFWW_PERFBENCH_HARNESS_H_
#define CBFWW_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the load generators: clocks, latency
// samples, /proc readers, host diagnostics, the span log of traced runs and
// the metric list printed as the result line.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace cbfww::perfbench {

/// Monotonic wall clock in nanoseconds.
uint64_t NowNs();
/// CPU time of the calling thread.
uint64_t ThreadCpuNs();
/// CPU time of this whole process (all threads, live and exited).
uint64_t ProcessCpuNs();
/// utime + stime of another process from /proc/<pid>/stat (10 ms ticks);
/// 0 when the process is gone.
uint64_t ProcCpuNs(pid_t pid);
/// Peak resident set (VmHWM) of a process in KiB; 0 when unreadable.
uint64_t ProcPeakRssKib(pid_t pid);
/// Returns freed heap to the system and restarts this process's peak
/// resident set (VmHWM) from its current size.
void ResetPeakRss();
/// Peak resident set of this process in KiB since the last ResetPeakRss().
uint64_t SelfPeakRssKib();
/// Anonymous resident memory of this process in KiB (RssAnon): what a
/// child forked now inherits.
uint64_t SelfAnonRssKib();
/// Threads of this process right now.
uint32_t SelfThreadCount();
/// Steal ticks summed over all CPUs, from /proc/stat.
uint64_t StealTicks();

/// Wall milliseconds of a fixed single-thread integer loop: a run taken
/// while the host is slow shows a longer loop.
double CalibrationLoopMs();

/// Waits until the hypervisor is not stealing this VM's CPUs, for at most
/// `budget_s` seconds; returns the seconds waited. Each probe keeps every
/// CPU busy for 250 ms and counts /proc/stat steal ticks across it (an idle
/// vCPU accrues no steal, so only a busy probe sees a contended host);
/// after a stolen probe it sleeps 2 s and probes again. Call it only while
/// the process runs no other threads: it forks.
double AwaitQuietHost(double budget_s);

/// Latency samples of one op class, in microseconds.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 100].
  double Percentile(double p) const;
  void Merge(const Samples& other);

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// One timed call made by the benchmark (traced runs only). `op` identifies
/// the generated op, so spans of one op share it across passes; `op_class`
/// is its OpClass (page, query, modify).
struct Span {
  uint64_t op = 0;
  uint8_t layer = 0;
  uint8_t parent = 0;
  uint8_t op_class = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

enum Layer : uint8_t {
  kLayerNone = 0,
  kLayerGateway,     // HTTP round trip through the gateway
  kLayerNodeDirect,  // HTTP round trip straight to one fleet node
  kLayerCluster,     // TryServePage/TryServeQuery/TryDispatch to completion
  kLayerCore,        // Warehouse call on a standalone shard replica
};
const char* LayerName(uint8_t layer);

/// Spans in memory until the run ends; one log per recording thread.
class SpanLog {
 public:
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);
  /// Writes one tab-separated line per span.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// The result line: named metrics with units, in insertion order.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  const std::string& UnitOf(const std::string& name) const;
  std::vector<std::string> Names() const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Formats a double with every significant digit.
std::string FullDigits(double value);

}  // namespace cbfww::perfbench

#endif  // CBFWW_PERFBENCH_HARNESS_H_
