// The repository benchmark: three workloads over the warehouse's public
// entry points, end-to-end metrics with output checks, and a traced mode
// that decomposes them by layer. See perfbench/README.md.
//
//   cbfww_perfbench --workload analytics|churn|fleet --seed N
//                   --seconds S --trace 0|1 [--scale full|tiny]
//                   [--work-dir DIR]
//
// The last line of stdout is the JSON result; lines before it starting
// with '#' are diagnostics (host speed, determinism digest, span file).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/warehouse_cluster.h"
#include "corpus/web_corpus.h"
#include "drivers.h"
#include "gateway/gateway_server.h"
#include "gateway/node_process.h"
#include "harness.h"
#include "server/http_client.h"
#include "util/hash.h"
#include "util/strings.h"
#include "workload/workload_spec.h"

namespace cbfww::perfbench {
namespace {

namespace fs = std::filesystem;
using workload::DistKind;
using workload::IngestTarget;
using workload::WorkloadSpec;

// A p99 is reported only with at least ten samples beyond it.
constexpr size_t kMinClassSamples = 1000;
// An untraced run sets up and measures this many times over and reports
// the median of each metric, so a host slowdown that hits one or two
// repetitions does not move the result.
constexpr int kRepeats = 5;
// A repetition's measured phase never runs longer than this, so that a run
// on a badly stalled host still ends in time.
constexpr double kMaxPhaseSeconds = 20.0;
// Journal-on/journal-off pairs behind durability.overhead_ratio.
constexpr int kOverheadPairs = 3;
// Longest a run waits, over all its repetitions, for hypervisor steal to
// subside before measuring (see AwaitQuietHost).
constexpr double kQuietWaitBudgetSeconds = 25.0;

enum class Kind { kInProcess, kFleet };

/// One workload: traffic mix, system shape, and run shape. Why each
/// exists is in README.md.
struct Workload {
  std::string name;
  Kind kind = Kind::kInProcess;
  WorkloadSpec spec;
  /// Shards per cluster (fleet: per node).
  uint32_t shards = 2;
  /// In-process: ops in flight from the one load thread. With 2, a shard
  /// often runs dry and its worker backs off into 10 µs–1 ms sleeps
  /// (SpscQueue::Backoff) that the next op waits out; trial runs then
  /// swung by 25–45% whenever the host showed steal time. 8 keeps both
  /// shards fed.
  uint32_t window = 8;
  /// Wire: keep-alive connections, one load-generator thread each.
  uint32_t connections = 2;
  uint32_t nodes = 0;
  uint32_t replication = 0;
  /// Journal per shard with segment checkpoints every this many events
  /// per shard (0: no journal).
  uint64_t checkpoint_every_events = 0;
  /// Clamp of the weak-consistency polling cycle, in simulated time (0:
  /// the warehouse defaults of 10 minutes and 2 days).
  SimTime min_poll_interval = 0;
  SimTime max_poll_interval = 0;
  /// Ops of the workload's mix in the fixed warm-up, after its page sweep.
  uint64_t warmup_ops = 0;
  /// The measured phase is a fixed amount of work: --seconds times this
  /// rate, which is what the workload sustains on a 4-vCPU x86 host. A
  /// faster or slower build runs the same ops in less or more time.
  uint64_t nominal_ops_per_s = 0;
};

WorkloadSpec BaseSpec(bool tiny) {
  WorkloadSpec spec;
  spec.corpus_sites = tiny ? 3 : 12;
  spec.corpus_pages_per_site = tiny ? 40 : 250;
  spec.corpus_topics = tiny ? 4 : 10;
  spec.users = 64;
  spec.mean_gap_us = 2000;
  spec.loop = workload::LoopMode::kClosed;
  return spec;
}

std::optional<Workload> MakeWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  w.spec = BaseSpec(tiny);
  w.spec.name = name;
  const uint64_t scale = tiny ? 10 : 1;
  if (name == "analytics") {
    w.kind = Kind::kInProcess;
    w.spec.mix = {.page_visit = 0.38, .query = 0.24, .scan = 0.24,
                  .ingest = 0.14};
    w.spec.dist = DistKind::kUniform;
    w.spec.ingest_target = IngestTarget::kUniform;
    w.shards = 2;
    w.window = 8;
    w.warmup_ops = 500 / scale;
    w.nominal_ops_per_s = 1800;
  } else if (name == "churn") {
    w.kind = Kind::kInProcess;
    w.spec.mix = {.page_visit = 0.61, .query = 0.02, .scan = 0.02,
                  .ingest = 0.35};
    w.spec.dist = DistKind::kZipfian;
    w.spec.zipf_theta = 0.9;
    w.spec.hot_set_fraction = 0.05;
    w.spec.ingest_target = IngestTarget::kHot;
    w.shards = 2;
    w.window = 8;
    w.checkpoint_every_events = tiny ? 4000 : 40000;
    // An object's first poll falls due one maximum cycle after its first
    // fetch, as its history then holds no modification; with the 2-day
    // default no poll would fall due in a run. With a 1-minute ceiling
    // every object is polled a little before the middle of the measured
    // phase and again near its end (the warm-up spans about 14 simulated
    // seconds, a repetition about 120). In between, hot containers,
    // modified every few simulated seconds, are polled and refreshed
    // every 5 s.
    w.min_poll_interval = 5 * kSecond;
    w.max_poll_interval = tiny ? 10 * kSecond : kMinute;
    w.warmup_ops = 4000 / scale;
    w.nominal_ops_per_s = 15000;
  } else if (name == "fleet") {
    w.kind = Kind::kFleet;
    w.spec.mix = {.page_visit = 0.594, .query = 0.028, .scan = 0.028,
                  .ingest = 0.35};
    w.spec.dist = DistKind::kZipfian;
    w.spec.zipf_theta = 0.9;
    w.spec.hot_set_fraction = 0.05;
    w.spec.ingest_target = IngestTarget::kHot;
    w.shards = 1;
    w.connections = 2;
    w.nodes = 3;
    w.replication = 2;
    w.warmup_ops = 1000 / scale;
    w.nominal_ops_per_s = 4500;
  } else {
    return std::nullopt;
  }
  return w;
}

corpus::CorpusOptions CorpusFor(const Workload& w) {
  corpus::CorpusOptions copts;
  copts.num_sites = w.spec.corpus_sites;
  copts.pages_per_site = w.spec.corpus_pages_per_site;
  copts.topic.num_topics = w.spec.corpus_topics;
  // The corpus is fixed; the seed only picks the op stream.
  copts.seed = 2003;
  return copts;
}

/// Cluster options of one cluster (fleet: of one node). The memory tier
/// is the benches' standard 24 MiB split over every shard of the system.
cluster::ClusterOptions ClusterFor(const Workload& w,
                                   const std::string& journal_dir) {
  const uint64_t total_shards =
      static_cast<uint64_t>(w.shards) * std::max<uint32_t>(1, w.nodes);
  cluster::ClusterOptions clopts;
  clopts.num_shards = w.shards;
  clopts.warehouse.memory_bytes = (24ull << 20) / total_shards;
  clopts.warehouse.disk_bytes = (2ull << 30) / total_shards;
  clopts.warehouse.enable_topic_sensor = false;
  if (w.max_poll_interval > 0) {
    clopts.warehouse.constraints.min_poll_interval = w.min_poll_interval;
    clopts.warehouse.constraints.max_poll_interval = w.max_poll_interval;
  }
  if (w.checkpoint_every_events > 0 && !journal_dir.empty()) {
    clopts.durability.dir = journal_dir;
    clopts.durability.segment_checkpoints = true;
    clopts.durability.checkpoint_every_events = w.checkpoint_every_events;
  }
  return clopts;
}

/// Sum of the live WAL files' sizes under a journal directory.
uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  if (dir.empty() || !fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().filename().string().find(".wal.") != std::string::npos) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

/// The system under test: an in-process cluster, or a gateway over forked
/// nodes.
struct Backend {
  std::unique_ptr<cluster::WarehouseCluster> cluster;
  std::vector<gateway::NodeProcess> nodes;
  std::vector<uint16_t> node_ports;
  std::vector<std::string> node_ids;
  /// Anonymous resident memory of this process when each node was forked:
  /// the pages the node inherited and shares with it.
  std::vector<uint64_t> node_inherited_kib;
  std::unique_ptr<gateway::GatewayServer> gateway;
  std::string journal_dir;

  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  ~Backend() {
    if (gateway) gateway->Stop();
    for (auto& node : nodes) node.Kill();
    cluster.reset();
    if (!journal_dir.empty()) {
      std::error_code ec;
      fs::remove_all(journal_dir, ec);
    }
  }

  uint16_t port() const { return gateway ? gateway->port() : 0; }
  /// Peak resident memory of the nodes beyond what each inherited at fork,
  /// which this process already counts.
  uint64_t NodesPeakRssKib() const {
    uint64_t total = 0;
    for (size_t n = 0; n < nodes.size(); ++n) {
      const uint64_t peak = ProcPeakRssKib(nodes[n].pid());
      total += peak > node_inherited_kib[n] ? peak - node_inherited_kib[n] : 0;
    }
    return total;
  }
  /// Peak resident memory of the whole system since ResetPeakRss().
  uint64_t PeakRssKib() const { return SelfPeakRssKib() + NodesPeakRssKib(); }
};

/// The warm-up stream, the same for every seed: one visit to every page
/// (so the measured phase starts with every page warehoused and query
/// cost no longer grows with progress), then `warmup_ops` ops of the
/// workload's own mix from a fixed seed.
std::vector<IdOp> BuildWarmup(const Workload& w,
                              const corpus::WebCorpus& corpus) {
  constexpr uint64_t kWarmupIdBase = 1ull << 62;
  constexpr uint64_t kWarmupSeed = 0x3a17f00d;
  std::vector<IdOp> ops;
  SimTime now = kMillisecond;
  for (corpus::PageId page = 0; page < corpus.num_pages(); ++page) {
    IdOp op;
    op.id = kWarmupIdBase + ops.size();
    op.op.type = workload::OpType::kPageVisit;
    op.op.page = page;
    op.op.user = static_cast<uint32_t>(page % w.spec.users);
    op.op.time = now;
    now += static_cast<SimTime>(w.spec.mean_gap_us);
    ops.push_back(op);
  }
  WorkloadSpec spec = w.spec;
  spec.seed = kWarmupSeed;
  workload::OpGenerator gen(&corpus, spec);
  for (uint64_t i = 0; i < w.warmup_ops; ++i) {
    IdOp op{kWarmupIdBase + ops.size(), gen.Next()};
    op.op.time += now;
    ops.push_back(op);
  }
  return ops;
}

/// Everything one run shares: the workload, its seed, the read-only corpus
/// copy the load generator draws ops from, and the warm-up stream.
struct Context {
  Workload w;
  uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;
  std::shared_ptr<const corpus::WebCorpus> gen_corpus;
  std::vector<IdOp> warmup;
  int journal_serial = 0;

  /// Streams that drive a setup's warm-up: the warm-up ops dealt out
  /// round-robin, one stream per connection.
  std::vector<OpSource> WarmupSources() const {
    const size_t n = w.kind == Kind::kInProcess ? 1 : w.connections;
    std::vector<std::vector<IdOp>> split(n);
    for (size_t i = 0; i < warmup.size(); ++i) split[i % n].push_back(warmup[i]);
    std::vector<OpSource> out;
    for (auto& ops : split) out.emplace_back(std::move(ops));
    return out;
  }
  /// The seeded measured streams, one per connection (in-process: one),
  /// continuing the simulated clock after the warm-up.
  std::vector<OpSource> MeasuredSources() const {
    const SimTime after = warmup.empty() ? 0 : warmup.back().op.time;
    std::vector<OpSource> out;
    if (w.kind == Kind::kInProcess) {
      WorkloadSpec spec = w.spec;
      spec.seed = seed;
      out.emplace_back(gen_corpus.get(), spec, 0, after);
      return out;
    }
    for (uint32_t c = 0; c < w.connections; ++c) {
      WorkloadSpec spec = w.spec;
      spec.seed = HashCombine(seed, c + 1);
      out.emplace_back(gen_corpus.get(), spec, static_cast<uint64_t>(c) << 48,
                       after);
    }
    return out;
  }
  std::string NewJournalDir() {
    if (w.checkpoint_every_events == 0) return {};
    return work_dir + "/" + w.name + "-" + std::to_string(getpid()) + "-" +
           std::to_string(journal_serial++);
  }
  PhaseLimits MeasuredLimits() const {
    PhaseLimits limits;
    limits.ops = static_cast<uint64_t>(seconds / kRepeats *
                                       static_cast<double>(w.nominal_ops_per_s));
    limits.min_class_samples = kMinClassSamples;
    limits.max_seconds = kMaxPhaseSeconds;
    return limits;
  }
};

/// One built and warmed system plus the op streams that continue into
/// its measured phase.
struct Setup {
  std::unique_ptr<Backend> backend;
  std::vector<OpSource> sources;
  double seconds = 0.0;
  PhaseResult warmup;
  uint64_t journal_bytes = 0;
};

Status BuildBackend(Context& ctx, bool journal, Backend& b) {
  const Workload& w = ctx.w;
  const corpus::CorpusOptions copts = CorpusFor(w);
  b.journal_dir = journal ? ctx.NewJournalDir() : std::string();
  const cluster::ClusterOptions clopts = ClusterFor(w, b.journal_dir);
  if (w.kind == Kind::kFleet) {
    std::vector<gateway::NodeEndpoint> endpoints;
    for (uint32_t n = 0; n < w.nodes; ++n) {
      gateway::NodeProcessOptions nopts;
      nopts.node_id = StrFormat("node-%u", n);
      nopts.corpus = copts;
      nopts.cluster = clopts;
      nopts.server.io_threads = 1;
      b.node_inherited_kib.push_back(SelfAnonRssKib());
      auto node = gateway::NodeProcess::Spawn(nopts);
      if (!node.ok()) return node.status();
      endpoints.push_back({nopts.node_id, "127.0.0.1", node->port()});
      b.node_ports.push_back(node->port());
      b.node_ids.push_back(nopts.node_id);
      b.nodes.push_back(std::move(*node));
    }
    gateway::GatewayOptions gopts;
    gopts.replication = w.replication;
    b.gateway = std::make_unique<gateway::GatewayServer>(std::move(endpoints),
                                                         gopts);
    return b.gateway->Start();
  }
  b.cluster = std::make_unique<cluster::WarehouseCluster>(copts, std::nullopt,
                                                          clopts);
  return b.cluster->durability_status();
}

FleetAckCheck AckCheckFor(const Context& ctx, Backend& b) {
  gateway::GatewayServer* gw = b.gateway.get();
  return FleetAckCheck{ctx.w.replication, [gw](const std::string& raw) {
                         return gw->ReplicasForRaw(raw);
                       }};
}

/// Runs one phase on whichever backend the workload uses.
PhaseResult RunPhase(Context& ctx, Backend& b, std::vector<OpSource>& sources,
                     const PhaseLimits& limits, bool record) {
  if (ctx.w.kind == Kind::kInProcess) {
    PhaseResult r =
        RunClusterPhase(*b.cluster, sources[0], limits, ctx.w.window, record);
    b.cluster->Drain();
    return r;
  }
  return RunWirePhase(b.port(), sources, limits, AckCheckFor(ctx, b), record);
}

PhaseResult RunWarmup(Context& ctx, Backend& b, bool record) {
  std::vector<OpSource> sources = ctx.WarmupSources();
  PhaseLimits limits;
  limits.ops = ctx.warmup.size();
  limits.check_topk_rows = false;
  return RunPhase(ctx, b, sources, limits, record);
}

/// Builds the system and runs its fixed warm-up; the timed span is the
/// workload's set-up time. The peak RSS restarts here, so each setup's
/// system reports its own.
Result<Setup> DoSetup(Context& ctx, bool record_warmup) {
  Setup s;
  ResetPeakRss();
  const uint64_t t0 = NowNs();
  s.backend = std::make_unique<Backend>();
  Status built = BuildBackend(ctx, true, *s.backend);
  if (!built.ok()) return built;
  s.warmup = RunWarmup(ctx, *s.backend, record_warmup);
  s.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  s.sources = ctx.MeasuredSources();
  s.journal_bytes = WalBytes(s.backend->journal_dir);
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string DigestOf(double sim_sum, uint64_t pages, const uint64_t* by,
                     uint64_t journal_bytes) {
  return StrFormat("sim_sum_us=%.0f pages=%llu served_by=%llu,%llu,%llu,%llu "
                   "journal_bytes=%llu",
                   sim_sum, static_cast<unsigned long long>(pages),
                   static_cast<unsigned long long>(by[0]),
                   static_cast<unsigned long long>(by[1]),
                   static_cast<unsigned long long>(by[2]),
                   static_cast<unsigned long long>(by[3]),
                   static_cast<unsigned long long>(journal_bytes));
}

/// The end-to-end metrics of one measured phase.
MetricList EndToEnd(const PhaseResult& r, double setup_s,
                    uint64_t peak_rss_kib) {
  MetricList m;
  uint64_t done = 0;
  for (size_t c = 0; c < kNumClasses; ++c) done += r.completed[c];
  m.Add("throughput_ops_s", r.wall_s > 0 ? static_cast<double>(done) / r.wall_s : 0.0,
        "ops/s");
  for (size_t c = 0; c < kNumClasses; ++c) {
    const std::string name = ClassName(c);
    m.Add(name + "_p50_ms", r.latency_us[c].Percentile(50) / 1e3, "ms");
    m.Add(name + "_p99_ms", r.latency_us[c].Percentile(99) / 1e3, "ms");
  }
  m.Add("sim_page_latency_ms",
        Ratio(r.sim_sum_us, static_cast<double>(r.sim_pages)) / 1e3, "ms");
  m.Add("peak_rss_mb", static_cast<double>(peak_rss_kib) / 1024.0, "MiB");
  m.Add("setup_s", setup_s, "s");
  return m;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
}

/// Validates a measured phase: output checks passed and every class has
/// enough samples for its p99. Prints why not.
bool PhaseCorrect(const PhaseResult& r) {
  bool ok = true;
  if (r.check_failures > 0) {
    std::printf("# check failed (%llu times): %s\n",
                static_cast<unsigned long long>(r.check_failures),
                r.first_failure.c_str());
    ok = false;
  }
  for (size_t c = 0; c < kNumClasses; ++c) {
    if (r.completed[c] < kMinClassSamples) {
      std::printf("# too few %s samples for a p99: %llu\n", ClassName(c),
                  static_cast<unsigned long long>(r.completed[c]));
      ok = false;
    }
  }
  return ok;
}

void PrintPhase(const char* label, const PhaseResult& r) {
  std::printf("# %s: wall_s=%.3f attempted=%llu errors=%llu shed=%llu "
              "page=%llu query=%llu modify=%llu checks=%llu\n",
              label, r.wall_s, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.errors),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.completed[kClassPage]),
              static_cast<unsigned long long>(r.completed[kClassQuery]),
              static_cast<unsigned long long>(r.completed[kClassModify]),
              static_cast<unsigned long long>(r.checks));
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

int RunUntraced(Context& ctx) {
  const double calib_before = CalibrationLoopMs();
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t steal = 0;
  double waited = 0.0;
  std::vector<MetricList> repeats;
  std::vector<std::string> digests;
  for (int i = 0; i < kRepeats; ++i) {
    waited += AwaitQuietHost(kQuietWaitBudgetSeconds - waited);
    // Each repetition builds a fresh system; the previous one is torn
    // down first.
    auto s = DoSetup(ctx, false);
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.status().ToString().c_str());
      return 1;
    }
    if (s->warmup.check_failures > 0) {
      std::printf("# warm-up check failed: %s\n",
                  s->warmup.first_failure.c_str());
      correct = false;
    }
    const uint64_t steal0 = StealTicks();
    PhaseResult r = RunPhase(ctx, *s->backend, s->sources,
                             ctx.MeasuredLimits(), false);
    steal += StealTicks() - steal0;
    PrintPhase("measured", r);
    correct = PhaseCorrect(r) && correct;
    attempted += r.attempted;
    failed += r.errors + r.shed;
    repeats.push_back(EndToEnd(r, s->seconds, s->backend->PeakRssKib()));
    digests.push_back(
        "warm-up " +
        DigestOf(s->warmup.sim_sum_us, s->warmup.sim_pages,
                 s->warmup.served_by, s->journal_bytes) +
        "; measured " + DigestOf(r.sim_sum_us, r.sim_pages, r.served_by, 0));
  }
  const double calib_after = CalibrationLoopMs();

  if (ctx.w.kind == Kind::kInProcess) {
    // One seed, one stream: every repetition must model the same access
    // times and write the same journal bytes.
    std::printf("# model digest: %s\n", digests.front().c_str());
    for (const std::string& d : digests) {
      if (d != digests.front()) {
        std::printf("# determinism check failed: repetitions differ:\n"
                    "#   %s\n#   %s\n",
                    digests.front().c_str(), d.c_str());
        correct = false;
      }
    }
  }
  MetricList m;
  std::string setups;
  for (const std::string& name : repeats.front().Names()) {
    std::vector<double> values;
    for (const MetricList& r : repeats) values.push_back(r.Get(name));
    m.Add(name, Median(values), repeats.front().UnitOf(name));
    if (name == "setup_s") {
      for (double v : values) setups += StrFormat("%.3f,", v);
    }
  }
  std::printf("# host: calibration_ms_before=%.3f calibration_ms_after=%.3f "
              "steal_ticks=%llu waited_for_quiet_s=%.2f setup_s=%s\n",
              calib_before, calib_after, static_cast<unsigned long long>(steal),
              waited, setups.c_str());
  PrintResult(correct && attempted > 0, attempted, failed, m);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

/// Counters read at the boundaries of the traced phase.
struct Snapshot {
  uint64_t process_cpu_ns = 0;
  std::vector<uint64_t> shard_busy_ns;
  uint64_t queue_high_water = 0;
  core::Warehouse::Counters counters;
  uint64_t distinct_pages = 0;
  // Fleet: per node.
  std::vector<uint64_t> node_cpu_ns;
  std::vector<uint64_t> node_io_busy_ns;
  std::vector<uint64_t> node_shard_busy_ns;
  uint64_t node_requests = 0;
  uint64_t node_503 = 0;
};

uint64_t SumMetric(const std::string& text, const std::string& prefix) {
  uint64_t total = 0;
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos > 0 && text[pos - 1] != '\n') {
      pos += prefix.size();
      continue;
    }
    size_t space = text.find(' ', pos);
    if (space == std::string::npos) break;
    total += std::strtoull(text.c_str() + space + 1, nullptr, 10);
    pos = space;
  }
  return total;
}

uint64_t MaxMetric(const std::string& text, const std::string& prefix) {
  uint64_t best = 0;
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    size_t space = text.find(' ', pos);
    if (space == std::string::npos) break;
    best = std::max<uint64_t>(best,
                              std::strtoull(text.c_str() + space + 1, nullptr, 10));
    pos = space;
  }
  return best;
}

Snapshot TakeSnapshot(Backend& b) {
  Snapshot s;
  s.process_cpu_ns = ProcessCpuNs();
  if (b.cluster) {
    for (const auto& rs : b.cluster->RuntimeStats()) {
      s.shard_busy_ns.push_back(rs.busy_ns);
      s.queue_high_water = std::max(s.queue_high_water, rs.queue_depth_high_water);
    }
    b.cluster->Drain();
    cluster::ClusterReport report = b.cluster->Report();
    s.counters = report.counters;
    s.distinct_pages = report.distinct_pages;
  }
  for (size_t n = 0; n < b.nodes.size(); ++n) {
    s.node_cpu_ns.push_back(ProcCpuNs(b.nodes[n].pid()));
    server::SimpleHttpClient client;
    std::string text;
    if (client.Connect("127.0.0.1", b.node_ports[n]).ok()) {
      auto resp = client.RoundTrip("GET", "/metrics");
      if (resp.ok()) text = resp->body;
    }
    s.node_io_busy_ns.push_back(SumMetric(text, "cbfww_io_busy_ns{"));
    s.node_shard_busy_ns.push_back(SumMetric(text, "cbfww_shard_busy_ns{"));
    s.node_requests += SumMetric(text, "cbfww_http_requests_total ");
    s.node_503 += SumMetric(text, "cbfww_http_responses_total{code=\"503\"}");
    s.queue_high_water = std::max(
        s.queue_high_water,
        MaxMetric(text, "cbfww_shard_queue_depth_high_water{"));
  }
  return s;
}

/// Duration of each page visit's core span, keyed by op id.
std::unordered_map<uint64_t, uint64_t> CorePageDurations(const SpanLog& spans) {
  std::unordered_map<uint64_t, uint64_t> out;
  for (const Span& s : spans.spans()) {
    if (s.layer == kLayerCore && s.op_class == kClassPage) {
      out[s.op] = s.end_ns - s.start_ns;
    }
  }
  return out;
}

/// Median over ops of class `cls` of (upper span − lower span), in µs: the
/// upper layer's self time.
double MedianSelfUs(const std::vector<OpRecord>& upper,
                    const std::unordered_map<uint64_t, uint64_t>& lower,
                    uint8_t cls) {
  std::vector<double> diffs;
  for (const OpRecord& r : upper) {
    if (!r.ok || r.cls != cls) continue;
    auto it = lower.find(r.id);
    if (it == lower.end()) continue;
    diffs.push_back((static_cast<double>(r.end_ns - r.start_ns) -
                     static_cast<double>(it->second)) / 1e3);
  }
  return Median(diffs);
}

double MedianSpanUs(const std::vector<Span>& spans, uint8_t layer,
                    uint8_t cls) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.layer == layer && s.op_class == cls) {
      d.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return Median(d);
}

uint64_t Total(const std::vector<uint64_t>& v) {
  uint64_t t = 0;
  for (uint64_t x : v) t += x;
  return t;
}

std::vector<uint64_t> Delta(const std::vector<uint64_t>& after,
                            const std::vector<uint64_t>& before) {
  std::vector<uint64_t> d(after.size(), 0);
  for (size_t i = 0; i < after.size(); ++i) {
    d[i] = after[i] - (i < before.size() ? before[i] : 0);
  }
  return d;
}

/// Max over mean of per-shard (or per-node) busy time.
double Imbalance(const std::vector<uint64_t>& busy) {
  if (busy.empty()) return 0.0;
  const double mean = static_cast<double>(Total(busy)) /
                      static_cast<double>(busy.size());
  const double max = static_cast<double>(*std::max_element(busy.begin(), busy.end()));
  return Ratio(max, mean);
}

/// Standalone replicas of every shard of `b`'s cluster fed `warm` then
/// `ops`; core spans go to `spans`. Fails the run when a replica's
/// counters differ from its shard's: the replica must do the same work.
bool RunReplicas(Context& ctx, Backend& b, const std::vector<IdOp>& warm,
                 const std::vector<IdOp>& ops, SpanLog& spans) {
  bool same = true;
  const std::string dir = ctx.NewJournalDir();
  for (uint32_t shard = 0; shard < ctx.w.shards; ++shard) {
    ReplicaConfig config;
    config.corpus = CorpusFor(ctx.w);
    config.cluster = ClusterFor(ctx.w, dir);
    config.shard = shard;
    config.durability_dir = dir;
    auto replica = RunReplica(config, warm, ops, &spans);
    if (!replica.ok()) {
      std::printf("# replica of shard %u failed: %s\n", shard,
                  replica.status().ToString().c_str());
      same = false;
      continue;
    }
    const core::Warehouse::Counters& got = *replica;
    b.cluster->Drain();
    const core::Warehouse::Counters& want = b.cluster->shard(shard).counters();
    if (got.requests != want.requests ||
        got.origin_fetches != want.origin_fetches ||
        got.consistency_polls != want.consistency_polls ||
        got.query_cache_hits != want.query_cache_hits ||
        got.prediction_cache_hits != want.prediction_cache_hits) {
      std::printf("# replica of shard %u diverged: requests %llu vs %llu, "
                  "origin fetches %llu vs %llu\n",
                  shard, static_cast<unsigned long long>(got.requests),
                  static_cast<unsigned long long>(want.requests),
                  static_cast<unsigned long long>(got.origin_fetches),
                  static_cast<unsigned long long>(want.origin_fetches));
      same = false;
    }
  }
  std::error_code ec;
  if (!dir.empty()) fs::remove_all(dir, ec);
  return same;
}

int RunTraced(Context& ctx) {
  bool correct = true;
  const uint64_t run_start_ns = NowNs();
  const double calib_before = CalibrationLoopMs();

  // Untraced reference: same seed, same shape, one setup. The first setup
  // in a process runs slower than later ones, so a throw-away setup runs
  // first and neither side of trace_overhead.setup_s carries that.
  MetricList untraced;
  double waited = AwaitQuietHost(kQuietWaitBudgetSeconds);
  if (!DoSetup(ctx, false).ok()) return 1;
  {
    auto s = DoSetup(ctx, false);
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.status().ToString().c_str());
      return 1;
    }
    PhaseResult r = RunPhase(ctx, *s->backend, s->sources,
                             ctx.MeasuredLimits(), false);
    correct = PhaseCorrect(r) && correct;
    untraced = EndToEnd(r, s->seconds, s->backend->PeakRssKib());
  }

  // Traced phase on a fresh system.
  waited += AwaitQuietHost(kQuietWaitBudgetSeconds - waited);
  auto setup = DoSetup(ctx, true);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  Setup& s = *setup;
  Backend& b = *s.backend;
  const uint32_t own_threads = 1 + static_cast<uint32_t>(s.sources.size()) + 1;
  // Fleet: the gateway's thread count, sampled from a thread of its own.
  std::atomic<bool> sampling{true};
  std::atomic<uint32_t> threads_peak{0};
  std::atomic<uint64_t> sampler_cpu_ns{0};
  std::thread sampler;
  if (ctx.w.kind == Kind::kFleet) {
    sampler = std::thread([&] {
      const uint64_t cpu0 = ThreadCpuNs();
      while (sampling.load()) {
        uint32_t t = SelfThreadCount();
        if (t > threads_peak.load()) threads_peak.store(t);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      sampler_cpu_ns.store(ThreadCpuNs() - cpu0);
    });
  }
  const Snapshot before = TakeSnapshot(b);
  const uint64_t steal0 = StealTicks();
  PhaseResult r = RunPhase(ctx, b, s.sources, ctx.MeasuredLimits(), true);
  const uint64_t steal1 = StealTicks();
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  const Snapshot after = TakeSnapshot(b);
  PrintPhase("traced", r);
  correct = PhaseCorrect(r) && correct;
  MetricList traced = EndToEnd(r, s.seconds, b.PeakRssKib());

  uint64_t ops = 0;
  for (size_t c = 0; c < kNumClasses; ++c) ops += r.completed[c];
  const double dops = static_cast<double>(std::max<uint64_t>(1, ops));

  SpanLog spans;
  const uint8_t top =
      ctx.w.kind == Kind::kInProcess ? kLayerCluster : kLayerGateway;
  for (const OpRecord& rec : r.records) {
    spans.Add(Span{rec.id, top, kLayerNone, rec.cls, rec.start_ns, rec.end_ns});
  }

  MetricList m;
  auto put = [&m](const std::string& name, double v, const std::string& unit) {
    m.Add(name, v, unit);
  };
  // Layers a workload does not run report 0 (durability.overhead_ratio: 1).
  for (const char* name : {"gateway.page_hop_us", "gateway.modify_hop_us",
                           "gateway.scatter_hop_us", "gateway.cpu_us_per_op"}) {
    put(name, 0.0, "us");
  }
  put("gateway.modify_upstream_calls", 0.0, "count");
  put("gateway.threads_peak", 0.0, "count");
  put("server.io_busy_us_per_op", 0.0, "us");
  put("server.shed_ratio", 0.0, "ratio");

  const std::vector<uint64_t> shard_busy =
      Delta(after.shard_busy_ns, before.shard_busy_ns);
  const std::vector<uint64_t> node_shard_busy =
      Delta(after.node_shard_busy_ns, before.node_shard_busy_ns);
  const uint64_t busy_total = Total(shard_busy) + Total(node_shard_busy);
  put("cluster.shard_busy_us_per_op", static_cast<double>(busy_total) / 1e3 / dops,
      "us");
  put("cluster.busy_imbalance",
      Imbalance(b.nodes.empty() ? shard_busy : node_shard_busy), "ratio");
  put("cluster.page_wait_us", 0.0, "us");
  double cpu = 0.0;
  double serving = static_cast<double>(busy_total);
  if (b.nodes.empty()) {
    cpu = static_cast<double>(after.process_cpu_ns - before.process_cpu_ns);
  } else {
    cpu = static_cast<double>(Total(Delta(after.node_cpu_ns, before.node_cpu_ns)));
    serving += static_cast<double>(
        Total(Delta(after.node_io_busy_ns, before.node_io_busy_ns)));
  }
  put("cluster.idle_cpu_share", cpu > 0 ? 1.0 - serving / cpu : 0.0, "ratio");
  put("cluster.queue_high_water", static_cast<double>(after.queue_high_water),
      "count");

  const core::Warehouse::Counters& c0 = before.counters;
  const core::Warehouse::Counters& c1 = after.counters;
  for (const char* name : {"core.page_us", "core.query_us", "core.modify_us"}) {
    put(name, 0.0, "us");
  }
  const double cache_hits = static_cast<double>(c1.query_cache_hits - c0.query_cache_hits);
  const double cache_misses =
      static_cast<double>(c1.query_cache_misses - c0.query_cache_misses);
  put("core.query_cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses),
      "ratio");
  put("core.rows_examined_per_row",
      Ratio(static_cast<double>(r.query_candidates), static_cast<double>(r.query_rows)),
      "ratio");
  put("core.prediction_cache_hit_ratio",
      Ratio(static_cast<double>(c1.prediction_cache_hits - c0.prediction_cache_hits),
            static_cast<double>(after.distinct_pages - before.distinct_pages)),
      "ratio");
  put("core.polls_per_kop",
      static_cast<double>(c1.consistency_polls - c0.consistency_polls) * 1e3 / dops,
      "count");
  put("storage.memory_hit_ratio",
      Ratio(static_cast<double>(r.served_by[0]), static_cast<double>(r.sim_pages)),
      "ratio");
  put("storage.origin_ratio",
      Ratio(static_cast<double>(r.served_by[3]), static_cast<double>(r.sim_pages)),
      "ratio");
  put("durability.wal_bytes_per_op", 0.0, "bytes");
  put("durability.overhead_ratio", 1.0, "ratio");
  put("durability.checkpoint_ms", 0.0, "ms");

  if (ctx.w.kind == Kind::kInProcess) {
    // Core spans: the same per-shard streams on standalone replicas.
    if (!RunReplicas(ctx, b, s.warmup.ops, r.ops, spans)) correct = false;
    put("cluster.page_wait_us",
        MedianSelfUs(r.records, CorePageDurations(spans), kClassPage), "us");
    put("core.page_us", MedianSpanUs(spans.spans(), kLayerCore, kClassPage), "us");
    put("core.query_us", MedianSpanUs(spans.spans(), kLayerCore, kClassQuery), "us");
    put("core.modify_us", MedianSpanUs(spans.spans(), kLayerCore, kClassModify),
        "us");
  }

  if (ctx.w.checkpoint_every_events > 0) {
    put("durability.wal_bytes_per_op",
        Ratio(static_cast<double>(s.journal_bytes),
              static_cast<double>(ctx.warmup.size())),
        "bytes");
    std::vector<double> ckpt;
    for (int i = 0; i < 3; ++i) {
      b.cluster->Drain();
      const uint64_t t0 = NowNs();
      Status st = b.cluster->CheckpointAllShards();
      ckpt.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (!st.ok()) {
        std::printf("# checkpoint failed: %s\n", st.ToString().c_str());
        correct = false;
      }
    }
    put("durability.checkpoint_ms", Median(ckpt), "ms");
  }

  if (ctx.w.kind == Kind::kFleet) {
    const uint64_t loadgen = r.loadgen_cpu_ns + sampler_cpu_ns.load();
    const uint64_t proc = after.process_cpu_ns - before.process_cpu_ns;
    put("gateway.cpu_us_per_op",
        static_cast<double>(proc > loadgen ? proc - loadgen : 0) / 1e3 / dops, "us");
    put("gateway.threads_peak",
        static_cast<double>(threads_peak.load() > own_threads
                                ? threads_peak.load() - own_threads
                                : 0),
        "count");
    put("server.io_busy_us_per_op",
        static_cast<double>(Total(Delta(after.node_io_busy_ns, before.node_io_busy_ns))) /
            1e3 / dops,
        "us");
    put("server.shed_ratio",
        Ratio(static_cast<double>(after.node_503 - before.node_503),
              static_cast<double>(after.node_requests - before.node_requests)),
        "ratio");
    // Upstream calls per client /modify, from a quiet probe.
    {
      server::SimpleHttpClient client;
      const uint64_t rt0 = b.gateway->pool().stats().round_trips.load();
      uint64_t sent = 0;
      if (client.Connect("127.0.0.1", b.port()).ok()) {
        for (const IdOp& op : r.ops_by_conn.empty() ? std::vector<IdOp>()
                                                     : r.ops_by_conn[0]) {
          if (op.op.type != workload::OpType::kIngest) continue;
          WireRequest w = ToWire(op.op);
          auto resp = client.RoundTrip(w.method, w.target, w.body);
          if (resp.ok() && resp->status == 202) ++sent;
          if (sent >= 200) break;
        }
      }
      const uint64_t rt1 = b.gateway->pool().stats().round_trips.load();
      put("gateway.modify_upstream_calls",
          Ratio(static_cast<double>(rt1 - rt0), static_cast<double>(sent)),
          "count");
    }
  }
  setup = Setup();  // Tear the traced system down before any new fork.

  if (ctx.w.kind == Kind::kFleet) {
    // The same ops sent straight to the nodes of a fresh fleet.
    auto direct_setup = DoSetup(ctx, false);
    if (!direct_setup.ok()) return 1;
    gateway::GatewayServer* gw = direct_setup->backend->gateway.get();
    const auto slowest = RunDirectPass(
        r.ops_by_conn, direct_setup->backend->node_ports,
        direct_setup->backend->node_ids,
        [gw](const std::string& key) {
          std::vector<std::string> owners = gw->ReplicasForKey(key);
          return owners.empty() ? std::string() : owners.front();
        },
        &spans);
    put("gateway.page_hop_us", MedianSelfUs(r.records, slowest, kClassPage), "us");
    put("gateway.modify_hop_us", MedianSelfUs(r.records, slowest, kClassModify),
        "us");
    put("gateway.scatter_hop_us", MedianSelfUs(r.records, slowest, kClassQuery),
        "us");
  }

  if (ctx.w.checkpoint_every_events > 0) {
    // Journal overhead: the same stream on fresh systems with and without
    // a journal, in back-to-back pairs; the median pair ratio. On a slow
    // host, fewer pairs keep the run inside its time limit.
    std::vector<double> ratios;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      if (pair > 0 && static_cast<double>(NowNs() - run_start_ns) / 1e9 > 90.0) {
        break;
      }
      double throughput[2] = {0.0, 0.0};
      for (int journal = 1; journal >= 0; --journal) {
        Backend system;
        Status built = BuildBackend(ctx, journal == 1, system);
        if (!built.ok()) return 1;
        (void)RunWarmup(ctx, system, false);
        std::vector<OpSource> src = ctx.MeasuredSources();
        PhaseResult p = RunPhase(ctx, system, src, ctx.MeasuredLimits(), false);
        uint64_t done = 0;
        for (size_t c = 0; c < kNumClasses; ++c) done += p.completed[c];
        throughput[journal] = Ratio(static_cast<double>(done), p.wall_s);
      }
      ratios.push_back(Ratio(throughput[1], throughput[0]));
    }
    put("durability.overhead_ratio", Median(ratios), "ratio");
  }

  for (const std::string& name : untraced.Names()) {
    put("trace_overhead." + name,
        Ratio(traced.Get(name) - untraced.Get(name), untraced.Get(name)),
        "ratio");
  }

  std::printf("# host: calibration_ms_before=%.3f calibration_ms_after=%.3f "
              "steal_ticks=%llu (traced phase) waited_for_quiet_s=%.2f\n",
              calib_before, CalibrationLoopMs(),
              static_cast<unsigned long long>(steal1 - steal0), waited);
  const std::string span_path =
      StrFormat("%s/spans-%s-seed%llu.tsv", ctx.work_dir.c_str(),
                ctx.w.name.c_str(), static_cast<unsigned long long>(ctx.seed));
  if (spans.WriteTsv(span_path)) {
    std::printf("# spans: %zu written to %s\n", spans.spans().size(),
                span_path.c_str());
  }
  PrintResult(correct && r.attempted > 0, r.attempted, r.errors + r.shed, m);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cbfww_perfbench --workload analytics|churn|fleet "
               "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload")) return Usage();
  const bool tiny = args.count("scale") && args["scale"] == "tiny";
  auto w = MakeWorkload(args["workload"], tiny);
  if (!w) return Usage();

  Context ctx;
  ctx.w = *w;
  ctx.seed = args.count("seed") ? std::strtoull(args["seed"].c_str(), nullptr, 10) : 1;
  ctx.seconds = args.count("seconds") ? std::atof(args["seconds"].c_str()) : 10.0;
  if (ctx.seconds <= 0) return Usage();
  ctx.work_dir = args.count("work-dir") ? args["work-dir"] : ".";
  std::error_code ec;
  fs::create_directories(ctx.work_dir, ec);
  ctx.gen_corpus = std::make_shared<corpus::WebCorpus>(CorpusFor(ctx.w));
  ctx.warmup = BuildWarmup(ctx.w, *ctx.gen_corpus);
  uint64_t corpus_bytes = 0;
  for (const auto& raw : ctx.gen_corpus->raw_objects()) {
    corpus_bytes += raw.size_bytes;
  }
  std::printf("# corpus: pages=%zu raw_objects=%zu bytes=%llu "
              "memory_tier_bytes=%llu warmup_ops=%zu\n",
              ctx.gen_corpus->num_pages(), ctx.gen_corpus->num_raw_objects(),
              static_cast<unsigned long long>(corpus_bytes),
              static_cast<unsigned long long>(24ull << 20), ctx.warmup.size());
  const bool traced = args.count("trace") && args["trace"] == "1";
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              ctx.w.name.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, traced ? 1 : 0, tiny ? "tiny" : "full");
  return traced ? RunTraced(ctx) : RunUntraced(ctx);
}

}  // namespace
}  // namespace cbfww::perfbench

int main(int argc, char** argv) { return cbfww::perfbench::Main(argc, argv); }
