#ifndef CBFWW_PERFBENCH_DRIVERS_H_
#define CBFWW_PERFBENCH_DRIVERS_H_

// Load generators of the benchmark. Each drives one layer's public entry
// point with a closed loop over a seeded op stream and records per-op
// latency, the modeled page access time, and the output checks:
//   RunClusterPhase  WarehouseCluster::TryServePage/TryServeQuery/TryDispatch
//   RunWirePhase     HTTP round trips to a GatewayServer
//   RunReplica       Warehouse::ServeRequest/ExecuteQuery/ProcessEvent on a
//                    standalone copy of one shard
//   RunDirectPass    HTTP round trips straight to the fleet's nodes

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/warehouse_cluster.h"
#include "corpus/web_corpus.h"
#include "harness.h"
#include "util/result.h"
#include "workload/op_generator.h"
#include "workload/workload_spec.h"

namespace cbfww::perfbench {

/// The three op classes latency is reported for (index queries and forced
/// scans together form the query class).
enum OpClass : uint8_t { kClassPage = 0, kClassQuery, kClassModify };
inline constexpr size_t kNumClasses = 3;
const char* ClassName(size_t cls);
OpClass ClassOf(workload::OpType type);

/// One op of a stream with its stable id (ids tie spans of one op together
/// across passes).
struct IdOp {
  uint64_t id = 0;
  workload::Op op;
};

/// Seeded op stream, or a replay of recorded ops.
class OpSource {
 public:
  /// Generates from `spec` over `corpus` (read-only; must outlive this);
  /// ids count up from `id_base`; simulated times are shifted by
  /// `time_offset` so the stream starts after whatever ran before it.
  OpSource(const corpus::WebCorpus* corpus, const workload::WorkloadSpec& spec,
           uint64_t id_base, SimTime time_offset);
  /// Replays `ops` in order.
  explicit OpSource(std::vector<IdOp> ops);

  /// False when a replay is exhausted.
  bool Next(IdOp* out);

 private:
  std::unique_ptr<workload::OpGenerator> gen_;
  uint64_t next_id_ = 0;
  SimTime time_offset_ = 0;
  std::vector<IdOp> replay_;
  size_t replay_pos_ = 0;
};

/// When a phase stops: after `ops` ops, extended until every class has
/// been issued `min_class_samples` times (a p99 needs ten samples beyond
/// it), but never past `max_seconds` (0: no cap). Both rules count issued
/// ops, so a phase's op stream does not depend on timing.
struct PhaseLimits {
  uint64_t ops = 0;
  size_t min_class_samples = 0;
  double max_seconds = 0.0;
  /// Top-k (MFU/MRU) queries must return rows; off while the warehouse may
  /// still be empty (warm-up).
  bool check_topk_rows = true;
};

/// Per-op timing kept for traced runs and replays.
struct OpRecord {
  uint64_t id = 0;
  uint8_t cls = 0;
  bool ok = false;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct PhaseResult {
  Samples latency_us[kNumClasses];
  uint64_t completed[kNumClasses] = {};
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t attempted = 0;
  double wall_s = 0.0;

  /// Modeled page access time (PageVisit::latency, simulated µs) and the
  /// slowest tier that served each visit (DataAnalyzer::ServedBy order).
  double sim_sum_us = 0.0;
  uint64_t sim_pages = 0;
  uint64_t served_by[4] = {};

  /// Query work: candidates evaluated and rows returned (in-process only).
  uint64_t query_candidates = 0;
  uint64_t query_rows = 0;

  /// Output checks.
  uint64_t checks = 0;
  uint64_t check_failures = 0;
  std::string first_failure;

  /// CPU of the load-generating threads over the phase.
  uint64_t loadgen_cpu_ns = 0;

  /// Filled when the phase records: ops in issue order, and their timing.
  std::vector<IdOp> ops;
  std::vector<OpRecord> records;
  /// Wire phases: the ops each connection sent, in order.
  std::vector<std::vector<IdOp>> ops_by_conn;

  void Fail(const std::string& what);
  void Merge(PhaseResult&& other);
};

/// Closed loop against an in-process cluster: `window` ops in flight from
/// one thread. A modification counts as complete once every shard has
/// applied it. Waits for every op before returning.
PhaseResult RunClusterPhase(cluster::WarehouseCluster& cluster,
                            OpSource& source, const PhaseLimits& limits,
                            uint32_t window, bool record);

/// Checks a fleet write acknowledgement against the ring.
struct FleetAckCheck {
  uint32_t replication = 0;
  std::function<std::vector<std::string>(const std::string& raw)> replicas;
};

/// Closed loop over HTTP to a gateway: one keep-alive connection and one
/// thread per source, each waiting for its reply; every 202 is checked
/// against `ack`.
PhaseResult RunWirePhase(uint16_t port, std::vector<OpSource>& sources,
                         const PhaseLimits& limits, const FleetAckCheck& ack,
                         bool record);

/// Options of a standalone shard copy: exactly what WarehouseCluster gives
/// shard `shard` (per-shard seed, per-shard journal directory under
/// `durability_dir`).
struct ReplicaConfig {
  corpus::CorpusOptions corpus;
  cluster::ClusterOptions cluster;
  uint32_t shard = 0;
  std::string durability_dir;
};

/// Feeds shard `config.shard`'s part of `warm` (untimed) then `ops` (one
/// core span per call into `spans`) to a standalone Warehouse; returns its
/// counters, or the error that kept its journal from opening.
Result<core::Warehouse::Counters> RunReplica(const ReplicaConfig& config,
                                             const std::vector<IdOp>& warm,
                                             const std::vector<IdOp>& ops,
                                             SpanLog* spans);

/// Sends every op of `ops_by_conn[c]` straight to the fleet's nodes, one
/// thread per connection: a page to its ring owner, a modification and a
/// query to every node one after another. Returns, per op id, the
/// slowest direct leg in nanoseconds.
std::unordered_map<uint64_t, uint64_t> RunDirectPass(
    const std::vector<std::vector<IdOp>>& ops_by_conn,
    const std::vector<uint16_t>& node_ports,
    const std::vector<std::string>& node_ids,
    const std::function<std::string(const std::string& key)>& owner_of_key,
    SpanLog* spans);

/// The HTTP request an op becomes (same routes as the workload Runner).
struct WireRequest {
  const char* method = "GET";
  std::string target;
  std::string body;
};
WireRequest ToWire(const workload::Op& op);

}  // namespace cbfww::perfbench

#endif  // CBFWW_PERFBENCH_DRIVERS_H_
