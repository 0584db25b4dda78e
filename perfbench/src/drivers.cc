#include "drivers.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "net/origin_server.h"
#include "server/http_client.h"
#include "trace/workload.h"
#include "util/hash.h"
#include "util/strings.h"

namespace cbfww::perfbench {

namespace {

bool IsTopKQuery(const std::string& text) {
  return text.find("SELECT MFU") != std::string::npos ||
         text.find("SELECT MRU") != std::string::npos;
}

/// Unsigned value that follows `key` in `body`, or nullopt.
std::optional<uint64_t> UintField(std::string_view body, std::string_view key) {
  size_t at = body.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  at += key.size();
  if (at >= body.size() || body[at] < '0' || body[at] > '9') {
    return std::nullopt;
  }
  return std::strtoull(body.data() + at, nullptr, 10);
}

/// The quoted strings of the JSON array that follows `key`.
std::vector<std::string> StringArray(std::string_view body,
                                     std::string_view key) {
  std::vector<std::string> out;
  size_t at = body.find(key);
  if (at == std::string_view::npos) return out;
  size_t end = body.find(']', at);
  if (end == std::string_view::npos) return out;
  size_t pos = at + key.size();
  while (pos < end) {
    size_t open = body.find('"', pos);
    if (open == std::string_view::npos || open >= end) break;
    size_t close = body.find('"', open + 1);
    if (close == std::string_view::npos || close > end) break;
    out.emplace_back(body.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return out;
}

/// DataAnalyzer::ServedBy index of the slowest tier a visit touched.
uint8_t SlowestSource(uint64_t disk, uint64_t tertiary, uint64_t origin) {
  if (origin > 0) return 3;
  if (tertiary > 0) return 2;
  if (disk > 0) return 1;
  return 0;
}

/// Shared stop rule (see PhaseLimits).
class StopRule {
 public:
  StopRule(const PhaseLimits& limits, uint64_t start_ns)
      : limits_(limits), start_ns_(start_ns) {}

  bool WantMore(uint64_t issued, const uint64_t* issued_by_class) const {
    if (limits_.max_seconds > 0 &&
        static_cast<double>(NowNs() - start_ns_) / 1e9 >= limits_.max_seconds) {
      return false;
    }
    if (issued < limits_.ops) return true;
    for (size_t c = 0; c < kNumClasses; ++c) {
      if (issued_by_class[c] < limits_.min_class_samples) return true;
    }
    return false;
  }

 private:
  PhaseLimits limits_;
  uint64_t start_ns_;
};

}  // namespace

const char* ClassName(size_t cls) {
  switch (cls) {
    case kClassPage: return "page";
    case kClassQuery: return "query";
    case kClassModify: return "modify";
  }
  return "?";
}

OpClass ClassOf(workload::OpType type) {
  switch (type) {
    case workload::OpType::kPageVisit: return kClassPage;
    case workload::OpType::kQuery:
    case workload::OpType::kScan: return kClassQuery;
    case workload::OpType::kIngest: return kClassModify;
  }
  return kClassPage;
}

OpSource::OpSource(const corpus::WebCorpus* corpus,
                   const workload::WorkloadSpec& spec, uint64_t id_base,
                   SimTime time_offset)
    : gen_(std::make_unique<workload::OpGenerator>(corpus, spec)),
      next_id_(id_base),
      time_offset_(time_offset) {}

OpSource::OpSource(std::vector<IdOp> ops) : replay_(std::move(ops)) {}

bool OpSource::Next(IdOp* out) {
  if (gen_ != nullptr) {
    out->id = next_id_++;
    out->op = gen_->Next();
    out->op.time += time_offset_;
    return true;
  }
  if (replay_pos_ >= replay_.size()) return false;
  *out = replay_[replay_pos_++];
  return true;
}

void PhaseResult::Fail(const std::string& what) {
  ++check_failures;
  if (first_failure.empty()) first_failure = what;
}

void PhaseResult::Merge(PhaseResult&& other) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    latency_us[c].Merge(other.latency_us[c]);
    completed[c] += other.completed[c];
  }
  errors += other.errors;
  shed += other.shed;
  attempted += other.attempted;
  wall_s = std::max(wall_s, other.wall_s);
  sim_sum_us += other.sim_sum_us;
  sim_pages += other.sim_pages;
  for (int i = 0; i < 4; ++i) served_by[i] += other.served_by[i];
  query_candidates += other.query_candidates;
  query_rows += other.query_rows;
  checks += other.checks;
  check_failures += other.check_failures;
  if (first_failure.empty()) first_failure = std::move(other.first_failure);
  loadgen_cpu_ns += other.loadgen_cpu_ns;
  ops.insert(ops.end(), other.ops.begin(), other.ops.end());
  records.insert(records.end(), other.records.begin(), other.records.end());
  for (auto& conn : other.ops_by_conn) ops_by_conn.push_back(std::move(conn));
}

// ---------------------------------------------------------------------------
// In-process closed loop.

namespace {

struct Slot {
  bool busy = false;
  IdOp op;
  OpClass cls = kClassPage;
  uint64_t start_ns = 0;
  std::shared_ptr<cluster::ServeTicket> ticket;
  /// Stamped by the completing shard worker; the last write it makes to
  /// the slot.
  std::atomic<uint64_t> done_ns{0};
  bool dispatch_shed = false;
  /// Modification: per-shard submitted count that covers it.
  std::vector<uint64_t> targets;
};

}  // namespace

PhaseResult RunClusterPhase(cluster::WarehouseCluster& cluster,
                            OpSource& source, const PhaseLimits& limits,
                            uint32_t window, bool record) {
  PhaseResult result;
  window = std::max<uint32_t>(1, window);
  std::unique_ptr<Slot[]> slots(new Slot[window]);
  // Shared with the completion callbacks, which may still run for an
  // instant after the slot they stamped has been retired.
  auto completions = std::make_shared<std::atomic<uint32_t>>(0);

  const uint64_t cpu0 = ThreadCpuNs();
  const uint64_t start_ns = NowNs();
  StopRule rule(limits, start_ns);
  uint64_t issued = 0;
  uint64_t issued_by_class[kNumClasses] = {};
  bool stopping = false;
  uint32_t busy = 0;
  uint32_t modifies_in_flight = 0;

  auto issue = [&](Slot& slot) -> bool {
    if (!source.Next(&slot.op)) return false;
    const workload::Op& op = slot.op.op;
    slot.cls = ClassOf(op.type);
    ++issued;
    ++issued_by_class[slot.cls];
    slot.dispatch_shed = false;
    slot.done_ns.store(0, std::memory_order_relaxed);
    if (record) result.ops.push_back(slot.op);
    ++result.attempted;
    slot.start_ns = NowNs();
    Status status = Status::Ok();
    if (slot.cls == kClassModify) {
      status = cluster.TryDispatch(workload::ToTraceEvent(op));
      if (status.ok()) {
        slot.targets.clear();
        for (const auto& s : cluster.RuntimeStats()) {
          slot.targets.push_back(s.submitted);
        }
        ++modifies_in_flight;
      }
    } else {
      slot.ticket = std::make_shared<cluster::ServeTicket>();
      Slot* stamp = &slot;
      std::shared_ptr<std::atomic<uint32_t>> counter = completions;
      slot.ticket->on_complete = [stamp, counter] {
        stamp->done_ns.store(NowNs(), std::memory_order_release);
        counter->fetch_add(1, std::memory_order_release);
        counter->notify_one();
      };
      if (slot.cls == kClassPage) {
        core::PageRequest request;
        request.page = op.page;
        request.user = op.user;
        request.session = op.session;
        request.via_link = op.via_link;
        request.now = op.time;
        status = cluster.TryServePage(request, slot.ticket);
      } else {
        core::QueryRunOptions qopts;
        qopts.use_index = op.use_index;
        status = cluster.TryServeQuery(op.query_text, qopts, slot.ticket);
        // A partly shed query still completes its ticket.
        if (!status.ok()) {
          slot.dispatch_shed = true;
          status = Status::Ok();
        }
      }
    }
    if (!status.ok()) {
      ++result.shed;
      slot.ticket.reset();
      return true;  // Slot stays free; the client moves on.
    }
    slot.busy = true;
    ++busy;
    return true;
  };

  auto retire = [&](Slot& slot, uint64_t end_ns) {
    const workload::Op& op = slot.op.op;
    bool ok = !slot.dispatch_shed;
    if (slot.dispatch_shed) ++result.shed;
    if (ok && slot.cls == kClassPage) {
      const core::PageVisit& visit = slot.ticket->visit;
      ++result.checks;
      if (visit.page != op.page) {
        result.Fail(StrFormat("page %llu answered for page %llu",
                              static_cast<unsigned long long>(visit.page),
                              static_cast<unsigned long long>(op.page)));
        ok = false;
      }
      result.sim_sum_us += static_cast<double>(visit.latency);
      ++result.sim_pages;
      ++result.served_by[static_cast<size_t>(visit.SlowestSource())];
    } else if (ok && slot.cls == kClassQuery) {
      uint64_t rows = 0;
      for (const auto& qs : slot.ticket->query) {
        if (!qs.status.ok()) {
          ok = false;
          ++result.errors;
          break;
        }
        rows += qs.result.result.rows.size();
        result.query_candidates += qs.result.result.candidates_evaluated;
      }
      result.query_rows += rows;
      if (ok && limits.check_topk_rows && IsTopKQuery(op.query_text)) {
        ++result.checks;
        if (rows == 0) {
          result.Fail("top-k query returned no rows: " + op.query_text);
          ok = false;
        }
      }
    }
    if (slot.cls == kClassModify) --modifies_in_flight;
    if (ok) {
      result.latency_us[slot.cls].Add(
          static_cast<double>(end_ns - slot.start_ns) / 1e3);
      ++result.completed[slot.cls];
    }
    if (record) {
      result.records.push_back(
          OpRecord{slot.op.id, slot.cls, ok, slot.start_ns, end_ns});
    }
    slot.ticket.reset();
    slot.busy = false;
    --busy;
  };

  for (;;) {
    while (!stopping && busy < window) {
      Slot* free_slot = nullptr;
      for (uint32_t i = 0; i < window; ++i) {
        if (!slots[i].busy) {
          free_slot = &slots[i];
          break;
        }
      }
      if (!rule.WantMore(issued, issued_by_class) || !issue(*free_slot)) {
        stopping = true;
      }
    }
    if (busy == 0) break;

    const uint32_t seen = completions->load(std::memory_order_acquire);
    std::vector<cluster::ShardRuntimeStats> runtime;
    if (modifies_in_flight > 0) runtime = cluster.RuntimeStats();
    bool progressed = false;
    for (uint32_t i = 0; i < window; ++i) {
      Slot& slot = slots[i];
      if (!slot.busy) continue;
      if (slot.cls == kClassModify) {
        bool applied = true;
        for (size_t s = 0; s < runtime.size(); ++s) {
          if (runtime[s].processed < slot.targets[s]) applied = false;
        }
        if (applied) {
          retire(slot, NowNs());
          progressed = true;
        }
        continue;
      }
      const uint64_t done = slot.done_ns.load(std::memory_order_acquire);
      if (done != 0) {
        retire(slot, done);
        progressed = true;
      }
    }
    if (progressed) continue;
    if (modifies_in_flight > 0) {
      std::this_thread::yield();  // Modifications carry no ticket: poll.
    } else {
      completions->wait(seen, std::memory_order_acquire);
    }
  }
  result.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  result.loadgen_cpu_ns = ThreadCpuNs() - cpu0;
  return result;
}

// ---------------------------------------------------------------------------
// Wire closed loop.

WireRequest ToWire(const workload::Op& op) {
  WireRequest w;
  switch (op.type) {
    case workload::OpType::kPageVisit:
      w.method = "GET";
      w.target = StrFormat("/page/%llu?user=%u&session=%lld",
                           static_cast<unsigned long long>(op.page), op.user,
                           static_cast<long long>(op.session));
      if (op.via_link) w.target += "&via_link=1";
      break;
    case workload::OpType::kQuery:
    case workload::OpType::kScan:
      w.method = "POST";
      w.target = op.use_index ? "/query" : "/query?use_index=0";
      w.body = op.query_text;
      break;
    case workload::OpType::kIngest:
      w.method = "POST";
      w.target = StrFormat("/modify/%llu",
                           static_cast<unsigned long long>(op.raw));
      break;
  }
  return w;
}

namespace {

/// Checks one wire response and folds it into `r`; returns whether the op
/// succeeded.
bool EvaluateWire(const workload::Op& op, int status, const std::string& body,
                  const FleetAckCheck& ack, const PhaseLimits& limits,
                  PhaseResult& r) {
  const OpClass cls = ClassOf(op.type);
  if (status == 503) {
    ++r.shed;
    return false;
  }
  if (cls == kClassPage) {
    if (status != 200) {
      ++r.errors;
      return false;
    }
    ++r.checks;
    auto page = UintField(body, "{\"page\":");
    if (!page || *page != op.page) {
      r.Fail(StrFormat("page response does not name page %llu",
                       static_cast<unsigned long long>(op.page)));
      return false;
    }
    auto latency = UintField(body, "\"latency_us\":");
    auto disk = UintField(body, "\"from_disk\":");
    auto tertiary = UintField(body, "\"from_tertiary\":");
    auto origin = UintField(body, "\"from_origin\":");
    if (!latency || !disk || !tertiary || !origin) {
      r.Fail("page response lacks its modeled cost fields");
      return false;
    }
    const uint8_t src = SlowestSource(*disk, *tertiary, *origin);
    r.sim_sum_us += static_cast<double>(*latency);
    ++r.sim_pages;
    ++r.served_by[src];
    return true;
  }
  if (cls == kClassQuery) {
    if (status != 200) {
      ++r.errors;
      return false;
    }
    if (body.find("\"nodes_failed\":0") == std::string::npos) {
      r.Fail("query reported a failed node");
      return false;
    }
    if (limits.check_topk_rows && IsTopKQuery(op.query_text)) {
      ++r.checks;
      if (body.find("\"rows\":[[") == std::string::npos) {
        r.Fail("top-k query returned no rows: " + op.query_text);
        return false;
      }
    }
    return true;
  }
  if (status != 202) {
    ++r.errors;
    return false;
  }
  ++r.checks;
  const std::string raw = std::to_string(op.raw);
  std::vector<std::string> required = StringArray(body, "\"required\":[");
  std::vector<std::string> expected = ack.replicas(raw);
  if (body.find("\"acked\":true") == std::string::npos ||
      required.size() != ack.replication || required != expected) {
    r.Fail("write " + raw + " not acknowledged by its replicas: " + body);
    return false;
  }
  return true;
}

}  // namespace

PhaseResult RunWirePhase(uint16_t port, std::vector<OpSource>& sources,
                         const PhaseLimits& limits, const FleetAckCheck& ack,
                         bool record) {
  const size_t conns = sources.size();
  std::vector<PhaseResult> per_conn(conns);
  std::atomic<uint64_t> issued_by_class[kNumClasses] = {};
  std::atomic<uint64_t> issued{0};
  std::atomic<bool> connect_failed{false};
  const uint64_t start_ns = NowNs();
  StopRule rule(limits, start_ns);

  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& r = per_conn[c];
      const uint64_t cpu0 = ThreadCpuNs();
      server::SimpleHttpClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        connect_failed.store(true);
        return;
      }
      std::vector<IdOp> sent;
      for (;;) {
        uint64_t by_class[kNumClasses];
        for (size_t k = 0; k < kNumClasses; ++k) {
          by_class[k] = issued_by_class[k].load();
        }
        if (!rule.WantMore(issued.load(), by_class)) break;
        IdOp op;
        if (!sources[c].Next(&op)) break;
        issued.fetch_add(1);
        issued_by_class[ClassOf(op.op.type)].fetch_add(1);
        ++r.attempted;
        if (record) sent.push_back(op);
        WireRequest w = ToWire(op.op);
        const uint64_t t0 = NowNs();
        auto response = client.RoundTrip(w.method, w.target, w.body);
        const uint64_t t1 = NowNs();
        bool ok = false;
        if (!response.ok()) {
          ++r.errors;
          if (!client.connected() &&
              !client.Connect("127.0.0.1", port).ok()) {
            connect_failed.store(true);
            break;
          }
        } else {
          ok = EvaluateWire(op.op, response->status, response->body, ack,
                            limits, r);
        }
        const OpClass cls = ClassOf(op.op.type);
        if (ok) {
          r.latency_us[cls].Add(static_cast<double>(t1 - t0) / 1e3);
          ++r.completed[cls];
        }
        if (record) r.records.push_back(OpRecord{op.id, cls, ok, t0, t1});
      }
      r.loadgen_cpu_ns = ThreadCpuNs() - cpu0;
      if (record) r.ops_by_conn.push_back(std::move(sent));
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult result;
  for (auto& r : per_conn) result.Merge(std::move(r));
  result.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  if (connect_failed.load()) result.Fail("lost the connection to the gateway");
  return result;
}

// ---------------------------------------------------------------------------
// Standalone shard replica.

Result<core::Warehouse::Counters> RunReplica(const ReplicaConfig& config,
                                             const std::vector<IdOp>& warm,
                                             const std::vector<IdOp>& ops,
                                             SpanLog* spans) {
  corpus::WebCorpus corpus(config.corpus);
  net::OriginServer origin(&corpus, net::NetworkModel());
  core::WarehouseOptions wopts = config.cluster.warehouse;
  wopts.seed = HashCombine(config.cluster.warehouse.seed, config.shard);
  if (config.cluster.durability.enabled()) {
    wopts.durability = config.cluster.durability;
    wopts.durability.dir =
        config.durability_dir + "/shard-" + std::to_string(config.shard);
  }
  core::Warehouse warehouse(&corpus, &origin, nullptr, wopts);
  if (wopts.durability.enabled()) {
    auto opened = warehouse.OpenDurability();
    if (!opened.ok()) return opened.status();
  }

  const uint32_t shards = config.cluster.num_shards;
  auto feed = [&](const IdOp& idop, bool timed) {
    const workload::Op& op = idop.op;
    if (op.type == workload::OpType::kPageVisit &&
        trace::ShardOfPage(op.page, shards) != config.shard) {
      return;
    }
    const uint64_t t0 = timed ? NowNs() : 0;
    switch (op.type) {
      case workload::OpType::kPageVisit: {
        core::PageRequest request;
        request.page = op.page;
        request.user = op.user;
        request.session = op.session;
        request.via_link = op.via_link;
        request.now = op.time;
        (void)warehouse.ServeRequest(request);
        break;
      }
      case workload::OpType::kQuery:
      case workload::OpType::kScan: {
        core::QueryRunOptions qopts;
        qopts.use_index = op.use_index;
        (void)warehouse.ExecuteQuery(op.query_text, qopts);
        break;
      }
      case workload::OpType::kIngest:
        (void)warehouse.ProcessEvent(workload::ToTraceEvent(op));
        break;
    }
    if (timed && spans != nullptr) {
      spans->Add(Span{idop.id, kLayerCore, kLayerCluster,
                      static_cast<uint8_t>(ClassOf(op.type)), t0, NowNs()});
    }
  };
  for (const IdOp& op : warm) feed(op, false);
  for (const IdOp& op : ops) feed(op, true);
  return warehouse.counters();
}

// ---------------------------------------------------------------------------
// Direct round trips to the fleet's nodes.

std::unordered_map<uint64_t, uint64_t> RunDirectPass(
    const std::vector<std::vector<IdOp>>& ops_by_conn,
    const std::vector<uint16_t>& node_ports,
    const std::vector<std::string>& node_ids,
    const std::function<std::string(const std::string& key)>& owner_of_key,
    SpanLog* spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> legs(
      ops_by_conn.size());
  std::vector<SpanLog> logs(ops_by_conn.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < ops_by_conn.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::unique_ptr<server::SimpleHttpClient>> clients;
      for (uint16_t port : node_ports) {
        clients.push_back(std::make_unique<server::SimpleHttpClient>());
        (void)clients.back()->Connect("127.0.0.1", port);
      }
      for (const IdOp& idop : ops_by_conn[c]) {
        const workload::Op& op = idop.op;
        WireRequest w = ToWire(op);
        std::vector<size_t> targets;
        if (op.type == workload::OpType::kPageVisit) {
          const std::string owner = owner_of_key(std::to_string(op.page));
          for (size_t n = 0; n < node_ids.size(); ++n) {
            if (node_ids[n] == owner) targets.push_back(n);
          }
        } else {
          for (size_t n = 0; n < node_ids.size(); ++n) targets.push_back(n);
        }
        uint64_t slowest = 0;
        for (size_t n : targets) {
          const uint64_t t0 = NowNs();
          (void)clients[n]->RoundTrip(w.method, w.target, w.body);
          const uint64_t t1 = NowNs();
          slowest = std::max(slowest, t1 - t0);
          logs[c].Add(Span{idop.id, kLayerNodeDirect, kLayerGateway,
                           static_cast<uint8_t>(ClassOf(op.type)), t0, t1});
        }
        legs[c].emplace_back(idop.id, slowest);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::unordered_map<uint64_t, uint64_t> out;
  for (size_t c = 0; c < legs.size(); ++c) {
    out.insert(legs[c].begin(), legs[c].end());
    if (spans != nullptr) spans->Append(logs[c]);
  }
  return out;
}

}  // namespace cbfww::perfbench
