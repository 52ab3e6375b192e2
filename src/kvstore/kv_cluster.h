// Simulated Memcached deployment: one KvServer per storage node, driven over
// the fluid network with bounded per-server worker concurrency and a per-op
// service-time model.
//
// The cost model encodes the behaviour the paper leans on (§4.1): GET is
// cheaper than SET at the server, APPEND pays an extra synchronization cost,
// and every operation moves `header_bytes` of framing in addition to key and
// value bytes — which is why 1 KB-file workloads are latency-bound while
// 128 MB-file workloads are bandwidth-bound.
//
// Fault handling (the robustness extension): every operation runs under the
// client policy — bounded retries with decorrelated-jitter backoff, an
// optional per-attempt deadline that catches slow (not just dead) servers
// and lost messages, and a per-server circuit breaker so clients skip a
// known-bad server instead of paying the failure timeout on every stripe.
// Deadline semantics are gRPC-like: cancellation propagates to the server,
// so a request that misses its deadline is never applied — which is what
// makes retrying non-idempotent ADD/APPEND safe. Once the server commits,
// the client waits for the acknowledgement.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "kvstore/kv_server.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace memfs::kv {

// First-write-wins outcome slot shared by one attempt and its deadline
// watchdog (defined in kv_cluster.cc).
template <typename T>
struct RaceState;

// One single-key operation (kind, key, payload, price) shared by its retry
// loop and every attempt (defined in kv_cluster.cc).
struct SingleOp;

struct KvOpCostModel {
  // Server-side service time = base + size * ns_per_byte.
  sim::SimTime set_base = units::Micros(10);
  double set_ns_per_byte = 0.15;
  sim::SimTime get_base = units::Micros(5);
  double get_ns_per_byte = 0.08;
  sim::SimTime append_base = units::Micros(12);  // internal lock + sync
  double append_ns_per_byte = 0.20;
  sim::SimTime delete_base = units::Micros(5);
  // Concurrent requests a server processes (Memcached worker threads).
  std::uint32_t workers = 8;
  // Protocol framing per message (command, key echo, flags, CRLF...).
  std::uint64_t header_bytes = 48;
  // Per-RPC dispatch share of the per-op base constants above: the recv
  // syscall, worker wakeup and command parse that every message pays exactly
  // once. Single ops pay it implicitly inside their base; a multi-op pays it
  // on the first item only, so items after the first are priced at
  // base - rpc_dispatch (this is the libmemcached multi-op amortization the
  // paper measures in §3.2.2). Must stay below the smallest base.
  sim::SimTime rpc_dispatch = units::Micros(4);
  // Time for a client to give up on a server that is down (connection
  // timeout); used by the fault-tolerance extension.
  sim::SimTime failure_timeout = units::Millis(1);
};

// Client-side fault-handling knobs, applied uniformly to every operation.
struct KvClientPolicy {
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  // Per-attempt deadline covering queueing, the request leg and service time
  // up to the server's commit point; 0 disables. A lost or slow request
  // surfaces as DEADLINE_EXCEEDED (retryable) instead of hanging.
  sim::SimTime op_deadline = 0;
  // Seed of the backoff-jitter stream (fixed default: healthy runs draw
  // nothing, faulty runs are reproducible).
  std::uint64_t rng_seed = 0x6b76726574727931ull;
};

// Client-observed fault-handling activity, aggregated over all servers.
struct KvClusterStats {
  std::uint64_t retries = 0;             // backoff-then-retry transitions
  std::uint64_t deadline_exceeded = 0;   // attempts cut off by the deadline
  std::uint64_t breaker_opens = 0;       // closed/half-open -> open trips
  std::uint64_t breaker_fast_fails = 0;  // requests rejected while open
  std::uint64_t single_rpcs = 0;         // single-op attempts put on the wire
  std::uint64_t batch_rpcs = 0;          // batch attempts put on the wire
  std::uint64_t batch_items = 0;         // items carried by those batches
};

// Per-server slice of the client-side activity: how this client treated one
// server (attempts, retries, breaker trips, batching). Surfaced by
// tools/memfs_trace's per-server report table.
struct KvServerClientStats {
  std::uint64_t single_ops = 0;          // single-op attempts sent
  std::uint64_t batches = 0;             // batch attempts sent
  std::uint64_t batched_items = 0;       // items carried by those batches
  std::uint64_t retries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_fast_fails = 0;
};

// Outcome slot shared by one batch attempt and its deadline watchdog
// (defined in kv_cluster.cc).
struct BatchAttempt;

class KvCluster {
 public:
  // Lightweight view handed to the protocol coroutines (the slot itself
  // outlives every in-flight operation because the cluster owns it). The
  // gauge pointers are nullptr without a registry — GaugeAdd/GaugeSet then
  // reduce to one branch, the tracer's null-context discipline.
  struct ServerSlotAccess {
    net::NodeId node;
    sim::Semaphore* workers;
    const bool* down;
    const double* slow_factor;
    KvServer* state = nullptr;
    std::int64_t* mem_gauge = nullptr;       // kv.mem_bytes/<index>
    std::int64_t* objects_gauge = nullptr;   // kv.objects/<index>
    std::int64_t* queue_gauge = nullptr;     // kv.queue/<index>
    std::int64_t* inflight_gauge = nullptr;  // kv.inflight/<index>
  };

  // `metrics` (optional, caller-owned) records kv.set/get/append/delete
  // latency histograms as observed by clients, plus kv.* fault counters.
  KvCluster(sim::Simulation& sim, net::Network& network,
            std::vector<net::NodeId> server_nodes,
            KvServerConfig server_config = {}, KvOpCostModel cost_model = {},
            MetricsRegistry* metrics = nullptr, KvClientPolicy policy = {});

  std::uint32_t server_count() const {
    return static_cast<std::uint32_t>(servers_.size());
  }
  KvServer& server(std::uint32_t index) { return *servers_[index].state; }
  const KvServer& server(std::uint32_t index) const {
    return *servers_[index].state;
  }
  net::NodeId node_of(std::uint32_t index) const {
    return servers_[index].node;
  }
  const KvOpCostModel& cost_model() const { return cost_; }
  const KvClientPolicy& client_policy() const { return policy_; }
  const KvClusterStats& stats() const { return stats_; }
  // The registry this cluster records into (nullptr when uninstrumented);
  // layered clients (src/io) register their own gauges against it.
  MetricsRegistry* metrics() const { return metrics_; }

  // All operations are addressed by server index (the caller's Distributor
  // picks the index) and carry the issuing client's node for the network leg.
  // `trace` (optional) parents a "kv" span covering the whole operation —
  // every attempt, backoff wait and breaker rejection is recorded under it.
  [[nodiscard]] sim::Future<Status> Set(net::NodeId client, std::uint32_t server,
                          std::string key, Bytes value,
                          trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Add(net::NodeId client, std::uint32_t server,
                          std::string key, Bytes value,
                          trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Result<Bytes>> Get(net::NodeId client, std::uint32_t server,
                                 std::string key,
                                 trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Append(net::NodeId client, std::uint32_t server,
                             std::string key, Bytes suffix,
                             trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Delete(net::NodeId client, std::uint32_t server,
                             std::string key,
                             trace::TraceContext trace = {});

  // Batch RPC: ships all items to the server in one message (one
  // header_bytes framing cost for the whole batch), processes them in order
  // under a single worker slot paying per-item service time, and returns
  // per-item verdicts aligned with the input. Per-item responses stream back
  // as each item commits, so when an attempt is cut off (deadline, lost
  // reply) the client knows exactly which items were applied and retries
  // only the rest — the non-idempotent ADD/APPEND safety argument of the
  // single-op path, preserved per item. The "kv.batch" span parents one
  // "kv.batch.attempt" per wire attempt and a per-key "kv.item" child span
  // for every processed item.
  [[nodiscard]] sim::Future<std::vector<BatchItemResult>> Batch(
      net::NodeId client, std::uint32_t server, BatchKind kind,
      std::vector<BatchItem> items, trace::TraceContext trace = {});

  // Per-server client-side activity (satellite of the batching work).
  const KvServerClientStats& server_stats(std::uint32_t index) const {
    return servers_[index].client_stats;
  }

  // Aggregate stored bytes across all servers (Fig. 9-style accounting).
  std::uint64_t total_memory_used() const;

  // Failure injection: a down server answers nothing; clients time out with
  // UNAVAILABLE after `failure_timeout` (or DEADLINE_EXCEEDED when an op
  // deadline is armed and shorter). Bringing a server back with
  // `wipe_on_restart` drops its stored data — a Memcached process restart
  // loses RAM — so recovery paths (failover reads, read repair) are actually
  // exercised; without it the "restart" models an un-partitioned comeback.
  void SetServerDown(std::uint32_t index, bool down,
                     bool wipe_on_restart = false);
  bool IsServerDown(std::uint32_t index) const;

  // Permanent departure (drained node reaching LEFT): the slot's data is
  // dropped and every future request to it fast-fails with
  // UNAVAILABLE_PERMANENT — no retries, no breaker probes, no failure
  // timeout. Unlike SetServerDown this is one-way: the index is retired and
  // never reused (indices are identities on the ketama ring).
  void SetServerLeft(std::uint32_t index);
  bool IsServerLeft(std::uint32_t index) const;

  // Slow-server episode: multiplies every service time on the server
  // (1.0 = healthy). With an op deadline armed, a slow-enough server times
  // out exactly like a dead one — but keeps consuming worker slots.
  void SetServerSlowdown(std::uint32_t index, double factor);
  double ServerSlowdown(std::uint32_t index) const;

  // Circuit-breaker visibility (tests, harness reporting).
  CircuitBreaker::State BreakerState(std::uint32_t index) const {
    return servers_[index].breaker.state();
  }

  // Elastic scale-out (the paper's future work, §5): registers a new, empty
  // server on `node` and returns its index. Existing slots stay valid.
  std::uint32_t AddServer(net::NodeId node);

 private:
  struct ServerSlot {
    net::NodeId node;
    std::unique_ptr<KvServer> state;
    std::unique_ptr<sim::Semaphore> workers;
    bool down = false;
    bool left = false;  // drained to LEFT: fast-fail, never retried
    double slow_factor = 1.0;
    CircuitBreaker breaker;
    KvServerClientStats client_stats;
    // Per-server monitor gauges (see monitor/monitor.h), nullptr without a
    // registry. Storage gauges track the server state after every apply;
    // queue/inflight track worker-slot demand; breaker holds the
    // CircuitBreaker::State numeric (0 closed, 1 open, 2 half-open).
    std::int64_t* mem_gauge = nullptr;
    std::int64_t* objects_gauge = nullptr;
    std::int64_t* queue_gauge = nullptr;
    std::int64_t* inflight_gauge = nullptr;
    std::int64_t* breaker_gauge = nullptr;
  };

  ServerSlotAccess AccessOf(ServerSlot& slot) const {
    return {slot.node,          slot.workers.get(), &slot.down,
            &slot.slow_factor,  slot.state.get(),   slot.mem_gauge,
            slot.objects_gauge, slot.queue_gauge,   slot.inflight_gauge};
  }

  // Retry loop: runs attempts of `request` (each writing into a fresh race
  // slot, under a fresh "kv.attempt" child of `op_span`) under the client
  // policy until success, a non-retryable status, or exhaustion. T is Status
  // (mutations) or Result<Bytes> (GET). Owns ending `op_span`.
  template <typename T>
  sim::Task RunWithRetry(std::uint32_t server, net::NodeId client,
                         std::shared_ptr<SingleOp> request,
                         sim::Promise<T> done,
                         trace::TraceContext op_span);

  // Shared front half of Set/Add/Append/Delete: prices the request, hands it
  // to RunWithRetry and records the client-observed latency under `metric`.
  [[nodiscard]] sim::Future<Status> Mutate(net::NodeId client,
                                           std::uint32_t server,
                                           BatchKind kind, std::string key,
                                           Bytes value, const char* metric,
                                           trace::TraceContext trace);

  // Batch retry driver: sends the still-unresolved items as one batch
  // attempt per round, demultiplexes the per-item verdicts (resolved items
  // become final; unresolved items inherit the attempt error and form the
  // next round), and applies the same breaker/backoff/deadline policy as the
  // single-op path. Owns ending `op_span`.
  sim::Task RunBatchWithRetry(
      std::uint32_t server, BatchKind kind, net::NodeId client,
      std::shared_ptr<std::vector<BatchItem>> items,
      sim::Promise<std::vector<BatchItemResult>> done,
      trace::TraceContext op_span);

  sim::Simulation& sim_;
  net::Network& network_;
  KvOpCostModel cost_;
  KvServerConfig server_config_;  // template for servers added later
  MetricsRegistry* metrics_;
  KvClientPolicy policy_;
  Rng rng_;
  KvClusterStats stats_;
  // deque: growing the cluster must not invalidate references held by
  // in-flight operations.
  std::deque<ServerSlot> servers_;
};

}  // namespace memfs::kv
