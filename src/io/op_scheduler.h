// Per-(client, server) op scheduler: the batched, pipelined submission layer
// between every kv issuer (MemFS flushers/prefetchers/replication/repair,
// AMFS metadata, mtc staging) and the KvCluster.
//
// The paper's client stack amortizes round trips with libmemcached multi-get
// (§3.2.2); KvOpCostModel.header_bytes is exactly the per-RPC framing cost
// that makes 1 KB-file workloads latency-bound (§4.1). The scheduler buys
// that amortization generically: operations enqueue into a per-(client,
// server) lane, a drain coroutine coalesces same-kind neighbors into one
// MULTI_SET / MULTI_GET / MULTI_DELETE batch RPC (ADD and APPEND batch
// through the same path), and a bounded window of in-flight batches per lane
// provides pipelining with backpressure.
//
// Semantics:
//  * Per-item verdicts. A batch returns one Status per key; the scheduler
//    demultiplexes them back to the per-op futures, and the KvCluster retry
//    layer re-sends only failed keys — the non-idempotent ADD/APPEND safety
//    argument holds per item (see kv_cluster.h).
//  * Coalescing window. The drain coroutine yields once per round, so every
//    operation enqueued at the same simulated instant can join the batch,
//    and it claims a window slot before choosing the batch, so everything
//    that queued up behind in-flight batches joins the next one; ops of
//    another kind stay queued for the next round. Cross-kind reordering
//    within a lane is safe here because no issuer keeps two operations of
//    different kinds in flight for the same key.
//  * One wire path. KvCluster::Batch is the only way onto the wire, so every
//    op goes through a lane, even when it ends up alone in its batch (a
//    batch of one). One RPC per op is max_batch_ops = 1; a window no smaller
//    than the lane's queue depth keeps it from adding lane backpressure.
//
// Tracing: each enqueued op opens a "kv.batch.wait" span under its own
// request trace covering enqueue -> verdict; the batch RPC's "kv.batch"
// span parents under the first member's wait span, so critical-path
// attribution stays balanced for every request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/pool.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace memfs::io {

struct IoConfig {
  // Per-batch ceilings: at most this many items and (beyond the first item)
  // this many payload bytes per batch RPC. Multi-get commonly carries tens
  // of keys per message.
  std::uint32_t max_batch_ops = 32;
  std::uint64_t max_batch_bytes = units::MiB(1);
  // In-flight batches per (client, server) lane; the drain coroutine blocks
  // on a full window, which is what lets queues build into larger batches.
  // libmemcached keeps one in-order connection per server, so the faithful
  // default is a single outstanding batch per lane; a deeper window trades
  // coalescing for speculative pipelining.
  std::uint32_t window = 1;
};

struct IoStats {
  std::uint64_t batches = 0;      // batch RPCs issued
  std::uint64_t batched_ops = 0;  // ops that went through a batch
  std::uint64_t max_batch = 0;    // largest batch issued
};

class OpScheduler {
 public:
  OpScheduler(sim::Simulation& sim, kv::KvCluster& cluster,
              IoConfig config = {});

  OpScheduler(const OpScheduler&) = delete;
  OpScheduler& operator=(const OpScheduler&) = delete;

  // Single-key operations; each one joins a batch on its (client, server)
  // lane and resolves with its own item's verdict.
  [[nodiscard]] sim::Future<Status> Set(net::NodeId client,
                                        std::uint32_t server, std::string key,
                                        Bytes value,
                                        trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Add(net::NodeId client,
                                        std::uint32_t server, std::string key,
                                        Bytes value,
                                        trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Result<Bytes>> Get(net::NodeId client,
                                               std::uint32_t server,
                                               std::string key,
                                               trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Append(net::NodeId client,
                                           std::uint32_t server,
                                           std::string key, Bytes suffix,
                                           trace::TraceContext trace = {});
  [[nodiscard]] sim::Future<Status> Delete(net::NodeId client,
                                           std::uint32_t server,
                                           std::string key,
                                           trace::TraceContext trace = {});

  kv::KvCluster& cluster() { return cluster_; }
  const IoConfig& config() const { return config_; }
  const IoStats& stats() const { return stats_; }

 private:
  struct PendingOp {
    kv::BatchKind kind;
    std::string key;
    Bytes value;
    sim::Promise<Status> status_done;        // mutations and deletes
    sim::Promise<Result<Bytes>> value_done;  // gets
    trace::TraceContext wait_span;
  };

  struct Lane {
    net::NodeId client = 0;
    std::uint32_t server = 0;
    // Ops waiting to join a batch, in arrival order. Each drain round splits
    // it in place, so its capacity is reused round after round.
    std::vector<PendingOp> queue;
    // Emptied batch vectors returned by finished RunBatch calls; the next
    // round takes one back instead of allocating (at most `window` + 1 ever
    // exist per lane).
    std::vector<std::vector<PendingOp>> spare_batches;
    bool draining = false;
    std::unique_ptr<sim::BoundedPool> window;
    // Monitor gauges, aggregated per server (lanes from different clients to
    // the same server share the registry slot); nullptr when the cluster has
    // no registry. queued = ops waiting to join a batch, batches = batch
    // RPCs holding a window slot, fill = size of the last batch issued.
    std::int64_t* queued_gauge = nullptr;    // io.queued/<server>
    std::int64_t* batches_gauge = nullptr;   // io.inflight_batches/<server>
    std::int64_t* fill_gauge = nullptr;      // io.batch_fill/<server>
  };

  Lane& LaneFor(net::NodeId client, std::uint32_t server);
  // Opens the op's wait span, queues it on its lane and starts the lane's
  // drain loop if it is idle.
  void Enqueue(net::NodeId client, std::uint32_t server, PendingOp op,
               trace::TraceContext trace);
  sim::Future<Status> EnqueueMutation(net::NodeId client,
                                      std::uint32_t server,
                                      kv::BatchKind kind, std::string key,
                                      Bytes value, trace::TraceContext trace);
  sim::Task RunDrain(Lane* lane);
  sim::Task RunBatch(Lane* lane, kv::BatchKind kind,
                     std::vector<PendingOp> ops);

  sim::Simulation& sim_;
  kv::KvCluster& cluster_;
  IoConfig config_;
  IoStats stats_;
  // Lane registry indexed [client][server], grown on demand (elastic
  // membership can raise either id mid-run). Lanes are only ever looked up
  // by exact (client, server) — never iterated — so the layout carries no
  // ordering obligations; the flat index replaces a std::map lookup on
  // every kv op issue.
  std::vector<std::vector<std::unique_ptr<Lane>>> lanes_;
};

}  // namespace memfs::io
