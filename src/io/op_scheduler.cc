#include "io/op_scheduler.h"

#include <algorithm>
#include <utility>

namespace memfs::io {

OpScheduler::OpScheduler(sim::Simulation& sim, kv::KvCluster& cluster,
                         IoConfig config)
    : sim_(sim), cluster_(cluster), config_(config) {
  config_.max_batch_ops = std::max<std::uint32_t>(config_.max_batch_ops, 1);
  config_.window = std::max<std::uint32_t>(config_.window, 1);
}

OpScheduler::Lane& OpScheduler::LaneFor(net::NodeId client,
                                        std::uint32_t server) {
  if (client >= lanes_.size()) lanes_.resize(client + 1);
  auto& row = lanes_[client];
  if (server >= row.size()) row.resize(server + 1);
  std::unique_ptr<Lane>& slot = row[server];
  if (slot == nullptr) {
    slot = std::make_unique<Lane>();
    slot->client = client;
    slot->server = server;
    slot->window =
        std::make_unique<sim::BoundedPool>(sim_, config_.window, "io.window");
    if (MetricsRegistry* metrics = cluster_.metrics(); metrics != nullptr) {
      slot->queued_gauge =
          &metrics->Gauge(InstanceGaugeName("io.queued", server));
      slot->batches_gauge =
          &metrics->Gauge(InstanceGaugeName("io.inflight_batches", server));
      slot->fill_gauge =
          &metrics->Gauge(InstanceGaugeName("io.batch_fill", server));
    }
  }
  return *slot;
}

void OpScheduler::Enqueue(net::NodeId client, std::uint32_t server,
                          PendingOp op, trace::TraceContext trace) {
  Lane& lane = LaneFor(client, server);
  op.wait_span = trace::Child(trace, "kv.batch.wait", "kv");
  lane.queue.push_back(std::move(op));
  GaugeAdd(lane.queued_gauge, 1);
  ++stats_.batched_ops;
  if (!lane.draining) {
    lane.draining = true;
    RunDrain(&lane);
  }
}

sim::Future<Status> OpScheduler::EnqueueMutation(net::NodeId client,
                                                 std::uint32_t server,
                                                 kv::BatchKind kind,
                                                 std::string key, Bytes value,
                                                 trace::TraceContext trace) {
  PendingOp op;
  op.kind = kind;
  op.key = std::move(key);
  op.value = std::move(value);
  op.status_done = sim::Promise<Status>(sim_);
  auto future = op.status_done.GetFuture();
  Enqueue(client, server, std::move(op), trace);
  return future;
}

sim::Future<Status> OpScheduler::Set(net::NodeId client, std::uint32_t server,
                                     std::string key, Bytes value,
                                     trace::TraceContext trace) {
  return EnqueueMutation(client, server, kv::BatchKind::kSet, std::move(key),
                         std::move(value), trace);
}

sim::Future<Status> OpScheduler::Add(net::NodeId client, std::uint32_t server,
                                     std::string key, Bytes value,
                                     trace::TraceContext trace) {
  return EnqueueMutation(client, server, kv::BatchKind::kAdd, std::move(key),
                         std::move(value), trace);
}

sim::Future<Status> OpScheduler::Append(net::NodeId client,
                                        std::uint32_t server, std::string key,
                                        Bytes suffix,
                                        trace::TraceContext trace) {
  return EnqueueMutation(client, server, kv::BatchKind::kAppend,
                         std::move(key), std::move(suffix), trace);
}

sim::Future<Status> OpScheduler::Delete(net::NodeId client,
                                        std::uint32_t server, std::string key,
                                        trace::TraceContext trace) {
  return EnqueueMutation(client, server, kv::BatchKind::kDelete,
                         std::move(key), Bytes(), trace);
}

sim::Future<Result<Bytes>> OpScheduler::Get(net::NodeId client,
                                            std::uint32_t server,
                                            std::string key,
                                            trace::TraceContext trace) {
  PendingOp op;
  op.kind = kv::BatchKind::kGet;
  op.key = std::move(key);
  op.value_done = sim::Promise<Result<Bytes>>(sim_);
  auto future = op.value_done.GetFuture();
  Enqueue(client, server, std::move(op), trace);
  return future;
}

// Drain loop for one lane. Each round yields once — every op enqueued at the
// current simulated instant gets to join — then collects queued ops of the
// head op's kind (up to the batch ceilings) into one batch RPC. Acquiring a
// window slot blocks when `window` batches are already in flight, during
// which the queue keeps building: backpressure is what grows batches under
// load.
sim::Task OpScheduler::RunDrain(Lane* lane) {
  while (!lane->queue.empty()) {
    co_await sim_.Yield();
    if (lane->queue.empty()) break;
    // Take the window slot before choosing the batch: everything that
    // arrives while this lane is blocked on in-flight batches joins the next
    // one, which is exactly when coalescing pays.
    // lint: allow(acquire-release) window permit released by RunBatch
    co_await lane->window->Acquire();
    const kv::BatchKind kind = lane->queue.front().kind;
    std::vector<PendingOp> batch;
    if (!lane->spare_batches.empty()) {
      batch = std::move(lane->spare_batches.back());
      lane->spare_batches.pop_back();
    }
    // Split the queue in place: members move into the batch, the rest close
    // up behind one another in arrival order.
    std::vector<PendingOp>& queue = lane->queue;
    std::uint64_t batch_bytes = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      PendingOp& op = queue[i];
      const std::uint64_t op_bytes = op.key.size() + op.value.StoredSize();
      const bool fits =
          op.kind == kind && batch.size() < config_.max_batch_ops &&
          (batch.empty() || batch_bytes + op_bytes <= config_.max_batch_bytes);
      if (fits) {
        batch_bytes += op_bytes;
        batch.push_back(std::move(op));
      } else {
        if (kept != i) queue[kept] = std::move(op);
        ++kept;
      }
    }
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(kept),
                queue.end());
    GaugeAdd(lane->queued_gauge,
             -static_cast<std::int64_t>(batch.size()));
    RunBatch(lane, kind, std::move(batch));
  }
  lane->draining = false;
}

// Ships one batch and demultiplexes the per-item verdicts back to the per-op
// futures. Holds the window slot it was launched with until the batch RPC
// resolves.
sim::Task OpScheduler::RunBatch(Lane* lane, kv::BatchKind kind,
                                std::vector<PendingOp> ops) {
  ++stats_.batches;
  stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, ops.size());
  GaugeAdd(lane->batches_gauge, 1);
  GaugeSet(lane->fill_gauge, static_cast<std::int64_t>(ops.size()));
  std::vector<kv::BatchItem> items;
  items.reserve(ops.size());
  for (PendingOp& op : ops) {
    items.push_back(kv::BatchItem{std::move(op.key), std::move(op.value)});
  }
  // The batch RPC's span lives under the first member's wait span; the other
  // members' wait spans cover the same interval in their own traces.
  std::vector<kv::BatchItemResult> results = co_await cluster_.Batch(
      lane->client, lane->server, kind, std::move(items),
      ops.front().wait_span);
  lane->window->Release();
  GaugeAdd(lane->batches_gauge, -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    PendingOp& op = ops[i];
    kv::BatchItemResult& result = results[i];
    trace::End(op.wait_span);
    if (kind == kv::BatchKind::kGet) {
      if (result.status.ok()) {
        op.value_done.Set(Result<Bytes>(std::move(result.value)));
      } else {
        op.value_done.Set(Result<Bytes>(result.status));
      }
    } else {
      op.status_done.Set(std::move(result.status));
    }
  }
  ops.clear();
  lane->spare_batches.push_back(std::move(ops));
}

}  // namespace memfs::io
