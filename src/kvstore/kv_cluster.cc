#include "kvstore/kv_cluster.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/pool_alloc.h"

namespace memfs::kv {

namespace {

// Mirrors the server's storage footprint into its monitor gauges after an
// apply (one branch per gauge without a registry).
void SyncStorageGauges(const KvCluster::ServerSlotAccess& slot) {
  GaugeSet(slot.mem_gauge,
           static_cast<std::int64_t>(slot.state->memory_used()));
  GaugeSet(slot.objects_gauge,
           static_cast<std::int64_t>(slot.state->object_count()));
}

// Awaits an operation's future and records the client-observed latency. A
// tag with a nonzero trace id also offers the sample to the histogram's
// exemplar reservoir (common/metrics.h), so the monitor can link a bad
// window back to this operation's span — and to the server it hit.
template <typename T>
sim::Task RecordKvLatency(sim::Future<T> future, sim::Simulation* sim,
                          LatencyHistogram* histogram, sim::SimTime start,
                          Exemplar tag = {}) {
  (void)co_await future;
  const std::uint64_t nanos = sim->now() - start;
  if (tag.trace_id == 0) {
    histogram->Record(nanos);
    co_return;
  }
  tag.at = sim->now();
  histogram->Record(nanos, tag);
}

// Exemplar tag for a kv-level operation: its op span plus the target server.
Exemplar KvTagOf(const trace::TraceContext& op_span, net::NodeId client,
                 std::uint32_t server) {
  Exemplar tag;
  tag.trace_id = op_span.trace_id;
  tag.span_id = op_span.span_id;
  tag.node = client;
  tag.server = server;
  return tag;
}

// Records the client-observed latency once per batch item, so the per-op
// kv.set/kv.get/... histograms count operations rather than RPCs.
template <typename T>
sim::Task RecordKvItemLatencies(sim::Future<T> future, sim::Simulation* sim,
                                LatencyHistogram* histogram, std::size_t items,
                                sim::SimTime start) {
  (void)co_await future;
  for (std::size_t i = 0; i < items; ++i) {
    histogram->Record(sim->now() - start);
  }
}

}  // namespace

// Outcome slot for one batch attempt, shared by the attempt coroutine and its
// deadline watchdog: whoever settles it first wins, the other stands down.
// Each entry names one still-unresolved item of the master list; `resolved`
// marks that its verdict streamed back to the client at its apply point (for
// mutations this is the commit point — resolved <=> applied), `finished`
// marks the full acknowledgement, and `attempt_error` is the verdict every
// unresolved item inherits when the attempt is cut off.
struct BatchAttempt {
  struct Entry {
    std::size_t index = 0;  // position in the batch's master item list
    bool resolved = false;
    BatchItemResult result;
  };

  BatchAttempt(sim::Simulation& sim, const std::vector<std::size_t>& active)
      : done(sim), entries(active.size()) {
    for (std::size_t j = 0; j < active.size(); ++j) {
      entries[j].index = active[j];
    }
  }

  sim::VoidPromise done;
  bool settled = false;   // the client stopped waiting on this attempt
  bool finished = false;  // the batch acknowledgement arrived
  Status attempt_error;
  std::vector<Entry> entries;

  void Settle() {
    if (settled) return;
    settled = true;
    done.Set(sim::Done{});
  }
};

namespace {

// Per-item service time for one batch item; GETs are priced on the value
// they return, everything else on the payload they carry.
sim::SimTime BatchItemService(const KvOpCostModel& cost, BatchKind kind,
                              std::uint64_t bytes) {
  auto scaled = [](sim::SimTime base, double ns_per_byte,
                   std::uint64_t n) -> sim::SimTime {
    return base + static_cast<sim::SimTime>(ns_per_byte *
                                            static_cast<double>(n));
  };
  switch (kind) {
    case BatchKind::kSet:
    case BatchKind::kAdd:
      return scaled(cost.set_base, cost.set_ns_per_byte, bytes);
    case BatchKind::kGet:
      return scaled(cost.get_base, cost.get_ns_per_byte, bytes);
    case BatchKind::kAppend:
      return scaled(cost.append_base, cost.append_ns_per_byte, bytes);
    case BatchKind::kDelete:
      return cost.delete_base;
  }
  return cost.set_base;
}

sim::Task RunBatchDeadline(sim::Simulation& sim,
                           std::shared_ptr<BatchAttempt> attempt,
                           sim::SimTime deadline) {
  co_await sim.Delay(deadline);
  if (attempt->settled || attempt->finished) co_return;
  // Every item resolved at its apply point: only the reply is outstanding,
  // so let it finish — even a large GET reply that outlasts the deadline.
  if (std::all_of(attempt->entries.begin(), attempt->entries.end(),
                  [](const BatchAttempt::Entry& e) { return e.resolved; })) {
    co_return;
  }
  attempt->attempt_error = status::DeadlineExceeded("op deadline");
  attempt->Settle();
}

// One batch attempt: ship all items in one message (one header_bytes framing
// cost), process them in order under a single worker slot with per-item
// service time, stream each item's verdict at its commit point, and close
// with one acknowledgement. The attempt's entries select the still-unresolved
// items of the master list; resolved mutations move their payload into the
// server, so a later round never re-sends (or re-applies) them. The final reply leg
// carries all GET values at once; verdicts streamed before a mid-batch
// cancellation are considered delivered without charging a per-item ack —
// item acks are status-sized and folded into the batch framing.
sim::Task RunBatchAttempt(sim::Simulation& sim, net::Network& network,
                          KvCluster::ServerSlotAccess slot, net::NodeId client,
                          const KvOpCostModel& cost, BatchKind kind,
                          KvServer* state,
                          std::shared_ptr<std::vector<BatchItem>> items,
                          std::shared_ptr<BatchAttempt> attempt,
                          trace::TraceContext ctx) {
  trace::ScopedSpan span = trace::ScopedSpan::Adopt(ctx);
  std::uint64_t request_bytes = cost.header_bytes;
  for (const BatchAttempt::Entry& entry : attempt->entries) {
    const BatchItem& item = (*items)[entry.index];
    request_bytes += item.key.size() + item.value.StoredSize();
  }
  if (network.DropMessage(client, slot.node)) {
    trace::Event(ctx, "request_lost");
    co_await sim.Delay(cost.failure_timeout);
    attempt->attempt_error = status::DeadlineExceeded("request lost");
    attempt->Settle();
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.request", "net");
    co_await network.Transfer(client, slot.node, request_bytes);
  }
  if (*slot.down) {
    trace::Event(ctx, "server_down");
    co_await sim.Delay(cost.failure_timeout);
    attempt->attempt_error = status::Unavailable("server down");
    attempt->Settle();
    co_return;
  }
  GaugeAdd(slot.queue_gauge, 1);
  {
    trace::ScopedSpan queued = trace::ScopedSpan::Adopt(
        trace::ChildOn(ctx, "kv.queue", "queue", slot.node));
    co_await slot.workers->Acquire();
  }
  GaugeAdd(slot.queue_gauge, -1);
  GaugeAdd(slot.inflight_gauge, 1);
  std::uint64_t reply_payload = 0;
  for (std::size_t j = 0; j < attempt->entries.size(); ++j) {
    BatchItem& item = (*items)[attempt->entries[j].index];
    BatchItemResult result;
    bool applied = false;
    sim::SimTime service;
    if (kind == BatchKind::kGet) {
      // Reads are applied up front so the value size can price the service
      // time; harmless on cancellation because reads have no commit point.
      result = state->ApplyBatchItem(kind, item);
      applied = true;
      service = BatchItemService(cost, kind, result.value.StoredSize());
    } else {
      service = BatchItemService(cost, kind, item.value.StoredSize());
    }
    // Items after the first ride the message's already-paid dispatch
    // (syscall + wakeup + parse), which the per-op bases include; the first
    // item pays its full base.
    if (j > 0) service -= std::min(service, cost.rpc_dispatch);
    {
      trace::ScopedSpan item_span = trace::ScopedSpan::Adopt(
          trace::ChildOn(ctx, "kv.item", "kv.service", slot.node));
      trace::Annotate(item_span.context(), "key", item.key);
      co_await sim.Delay(static_cast<sim::SimTime>(
          static_cast<double>(service) * *slot.slow_factor));
    }
    if (attempt->settled) {
      // The client gave up mid-batch; cancellation reaches the server before
      // this item's commit point, so it and everything after it are
      // discarded — a later round retries them exactly-once.
      trace::Event(ctx, "cancelled_mid_batch");
      slot.workers->Release();
      GaugeAdd(slot.inflight_gauge, -1);
      co_return;
    }
    if (!applied) result = state->ApplyBatchItem(kind, item);
    if (kind == BatchKind::kGet && result.status.ok()) {
      reply_payload += result.value.StoredSize();
    }
    attempt->entries[j].result = std::move(result);
    attempt->entries[j].resolved = true;
    SyncStorageGauges(slot);
  }
  slot.workers->Release();
  GaugeAdd(slot.inflight_gauge, -1);
  {
    trace::ScopedSpan leg(ctx, "net.reply", "net");
    co_await network.Transfer(slot.node, client,
                              cost.header_bytes + reply_payload);
  }
  attempt->finished = true;
  attempt->Settle();
}

}  // namespace

KvCluster::KvCluster(sim::Simulation& sim, net::Network& network,
                     std::vector<net::NodeId> server_nodes,
                     KvServerConfig server_config, KvOpCostModel cost_model,
                     MetricsRegistry* metrics, KvClientPolicy policy)
    : sim_(sim), network_(network), cost_(cost_model),
      server_config_(server_config), metrics_(metrics), policy_(policy),
      rng_(policy.rng_seed) {
  for (net::NodeId node : server_nodes) {
    (void)AddServer(node);
  }
}

std::uint32_t KvCluster::AddServer(net::NodeId node) {
  ServerSlot slot;
  slot.node = node;
  slot.state = std::make_unique<KvServer>(server_config_);
  slot.workers = std::make_unique<sim::Semaphore>(sim_, cost_.workers);
  slot.breaker = CircuitBreaker(policy_.breaker);
  const auto index = static_cast<std::uint32_t>(servers_.size());
  if (metrics_ != nullptr) {
    slot.mem_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.mem_bytes", index));
    slot.objects_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.objects", index));
    slot.queue_gauge = &metrics_->Gauge(InstanceGaugeName("kv.queue", index));
    slot.inflight_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.inflight", index));
    slot.breaker_gauge =
        &metrics_->Gauge(InstanceGaugeName("kv.breaker", index));
  }
  servers_.push_back(std::move(slot));
  return index;
}

sim::Task KvCluster::RunBatchWithRetry(
    std::uint32_t server, BatchKind kind, net::NodeId client,
    std::shared_ptr<std::vector<BatchItem>> items,
    sim::Promise<std::vector<BatchItemResult>> done,
    trace::TraceContext op_span) {
  trace::ScopedSpan op = trace::ScopedSpan::Adopt(op_span);
  auto& slot = servers_[server];
  const std::size_t total = items->size();
  std::vector<BatchItemResult> outcomes(total);
  // Still-unresolved items (indices into *items); each round refills it with
  // the attempt's leftovers.
  std::vector<std::size_t> active(total);
  for (std::size_t i = 0; i < total; ++i) active[i] = i;
  RetryState retry(policy_.retry, sim_.now());
  std::uint32_t attempts = 0;
  while (!active.empty()) {
    if (slot.left) {
      trace::Event(op_span, "server_left");
      for (std::size_t index : active) {
        outcomes[index] =
            BatchItemResult{status::UnavailablePermanent("server left"), {}};
      }
      break;
    }
    const bool allowed = slot.breaker.AllowRequest(sim_.now());
    GaugeSet(slot.breaker_gauge,
             static_cast<std::int64_t>(slot.breaker.state()));
    if (!allowed) {
      ++stats_.breaker_fast_fails;
      ++slot.client_stats.breaker_fast_fails;
      if (metrics_ != nullptr) ++metrics_->Counter("kv.breaker_fast_fails");
      trace::Event(op_span, "breaker_fast_fail");
      for (std::size_t index : active) {
        outcomes[index] =
            BatchItemResult{status::Unavailable("circuit breaker open"), {}};
      }
    } else {
      auto attempt = sim::detail::MakePooled<BatchAttempt>(sim_, active);
      auto settled = attempt->done.GetFuture();
      trace::TraceContext attempt_span =
          trace::Child(op_span, "kv.batch.attempt", "kv.attempt");
      trace::Annotate(attempt_span, "attempt", ++attempts);
      trace::Annotate(attempt_span, "items", active.size());
      ++stats_.batch_rpcs;
      stats_.batch_items += active.size();
      ++slot.client_stats.batches;
      slot.client_stats.batched_items += active.size();
      if (metrics_ != nullptr) {
        metrics_->Histogram("kv.batch.size").Record(active.size());
      }
      RunBatchAttempt(sim_, network_, AccessOf(slot), client, cost_, kind,
                      slot.state.get(), items, attempt, attempt_span);
      if (policy_.op_deadline > 0) {
        RunBatchDeadline(sim_, attempt, policy_.op_deadline);
      }
      (void)co_await settled;
      // Demultiplex: streamed verdicts are final (and, for mutations,
      // committed — never re-sent); unresolved items inherit the attempt
      // error and form the next round.
      active.clear();
      for (BatchAttempt::Entry& entry : attempt->entries) {
        if (entry.resolved) {
          outcomes[entry.index] = std::move(entry.result);
        } else {
          outcomes[entry.index] = BatchItemResult{attempt->attempt_error, {}};
          active.push_back(entry.index);
        }
      }
      if (attempt->finished) {
        slot.breaker.RecordSuccess();
      } else {
        const std::uint64_t opens_before = slot.breaker.open_transitions();
        slot.breaker.RecordFailure(sim_.now());
        if (slot.breaker.open_transitions() != opens_before) {
          ++stats_.breaker_opens;
          ++slot.client_stats.breaker_opens;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.breaker_opens");
        }
        if (attempt->attempt_error.code() == ErrorCode::kDeadlineExceeded) {
          ++stats_.deadline_exceeded;
          ++slot.client_stats.deadline_exceeded;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.deadline_exceeded");
        }
      }
      GaugeSet(slot.breaker_gauge,
               static_cast<std::int64_t>(slot.breaker.state()));
    }
    if (active.empty()) break;
    const RetryState::Backoff backoff = retry.NextBackoff(rng_, sim_.now());
    if (!backoff.allowed) break;  // unresolved outcomes keep their error
    ++stats_.retries;
    ++slot.client_stats.retries;
    if (metrics_ != nullptr) ++metrics_->Counter("kv.retries");
    {
      trace::ScopedSpan wait(op_span, "backoff", "retry");
      co_await sim_.Delay(backoff.nanos);
    }
  }
  done.Set(std::move(outcomes));
}

sim::Future<std::vector<BatchItemResult>> KvCluster::Batch(
    net::NodeId client, std::uint32_t server, BatchKind kind,
    std::vector<BatchItem> items, trace::TraceContext trace) {
  sim::Promise<std::vector<BatchItemResult>> done(sim_);
  auto future = done.GetFuture();
  if (items.empty()) {
    done.Set({});
    return future;
  }
  trace::TraceContext op_span = trace::Child(trace, "kv.batch", "kv");
  trace::Annotate(op_span, "server", server);
  trace::Annotate(op_span, "kind", BatchKindName(kind));
  trace::Annotate(op_span, "items", items.size());
  auto shared =
      sim::detail::MakePooled<std::vector<BatchItem>>(std::move(items));
  RunBatchWithRetry(server, kind, client, shared, std::move(done), op_span);
  if (metrics_ != nullptr) {
    const std::string metric = std::string("kv.batch.") + BatchKindName(kind);
    RecordKvLatency(future, &sim_, &metrics_->Histogram(metric), sim_.now(),
                    KvTagOf(op_span, client, server));
    const std::string op_metric = std::string("kv.") + BatchKindName(kind);
    RecordKvItemLatencies(future, &sim_, &metrics_->Histogram(op_metric),
                          shared->size(), sim_.now());
  }
  return future;
}

void KvCluster::SetServerDown(std::uint32_t index, bool down,
                              bool wipe_on_restart) {
  auto& slot = servers_[index];
  if (!down && wipe_on_restart) {
    slot.state->Clear();
    GaugeSet(slot.mem_gauge, 0);
    GaugeSet(slot.objects_gauge, 0);
  }
  slot.down = down;
}

bool KvCluster::IsServerDown(std::uint32_t index) const {
  return servers_[index].down;
}

void KvCluster::SetServerLeft(std::uint32_t index) {
  auto& slot = servers_[index];
  slot.left = true;
  slot.state->Clear();
  GaugeSet(slot.mem_gauge, 0);
  GaugeSet(slot.objects_gauge, 0);
}

bool KvCluster::IsServerLeft(std::uint32_t index) const {
  return servers_[index].left;
}

void KvCluster::SetServerSlowdown(std::uint32_t index, double factor) {
  servers_[index].slow_factor = factor <= 0.0 ? 1.0 : factor;
}

double KvCluster::ServerSlowdown(std::uint32_t index) const {
  return servers_[index].slow_factor;
}

std::uint64_t KvCluster::total_memory_used() const {
  std::uint64_t total = 0;
  for (const auto& slot : servers_) total += slot.state->memory_used();
  return total;
}

}  // namespace memfs::kv
