#include "kvstore/kv_cluster.h"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/pool_alloc.h"

namespace memfs::kv {

// Outcome slot for a single attempt. The attempt coroutine and the deadline
// watchdog race to settle it; whoever loses finds `settled` and stands down.
// `applied` marks the server's commit point: once set, the watchdog lets the
// acknowledgement finish instead of reporting DEADLINE_EXCEEDED, so a retried
// ADD/APPEND can never have been applied by an earlier attempt.
template <typename T>
struct RaceState {
  explicit RaceState(sim::Simulation& sim) : promise(sim) {}

  sim::Promise<T> promise;
  bool settled = false;
  bool applied = false;

  void Settle(T value) {
    if (settled) return;
    settled = true;
    promise.Set(std::move(value));
  }
};

// A single-key operation as its attempts see it. RunWithRetry and every
// attempt share one pooled block. A mutation's payload is consumed by its one
// commit (ApplyBatchItem moves it into the server); every retryable failure
// happens before the commit point, so no later attempt sees it moved-from.
struct SingleOp {
  BatchKind kind;
  BatchItem item;              // key, plus the payload for mutations
  std::uint64_t request_bytes;
  sim::SimTime service;        // mutations; a GET is priced on its value
};

namespace {

template <typename T>
T ErrorResult(Status status);
template <>
Status ErrorResult<Status>(Status status) {
  return status;
}
template <>
Result<Bytes> ErrorResult<Result<Bytes>>(Status status) {
  return Result<Bytes>(std::move(status));
}

Status StatusOf(const Status& status) { return status; }
Status StatusOf(const Result<Bytes>& result) { return result.status(); }

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

// Same, but records one observation per batch item so the per-op
// kv.set/kv.get/... histograms stay balanced whichever path an op rides.
template <typename T>
sim::Task RecordKvItemLatencies(sim::Future<T> future, sim::Simulation* sim,
                                LatencyHistogram* histogram, std::size_t items,
                                sim::SimTime start) {
  (void)co_await future;
  for (std::size_t i = 0; i < items; ++i) {
    histogram->Record(sim->now() - start);
  }
}

template <typename T>
sim::Task RunDeadline(sim::Simulation& sim, std::shared_ptr<RaceState<T>> race,
                      sim::SimTime deadline) {
  co_await sim.Delay(deadline);
  if (race->applied) co_return;  // committed: wait for the acknowledgement
  race->Settle(ErrorResult<T>(status::DeadlineExceeded("op deadline")));
}

// One mutation attempt: ship key+value to the server, process under a worker
// slot, return a small acknowledgement. `ctx` is this attempt's span (owned
// here: the frame ends it on every exit path).
sim::Task RunMutationAttempt(sim::Simulation& sim, net::Network& network,
                             KvCluster::ServerSlotAccess slot,
                             net::NodeId client, std::shared_ptr<SingleOp> op,
                             std::shared_ptr<RaceState<Status>> race,
                             std::uint64_t ack_bytes,
                             sim::SimTime failure_timeout,
                             trace::TraceContext ctx) {
  trace::ScopedSpan attempt = trace::ScopedSpan::Adopt(ctx);
  if (network.DropMessage(client, slot.node)) {
    // The request evaporated; with no reply coming, the client can only wait
    // out its timeout (the deadline watchdog usually fires first).
    trace::Event(ctx, "request_lost");
    co_await sim.Delay(failure_timeout);
    race->Settle(status::DeadlineExceeded("request lost"));
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.request", "net");
    co_await network.Transfer(client, slot.node, op->request_bytes);
  }
  if (*slot.down) {
    trace::Event(ctx, "server_down");
    co_await sim.Delay(failure_timeout);
    race->Settle(status::Unavailable("server down"));
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
  {
    trace::ScopedSpan service = trace::ScopedSpan::Adopt(
        trace::ChildOn(ctx, "kv.service", "kv.service", slot.node));
    co_await sim.Delay(static_cast<sim::SimTime>(
        static_cast<double>(op->service) * *slot.slow_factor));
  }
  if (race->settled) {
    // The client gave up on this attempt; cancellation reaches the server
    // before commit, so the request is discarded — a later retry stays
    // exactly-once for non-idempotent ADD/APPEND.
    trace::Event(ctx, "cancelled_before_commit");
    slot.workers->Release();
    GaugeAdd(slot.inflight_gauge, -1);
    co_return;
  }
  race->applied = true;
  trace::Event(ctx, "commit");
  Status status = slot.state->ApplyBatchItem(op->kind, op->item).status;
  SyncStorageGauges(slot);
  slot.workers->Release();
  GaugeAdd(slot.inflight_gauge, -1);
  {
    trace::ScopedSpan leg(ctx, "net.ack", "net");
    co_await network.Transfer(slot.node, client, ack_bytes);
  }
  race->Settle(std::move(status));
}

// One GET attempt; GETs have no commit point, so the deadline may preempt
// any phase and the value-sized reply leg is skipped once abandoned.
sim::Task RunGetAttempt(sim::Simulation& sim, net::Network& network,
                        KvCluster::ServerSlotAccess slot, net::NodeId client,
                        const KvOpCostModel& cost, std::shared_ptr<SingleOp> op,
                        std::shared_ptr<RaceState<Result<Bytes>>> race,
                        trace::TraceContext ctx) {
  trace::ScopedSpan attempt = trace::ScopedSpan::Adopt(ctx);
  if (network.DropMessage(client, slot.node)) {
    trace::Event(ctx, "request_lost");
    co_await sim.Delay(cost.failure_timeout);
    race->Settle(Result<Bytes>(status::DeadlineExceeded("request lost")));
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.request", "net");
    co_await network.Transfer(client, slot.node, op->request_bytes);
  }
  if (*slot.down) {
    trace::Event(ctx, "server_down");
    co_await sim.Delay(cost.failure_timeout);
    race->Settle(Result<Bytes>(status::Unavailable("server down")));
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
  Result<Bytes> result = slot.state->Get(op->item.key);
  const std::uint64_t value_bytes =
      result.ok() ? result.value().StoredSize() : 0;
  const auto service =
      cost.get_base + static_cast<sim::SimTime>(cost.get_ns_per_byte *
                                                static_cast<double>(
                                                    value_bytes));
  {
    trace::ScopedSpan span = trace::ScopedSpan::Adopt(
        trace::ChildOn(ctx, "kv.service", "kv.service", slot.node));
    co_await sim.Delay(static_cast<sim::SimTime>(
        static_cast<double>(service) * *slot.slow_factor));
  }
  slot.workers->Release();
  GaugeAdd(slot.inflight_gauge, -1);
  if (race->settled) {
    trace::Event(ctx, "abandoned");  // no one is listening
    co_return;
  }
  {
    trace::ScopedSpan leg(ctx, "net.reply", "net");
    co_await network.Transfer(slot.node, client,
                              cost.header_bytes + value_bytes);
  }
  race->Settle(std::move(result));
}

}  // namespace

// Outcome slot for one batch attempt. Mirrors RaceState, generalized to
// per-item granularity: each entry names one still-unresolved item of the
// master list; `resolved` marks that its verdict streamed back to the client
// (for mutations this is also the commit point — resolved <=> applied),
// `finished` marks the full acknowledgement, and `attempt_error` is the
// verdict every unresolved item inherits when the attempt is cut off.
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
  // Every item committed: only the acknowledgement is outstanding, so let it
  // finish (same rule as the single-op watchdog after the commit point).
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
      // time — same order as the single-op GET path; harmless on
      // cancellation because reads have no commit point.
      result = state->ApplyBatchItem(kind, item);
      applied = true;
      service = BatchItemService(cost, kind, result.value.StoredSize());
    } else {
      service = BatchItemService(cost, kind, item.value.StoredSize());
    }
    // Items after the first ride the message's already-paid dispatch
    // (syscall + wakeup + parse), which the per-op bases include; a batch of
    // one therefore costs exactly what the single-op path charges.
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

template <typename T>
sim::Task KvCluster::RunWithRetry(std::uint32_t server, net::NodeId client,
                                  std::shared_ptr<SingleOp> request,
                                  sim::Promise<T> done,
                                  trace::TraceContext op_span) {
  trace::ScopedSpan op = trace::ScopedSpan::Adopt(op_span);
  auto& slot = servers_[server];
  RetryState retry(policy_.retry, sim_.now());
  T result = ErrorResult<T>(status::Unavailable("no attempt made"));
  std::uint32_t attempts = 0;
  while (true) {
    if (slot.left) {
      // The server drained out of the cluster for good: answer immediately
      // with a non-retryable verdict so callers fail over (or surface the
      // loss) instead of burning the failure timeout per attempt.
      trace::Event(op_span, "server_left");
      result = ErrorResult<T>(status::UnavailablePermanent("server left"));
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
      result = ErrorResult<T>(status::Unavailable("circuit breaker open"));
    } else {
      auto race = sim::detail::MakePooled<RaceState<T>>(sim_);
      auto attempt = race->promise.GetFuture();
      trace::TraceContext attempt_span =
          trace::Child(op_span, "kv.attempt", "kv.attempt");
      trace::Annotate(attempt_span, "attempt", ++attempts);
      ++stats_.single_rpcs;
      ++slot.client_stats.single_ops;
      if constexpr (std::is_same_v<T, Status>) {
        RunMutationAttempt(sim_, network_, AccessOf(slot), client, request,
                           race, cost_.header_bytes, cost_.failure_timeout,
                           attempt_span);
      } else {
        RunGetAttempt(sim_, network_, AccessOf(slot), client, cost_, request,
                      race, attempt_span);
      }
      if (policy_.op_deadline > 0) {
        RunDeadline<T>(sim_, race, policy_.op_deadline);
      }
      result = co_await attempt;
      const Status status = StatusOf(result);
      if (status.ok() || !IsRetryable(status.code())) {
        slot.breaker.RecordSuccess();
      } else {
        const std::uint64_t opens_before = slot.breaker.open_transitions();
        slot.breaker.RecordFailure(sim_.now());
        if (slot.breaker.open_transitions() != opens_before) {
          ++stats_.breaker_opens;
          ++slot.client_stats.breaker_opens;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.breaker_opens");
        }
        if (status.code() == ErrorCode::kDeadlineExceeded) {
          ++stats_.deadline_exceeded;
          ++slot.client_stats.deadline_exceeded;
          if (metrics_ != nullptr) ++metrics_->Counter("kv.deadline_exceeded");
        }
      }
      GaugeSet(slot.breaker_gauge,
               static_cast<std::int64_t>(slot.breaker.state()));
    }
    const Status status = StatusOf(result);
    if (status.ok() || !IsRetryable(status.code())) break;
    const RetryState::Backoff backoff = retry.NextBackoff(rng_, sim_.now());
    if (!backoff.allowed) break;
    ++stats_.retries;
    ++slot.client_stats.retries;
    if (metrics_ != nullptr) ++metrics_->Counter("kv.retries");
    {
      trace::ScopedSpan wait(op_span, "backoff", "retry");
      co_await sim_.Delay(backoff.nanos);
    }
  }
  done.Set(std::move(result));
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

sim::Future<Status> KvCluster::Mutate(net::NodeId client, std::uint32_t server,
                                      BatchKind kind, std::string key,
                                      Bytes value, const char* metric,
                                      trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  const std::uint64_t request =
      cost_.header_bytes + key.size() + value.StoredSize();
  trace::TraceContext op_span = trace::Child(trace, metric, "kv");
  trace::Annotate(op_span, "server", server);
  trace::Annotate(op_span, "bytes", request);
  const sim::SimTime service =
      BatchItemService(cost_, kind, value.StoredSize());
  RunWithRetry<Status>(
      server, client,
      sim::detail::MakePooled<SingleOp>(SingleOp{
          kind, BatchItem{std::move(key), std::move(value)}, request,
          service}),
      std::move(done), op_span);
  if (metrics_ != nullptr) {
    RecordKvLatency(future, &sim_, &metrics_->Histogram(metric), sim_.now(),
                    KvTagOf(op_span, client, server));
  }
  return future;
}

sim::Future<Status> KvCluster::Set(net::NodeId client, std::uint32_t server,
                                   std::string key, Bytes value,
                                   trace::TraceContext trace) {
  return Mutate(client, server, BatchKind::kSet, std::move(key),
                std::move(value), "kv.set", trace);
}

sim::Future<Status> KvCluster::Add(net::NodeId client, std::uint32_t server,
                                   std::string key, Bytes value,
                                   trace::TraceContext trace) {
  return Mutate(client, server, BatchKind::kAdd, std::move(key),
                std::move(value), "kv.add", trace);
}

sim::Future<Status> KvCluster::Append(net::NodeId client, std::uint32_t server,
                                      std::string key, Bytes suffix,
                                      trace::TraceContext trace) {
  return Mutate(client, server, BatchKind::kAppend, std::move(key),
                std::move(suffix), "kv.append", trace);
}

sim::Future<Status> KvCluster::Delete(net::NodeId client, std::uint32_t server,
                                      std::string key,
                                      trace::TraceContext trace) {
  return Mutate(client, server, BatchKind::kDelete, std::move(key), Bytes(),
                "kv.delete", trace);
}

sim::Future<Result<Bytes>> KvCluster::Get(net::NodeId client,
                                          std::uint32_t server,
                                          std::string key,
                                          trace::TraceContext trace) {
  sim::Promise<Result<Bytes>> done(sim_);
  auto future = done.GetFuture();
  const std::uint64_t request = cost_.header_bytes + key.size();
  trace::TraceContext op_span = trace::Child(trace, "kv.get", "kv");
  trace::Annotate(op_span, "server", server);
  RunWithRetry<Result<Bytes>>(
      server, client,
      sim::detail::MakePooled<SingleOp>(SingleOp{
          BatchKind::kGet, BatchItem{std::move(key), Bytes()}, request, 0}),
      std::move(done), op_span);
  if (metrics_ != nullptr) {
    RecordKvLatency(future, &sim_, &metrics_->Histogram("kv.get"), sim_.now(),
                    KvTagOf(op_span, client, server));
  }
  return future;
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
