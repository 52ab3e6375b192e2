#include "memfs/memfs.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/task.h"

namespace memfs::fs {

MemFs::MemFs(sim::Simulation& sim, net::Network& network,
             kv::KvCluster& storage, MemFsConfig config)
    : sim_(sim),
      storage_(storage),
      config_(config),
      striper_(config.stripe_size),
      fuse_(sim, network.config().nodes, config.fuse),
      sched_(sim, storage, config.io),
      write_pool_(sim, network.config().nodes, config.io_threads,
                  "memfs.write_pool"),
      read_pool_(sim, network.config().nodes, config.read_threads,
                 "memfs.read_pool") {
  epochs_.push_back(MakeDistributor(storage_.server_count()));
  if (config_.metrics != nullptr) {
    const std::uint32_t nodes = network.config().nodes;
    open_files_gauges_.reserve(nodes);
    dirty_gauges_.reserve(nodes);
    for (std::uint32_t node = 0; node < nodes; ++node) {
      open_files_gauges_.push_back(
          &config_.metrics->Gauge(InstanceGaugeName("fs.open_files", node)));
      dirty_gauges_.push_back(
          &config_.metrics->Gauge(InstanceGaugeName("fs.dirty_bytes", node)));
    }
  }
  // Bootstrap the root directory directly into its home server (and every
  // replica); this happens at deployment time, before any simulated traffic.
  if (config_.metadata == mds::MetadataMode::kSharded) {
    meta_store_ = std::make_unique<MetaStore>(*this);
    meta_client_ = std::make_unique<mds::Client>(sim_, *meta_store_,
                                                 config_.meta,
                                                 config_.metrics);
    mds::InodeRecord root;
    root.kind = mds::InodeKind::kDirectory;
    root.sealed = true;
    SeedKey(mds::InodeKey(mds::kRootIno), mds::EncodeInode(root));
  } else {
    for (std::uint32_t r = 0; r < ReplicaCount(0); ++r) {
      const Status status = storage_.server(ReplicaServer(0, "/", r))
                                .Set("/", meta::DirHeader());
      assert(status.ok());
      (void)status;
    }
  }
}

void MemFs::SeedKey(const std::string& key, const Bytes& value) {
  for (std::uint32_t r = 0; r < ReplicaCount(0); ++r) {
    const Status status =
        storage_.server(ReplicaServer(0, key, r)).Set(key, value);
    assert(status.ok());
    (void)status;
  }
}

void MemFs::SeedAppendKey(const std::string& key, const Bytes& header,
                          const Bytes& event) {
  for (std::uint32_t r = 0; r < ReplicaCount(0); ++r) {
    auto& server = storage_.server(ReplicaServer(0, key, r));
    Status status = server.Append(key, event);
    if (status.code() == ErrorCode::kNotFound) {
      Bytes blob = header;
      blob.Append(event);
      status = server.Set(key, blob);
    }
    assert(status.ok());
    (void)status;
  }
}

void MemFs::BulkLoadDirectory(const std::string& dir,
                              const std::string& prefix,
                              std::uint64_t count) {
  assert(meta_client_ != nullptr && "bulk loading requires sharded metadata");
  assert(path::IsNormalized(dir) && dir != "/" && path::Parent(dir) == "/");
  const mds::MetaConfig& mc = config_.meta;
  mds::Client* client = meta_client_.get();

  // The directory itself: inode, dentry under the root, root index event.
  const mds::Ino dir_ino = client->AllocateIno();
  mds::InodeRecord dir_rec;
  dir_rec.kind = mds::InodeKind::kDirectory;
  dir_rec.sealed = true;
  SeedKey(mds::InodeKey(dir_ino), mds::EncodeInode(dir_rec));
  const std::string dir_name = path::Basename(dir);
  SeedKey(mds::DentryKey(mds::kRootIno, dir_name),
          mds::EncodeDentry({dir_ino, mds::InodeKind::kDirectory}));
  const std::uint32_t root_shard =
      mds::ShardOfName(mds::kRootIno, dir_name, mc.dir_shards, mc.hash_kind);
  SeedAppendKey(mds::IndexKey(mds::kRootIno, root_shard), mds::IndexHeader(),
                mds::IndexEvent(dir_name, false));
  client->RecordSeededDentries(root_shard, 1);

  // The children: sealed zero-length files; index events accumulate per
  // token range and land as one blob each.
  std::vector<std::string> blobs(mc.dir_shards, "X\n");
  std::vector<std::int64_t> counts(mc.dir_shards, 0);
  mds::InodeRecord file_rec;
  file_rec.sealed = true;
  file_rec.epoch = current_epoch();
  const Bytes encoded_file = mds::EncodeInode(file_rec);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = prefix + std::to_string(i);
    const mds::Ino ino = client->AllocateIno();
    SeedKey(mds::InodeKey(ino), encoded_file);
    SeedKey(mds::DentryKey(dir_ino, name),
            mds::EncodeDentry({ino, mds::InodeKind::kFile}));
    const std::uint32_t shard =
        mds::ShardOfName(dir_ino, name, mc.dir_shards, mc.hash_kind);
    blobs[shard].push_back('+');
    blobs[shard].append(name);
    blobs[shard].push_back('\n');
    ++counts[shard];
  }
  for (std::uint32_t shard = 0; shard < mc.dir_shards; ++shard) {
    if (counts[shard] == 0) continue;
    SeedKey(mds::IndexKey(dir_ino, shard), Bytes::Copy(blobs[shard]));
    client->RecordSeededDentries(shard, counts[shard]);
  }
}

std::unique_ptr<hash::Distributor> MemFs::MakeDistributor(
    std::uint32_t servers) const {
  if (config_.use_ketama) {
    return hash::MakeKetama(servers, 160, config_.hash_kind);
  }
  return hash::MakeModulo(servers, config_.hash_kind);
}

std::uint32_t MemFs::AddStorageServer(net::NodeId kv_node) {
  assert(membership_ == nullptr &&
         "epoch pinning and elastic membership do not mix");
  (void)storage_.AddServer(kv_node);
  epochs_.push_back(MakeDistributor(storage_.server_count()));
  return current_epoch();
}

void MemFs::AttachMembership(kv::Membership* membership) {
  assert(membership == nullptr ||
         (config_.use_ketama && epochs_.size() == 1 &&
          membership->config().replication == config_.replication &&
          membership->member_count() == storage_.server_count()));
  membership_ = membership;
}

std::vector<std::uint32_t> MemFs::LegacyChain(std::uint32_t epoch,
                                              std::string_view key) const {
  const std::uint32_t replicas = ReplicaCount(epoch);
  std::vector<std::uint32_t> chain;
  chain.reserve(replicas);
  for (std::uint32_t r = 0; r < replicas; ++r) {
    chain.push_back(ReplicaServer(epoch, key, r));
  }
  return chain;
}

std::vector<std::uint32_t> MemFs::GetChain(std::uint32_t epoch,
                                           std::string_view key) const {
  if (membership_ != nullptr) return membership_->ReadChain(key);
  return LegacyChain(epoch, key);
}

kv::Membership::WriteRoute MemFs::WriteRouteFor(std::uint32_t epoch,
                                                std::string_view key) const {
  if (membership_ != nullptr) return membership_->RouteWrite(key);
  kv::Membership::WriteRoute route;
  route.primary = LegacyChain(epoch, key);
  return route;
}

// ---------------------------------------------------------------------------
// Replication-aware storage primitives (§3.2.5 extension)

std::uint32_t MemFs::ReplicaCount(std::uint32_t epoch) const {
  return std::min<std::uint32_t>(
      std::max<std::uint32_t>(config_.replication, 1),
      epochs_[epoch]->server_count());
}

std::uint32_t MemFs::ReplicaServer(std::uint32_t epoch, std::string_view key,
                                   std::uint32_t replica) const {
  const auto& ring = *epochs_[epoch];
  return (ring.ServerFor(key) + replica) % ring.server_count();
}

sim::Task MemFs::RunReplicatedMutation(std::uint32_t epoch, net::NodeId node,
                                       std::string key, Bytes value,
                                       bool append,
                                       sim::Promise<Status> done,
                                       trace::TraceContext trace) {
  // Elastic handoff window: serialize against the migrator so a concurrent
  // copy can never install a value older than this write. The route is
  // computed only after the gate admits us — the handoff may have committed
  // while we waited, flipping the key onto the new ring.
  const bool gated =
      membership_ != nullptr && membership_->ShouldGate(key);
  if (gated) co_await membership_->gate().EnterWriter(key);
  const kv::Membership::WriteRoute route = WriteRouteFor(epoch, key);
  if (route.primary.size() == 1 && route.secondary.empty()) {
    // Single copy: no replica layer to show — the kv op span hangs directly
    // off the caller's span.
    const std::uint32_t server = route.primary.front();
    Status status;
    if (append) {
      status = co_await sched_.Append(node, server, key, std::move(value),
                                      trace);
    } else {
      status = co_await sched_.Set(node, server, key, std::move(value),
                                   trace);
    }
    if (gated) membership_->gate().ExitWriter(key);
    done.Set(std::move(status));
    co_return;
  }
  trace::ScopedSpan span(trace, append ? "replica.append" : "replica.set",
                         "replica");
  const trace::TraceContext tctx = span.context();
  // All replicas written in parallel. Strict mode succeeds only if every
  // replica acknowledges (a down replica fails the write — the paper's
  // stated cost of replication, which is why it defaults off). Degraded mode
  // tolerates unreachable replicas as long as one copy lands; read repair
  // reinstalls the skipped copies once their server is back.
  std::vector<sim::Future<Status>> futures;
  futures.reserve(route.primary.size());
  for (std::uint32_t server : route.primary) {
    futures.push_back(append ? sched_.Append(node, server, key, value, tctx)
                             : sched_.Set(node, server, key, value, tctx));
  }
  // Dual-commit onto the key's next home while its handoff is pending:
  // best-effort, verdicts ignored — the old chain stays authoritative until
  // the migrator commits, and the migrator re-copies anything these miss.
  std::vector<sim::Future<Status>> shadow;
  shadow.reserve(route.secondary.size());
  for (std::uint32_t server : route.secondary) {
    trace::Event(tctx, "dual_commit");
    shadow.push_back(append ? sched_.Append(node, server, key, value, tctx)
                            : sched_.Set(node, server, key, value, tctx));
  }
  std::uint32_t acks = 0;
  Status first_error;
  bool all_errors_retryable = true;
  for (auto& future : futures) {
    Status status = co_await future;
    if (status.ok()) {
      ++acks;
    } else {
      if (first_error.ok()) first_error = status;
      if (!IsRetryable(status.code())) all_errors_retryable = false;
    }
  }
  for (auto& future : shadow) {
    // lint: allow(ignored-status) best-effort dual-commit; migrator re-copies
    (void)co_await future;
  }
  if (gated) membership_->gate().ExitWriter(key);
  if (acks == route.primary.size()) {
    done.Set(Status::Ok());
    co_return;
  }
  // Only availability errors are forgivable; a replica that answered with a
  // real error (NO_SPACE, NOT_FOUND on append...) still fails the write.
  if (acks > 0 && config_.degraded_writes && all_errors_retryable) {
    trace::Event(tctx, "degraded_write");
    ++stats_.degraded_writes;
    if (config_.metrics != nullptr) {
      ++config_.metrics->Counter("fs.degraded_writes");
    }
    done.Set(Status::Ok());
    co_return;
  }
  done.Set(std::move(first_error));
}

sim::Future<Status> MemFs::ReplicatedSet(std::uint32_t epoch,
                                         net::NodeId node, std::string key,
                                         Bytes value,
                                         trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunReplicatedMutation(epoch, node, std::move(key), std::move(value),
                        /*append=*/false, std::move(done), trace);
  return future;
}

sim::Future<Status> MemFs::ReplicatedAppend(std::uint32_t epoch,
                                            net::NodeId node, std::string key,
                                            Bytes suffix,
                                            trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunReplicatedMutation(epoch, node, std::move(key), std::move(suffix),
                        /*append=*/true, std::move(done), trace);
  return future;
}

sim::Task MemFs::RunReplicatedAdd(std::uint32_t epoch, net::NodeId node,
                                  std::string key, Bytes value,
                                  sim::Promise<Status> done,
                                  trace::TraceContext trace) {
  const bool gated =
      membership_ != nullptr && membership_->ShouldGate(key);
  if (gated) co_await membership_->gate().EnterWriter(key);
  const kv::Membership::WriteRoute route = WriteRouteFor(epoch, key);
  // Strict mode keeps the original semantics: the record's home server alone
  // arbitrates ADD.
  const std::uint32_t tries =
      config_.degraded_writes
          ? static_cast<std::uint32_t>(route.primary.size())
          : 1;
  trace::ScopedSpan span;
  trace::TraceContext tctx = trace;
  if (tries > 1) {
    span = trace::ScopedSpan(trace, "replica.add", "replica");
    tctx = span.context();
  }
  Status last = status::Unavailable("no replicas");
  for (std::uint32_t r = 0; r < tries; ++r) {
    last = co_await sched_.Add(node, route.primary[r], key, value, tctx);
    if (last.ok()) {
      if (r > 0) {
        trace::Event(tctx, "write_failover");
        ++stats_.write_failovers;
        if (config_.metrics != nullptr) {
          ++config_.metrics->Counter("fs.write_failovers");
        }
      }
      break;
    }
    // A reachable replica's verdict (e.g. EXISTS) stands; only availability
    // errors justify moving down the chain.
    if (!IsRetryable(last.code())) break;
  }
  if (last.ok()) {
    // Shadow the accepted record onto the key's next home while a handoff is
    // pending; the old chain's verdict already stands.
    for (std::uint32_t server : route.secondary) {
      trace::Event(tctx, "dual_commit");
      // lint: allow(ignored-status) best-effort dual-commit; migrator
      // re-copies
      (void)co_await sched_.Add(node, server, key, value, tctx);
    }
  }
  if (gated) membership_->gate().ExitWriter(key);
  done.Set(std::move(last));
}

sim::Future<Status> MemFs::ReplicatedAdd(std::uint32_t epoch, net::NodeId node,
                                         std::string key, Bytes value,
                                         trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunReplicatedAdd(epoch, node, std::move(key), std::move(value),
                   std::move(done), trace);
  return future;
}

sim::Task MemFs::RunMetaAdd(net::NodeId node, std::string key, Bytes value,
                            sim::Promise<Status> done,
                            trace::TraceContext trace) {
  Status added = co_await ReplicatedAdd(0, node, key, value, trace);
  if (!added.ok()) {
    done.Set(std::move(added));
    co_return;
  }
  // The accepted record fans out to the rest of the chain so every replica
  // can answer failover reads and take APPENDs; a replica that is down stays
  // empty until read repair finds it (same window legacy mkdir accepts).
  const kv::Membership::WriteRoute route = WriteRouteFor(0, key);
  for (std::size_t r = 1; r < route.primary.size(); ++r) {
    // lint: allow(ignored-status) best-effort replica install
    (void)co_await sched_.Set(node, route.primary[r], key, value, trace);
  }
  for (std::uint32_t server : route.secondary) {
    // lint: allow(ignored-status) best-effort dual-commit
    (void)co_await sched_.Set(node, server, key, value, trace);
  }
  done.Set(Status::Ok());
}

sim::Future<Status> MemFs::MetaAdd(net::NodeId node, std::string key,
                                   Bytes value, trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunMetaAdd(node, std::move(key), std::move(value), std::move(done), trace);
  return future;
}

sim::Task MemFs::RunReplicatedDelete(std::uint32_t epoch, net::NodeId node,
                                     std::string key,
                                     sim::Promise<Status> done,
                                     trace::TraceContext trace) {
  const bool gated =
      membership_ != nullptr && membership_->ShouldGate(key);
  if (gated) co_await membership_->gate().EnterWriter(key);
  const kv::Membership::WriteRoute route = WriteRouteFor(epoch, key);
  trace::ScopedSpan span;
  trace::TraceContext tctx = trace;
  if (route.primary.size() + route.secondary.size() > 1) {
    span = trace::ScopedSpan(trace, "replica.delete", "replica");
    tctx = span.context();
  }
  std::vector<sim::Future<Status>> futures;
  futures.reserve(route.primary.size() + route.secondary.size());
  for (std::uint32_t server : route.primary) {
    futures.push_back(sched_.Delete(node, server, key, tctx));
  }
  // Also clear any dual-committed shadow copies so a committed handoff does
  // not resurrect the key.
  for (std::uint32_t server : route.secondary) {
    trace::Event(tctx, "dual_commit");
    futures.push_back(sched_.Delete(node, server, key, tctx));
  }
  Status result;
  for (auto& future : futures) {
    Status status = co_await future;
    // A replica that never held the key (or is down) does not fail the
    // delete; the primary's answer decides.
    if (&future == &futures.front()) result = std::move(status);
  }
  if (gated) membership_->gate().ExitWriter(key);
  done.Set(std::move(result));
}

sim::Future<Status> MemFs::ReplicatedDelete(std::uint32_t epoch,
                                            net::NodeId node,
                                            std::string key,
                                            trace::TraceContext trace) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  RunReplicatedDelete(epoch, node, std::move(key), std::move(done), trace);
  return future;
}

sim::Task MemFs::RunFailoverGet(std::uint32_t epoch, net::NodeId node,
                                std::string key,
                                sim::Promise<Result<Bytes>> done,
                                trace::TraceContext trace) {
  const std::uint32_t passes =
      std::max<std::uint32_t>(config_.read_chain_attempts, 1);
  trace::ScopedSpan span;
  trace::TraceContext tctx = trace;
  if (GetChain(epoch, key).size() > 1) {
    span = trace::ScopedSpan(trace, "replica.get", "replica");
    tctx = span.context();
  }
  Status unreachable;
  bool retried_absent = false;
  std::uint32_t pass = 0;
  while (true) {
    // Recompute per pass: during an elastic handoff the chain covers both the
    // old and the new home, and a commit between passes may shrink it.
    const std::vector<std::uint32_t> chain = GetChain(epoch, key);
    std::uint32_t not_found = 0;
    std::uint32_t permanent = 0;  // replicas gone for good (drained to LEFT)
    std::vector<std::uint32_t> missing;  // reachable replicas lacking the key
    for (std::size_t r = 0; r < chain.size(); ++r) {
      const std::uint32_t server = chain[r];
      Result<Bytes> got = co_await sched_.Get(node, server, key, tctx);
      if (got.ok()) {
        if (r > 0) {
          trace::Event(tctx, "failover");
          ++stats_.replica_failovers;
          if (config_.metrics != nullptr) {
            ++config_.metrics->Counter("fs.replica_failovers");
          }
          // Read repair: a replica that answered NOT_FOUND is reachable but
          // lost its copy (wipe-on-restart); reinstall it in the background.
          // Skipped while the key's handoff is pending — an un-gated repair
          // could land a stale value on the new home, which the migrator
          // would then mistake for a finished copy.
          if (membership_ == nullptr || !membership_->ShouldGate(key)) {
            for (std::uint32_t target : missing) {
              trace::Event(tctx, "read_repair");
              RunReadRepair(node, target, key, got.value());
            }
          }
        }
        done.Set(std::move(got));
        co_return;
      }
      if (got.status().code() == ErrorCode::kNotFound) {
        ++not_found;
        missing.push_back(server);
      } else if (got.status().code() == ErrorCode::kUnavailablePermanent) {
        ++permanent;
      } else {
        unreachable = got.status();
      }
    }
    if (not_found + permanent == chain.size()) {
      if (permanent > 0) {
        // Some copy was on a server that drained and LEFT; no amount of
        // retrying brings it back.
        done.Set(Result<Bytes>(status::UnavailablePermanent(
            "replica chain left the cluster: " + key)));
        co_return;
      }
      // Every replica answered and none holds the key. Mid-handoff that can
      // be a race (probed the new home before the copy, the old after the
      // cleanup); give the window one extra settled look before believing it.
      if (membership_ != nullptr && membership_->migrating() &&
          !retried_absent) {
        retried_absent = true;
        trace::Event(tctx, "handoff_race_retry");
        trace::ScopedSpan wait(tctx, "chain_backoff", "retry");
        co_await sim_.Delay(storage_.cost_model().failure_timeout);
        continue;  // does not consume a pass
      }
      done.Set(Result<Bytes>(status::NotFound(key)));
      co_return;
    }
    // Some replica was unreachable and may hold the only copy; run the chain
    // again after an escalating delay (it may be restarting, or its breaker
    // may be about to half-open).
    if (++pass >= passes) break;
    trace::Event(tctx, "pass_retry");
    trace::ScopedSpan wait(tctx, "chain_backoff", "retry");
    co_await sim_.Delay(storage_.cost_model().failure_timeout * pass);
  }
  done.Set(Result<Bytes>(
      unreachable.ok() ? status::Unavailable("all replicas unreachable: " + key)
                       : unreachable));
}

sim::Task MemFs::RunReadRepair(net::NodeId node, std::uint32_t server,
                               std::string key, Bytes value) {
  const Status status =
      co_await sched_.Set(node, server, std::move(key), std::move(value));
  if (status.ok()) {
    ++stats_.read_repairs;
    if (config_.metrics != nullptr) {
      ++config_.metrics->Counter("fs.read_repairs");
    }
  }
}

sim::Future<Result<Bytes>> MemFs::FailoverGet(std::uint32_t epoch,
                                              net::NodeId node,
                                              std::string key,
                                              trace::TraceContext trace) {
  sim::Promise<Result<Bytes>> done(sim_);
  auto future = done.GetFuture();
  RunFailoverGet(epoch, node, std::move(key), std::move(done), trace);
  return future;
}

namespace {

// Awaits the operation's future and records its latency; spawned only when a
// registry is configured, so the uninstrumented path stays allocation-free.
// A tag with a nonzero trace id also offers the sample to the histogram's
// exemplar reservoir, linking the aggregate back to the operation's span.
template <typename T>
sim::Task RecordLatency(sim::Future<T> future, sim::Simulation* sim,
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

// Exemplar tag for a vfs-level operation whose op span `ctx.trace` names:
// the trace/span identity lets the flight recorder jump from a histogram's
// worst sample to the one span subtree that explains it.
Exemplar TagOf(const VfsContext& ctx) {
  Exemplar tag;
  tag.trace_id = ctx.trace.trace_id;
  tag.span_id = ctx.trace.span_id;
  tag.node = ctx.node;
  return tag;
}

// Maps a metadata lookup failure for the caller: NOT_FOUND gets the
// user-facing path in its message, while availability errors (UNAVAILABLE,
// DEADLINE_EXCEEDED) propagate unchanged so callers can distinguish "does
// not exist" from "cannot currently tell".
Status LookupError(const Result<Bytes>& record, const std::string& path) {
  return record.status().code() == ErrorCode::kNotFound
             ? status::NotFound(path)
             : record.status();
}

}  // namespace

FileHandle MemFs::InstallHandle(std::string path, std::string ident,
                                mds::Ino ino, net::NodeId node, bool writing,
                                std::uint32_t epoch, std::uint64_t size) {
  auto file = std::make_unique<OpenFile>();
  file->path = std::move(path);
  file->ident = std::move(ident);
  file->stripe_keys.Reset(file->ident);
  file->ino = ino;
  file->node = node;
  file->writing = writing;
  file->epoch = epoch;
  if (writing) {
    const auto capacity_stripes = std::max<std::uint64_t>(
        config_.write_buffer_bytes / config_.stripe_size, 1);
    file->tokens = std::make_unique<sim::Semaphore>(sim_, capacity_stripes);
    file->inflight = std::make_unique<sim::WaitGroup>(sim_);
    ++stats_.files_created;
  } else {
    file->size = size;
    ++stats_.files_opened;
  }
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, std::move(file));
  GaugeAdd(OpenFilesGauge(node), 1);
  return handle;
}

Result<MemFs::OpenFile*> MemFs::FindHandle(FileHandle handle, bool writing) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) return status::BadHandle();
  OpenFile* file = it->second.get();
  if (file->writing != writing) {
    return status::Permission(writing ? "handle is read-only"
                                      : "handle is write-only");
  }
  return file;
}

// ---------------------------------------------------------------------------
// Create / write path

sim::Future<Result<FileHandle>> MemFs::Create(VfsContext ctx,
                                              std::string path) {
  sim::Promise<Result<FileHandle>> done(sim_);
  auto future = done.GetFuture();
  // Open the op span here (not in the coroutine) so the latency recorder
  // can tag its exemplar with the span's identity; DoCreate adopts it.
  ctx.trace = trace::Child(ctx.trace, "vfs.create", "vfs");
  DoCreate(ctx, std::move(path), std::move(done));
  if (config_.metrics != nullptr) {
    RecordLatency(future, &sim_,
                  &config_.metrics->Histogram("vfs.create"), sim_.now(),
                  TagOf(ctx));
  }
  return future;
}

sim::Task MemFs::DoCreate(VfsContext ctx, std::string path,
                          sim::Promise<Result<FileHandle>> done) {
  trace::ScopedSpan op_span = trace::ScopedSpan::Adopt(ctx.trace);
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (!path::IsNormalized(path) || path == "/") {
    done.Set(status::InvalidArgument("bad path"));
    co_return;
  }
  if (meta_client_ != nullptr) {
    auto created =
        co_await meta_client_->CreateFile(ctx.node, path, current_epoch(),
                                          tctx);
    if (!created.ok()) {
      done.Set(created.status());
      co_return;
    }
    // Stripes key on the ino, not the path: rename moves the dentry only.
    done.Set(InstallHandle(std::move(path), mds::InodeKey(created->ino),
                           created->ino, ctx.node, /*writing=*/true,
                           current_epoch(), 0));
    co_return;
  }
  // Register an unsealed file record; ADD makes concurrent double-create
  // lose deterministically (write-once implies a single writer).
  Status added = co_await ReplicatedAdd(
      0, ctx.node, path, meta::EncodeFile({0, false, current_epoch()}), tctx);
  if (!added.ok()) {
    done.Set(added.code() == ErrorCode::kExists
                 ? status::Exists(path)
                 : added);
    co_return;
  }
  // Link into the parent's directory event log (atomic APPEND, all
  // replicas).
  const std::string parent = path::Parent(path);
  Status linked = co_await ReplicatedAppend(
      0, ctx.node, parent, meta::DirEvent(path::Basename(path), false), tctx);
  if (!linked.ok()) {
    // Parent does not exist: roll the file record back. Best-effort — the
    // create already fails with NOT_FOUND and an orphaned record is inert.
    // lint: allow(ignored-status) best-effort rollback of an inert record
    co_await ReplicatedDelete(0, ctx.node, path, tctx);
    done.Set(status::NotFound("parent directory: " + parent));
    co_return;
  }
  std::string ident = path;
  done.Set(InstallHandle(std::move(path), std::move(ident), 0, ctx.node,
                         /*writing=*/true, current_epoch(), 0));
}

sim::Future<Status> MemFs::Write(VfsContext ctx, FileHandle handle,
                                 Bytes data) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  ctx.trace = trace::Child(ctx.trace, "vfs.write", "vfs");
  DoWrite(ctx, handle, std::move(data), std::move(done));
  if (config_.metrics != nullptr) {
    RecordLatency(future, &sim_,
                  &config_.metrics->Histogram("vfs.write"), sim_.now(),
                  TagOf(ctx));
  }
  return future;
}

sim::Task MemFs::DoWrite(VfsContext ctx, FileHandle handle, Bytes data,
                         sim::Promise<Status> done) {
  trace::ScopedSpan op_span = trace::ScopedSpan::Adopt(ctx.trace);
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "bytes", data.size());
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  auto found = FindHandle(handle, /*writing=*/true);
  if (!found.ok()) {
    done.Set(found.status());
    co_return;
  }
  OpenFile* file = *found;
  stats_.bytes_written += data.size();
  file->written += data.size();
  file->pending.Append(data);
  GaugeAdd(DirtyGauge(file->node), static_cast<std::int64_t>(data.size()));

  // Carve and ship every full stripe. SubmitStripe blocks on buffer
  // capacity, so a writer outrunning the network parks here — that is the
  // paper's "buffering saturates write bandwidth" behaviour with bounded
  // memory.
  while (file->pending.size() >= config_.stripe_size) {
    Bytes stripe = file->pending.Slice(0, config_.stripe_size);
    file->pending = file->pending.Slice(
        config_.stripe_size, file->pending.size() - config_.stripe_size);
    GaugeAdd(DirtyGauge(file->node),
             -static_cast<std::int64_t>(config_.stripe_size));
    sim::VoidPromise accepted(sim_);
    auto accepted_future = accepted.GetFuture();
    SubmitStripe(file, file->next_stripe++, std::move(stripe),
                 std::move(accepted), tctx);
    co_await accepted_future;
  }
  done.Set(file->first_error);
}

sim::Task MemFs::SubmitStripe(OpenFile* file, std::uint32_t index, Bytes data,
                              sim::VoidPromise accepted,
                              trace::TraceContext trace) {
  const std::string key(file->stripe_keys.Render(index));
  if (config_.io_threads == 0) {
    // No buffering (Fig. 3b baseline): the write call itself carries the
    // transfer.
    trace::ScopedSpan span(trace, "stripe.put", "striper");
    trace::Annotate(span.context(), "key", key);
    ++stats_.stripe_sets;
    Status status = co_await ReplicatedSet(file->epoch, file->node, key,
                                           std::move(data), span.context());
    if (!status.ok() && file->first_error.ok()) file->first_error = status;
    accepted.Set(sim::Done{});
    co_return;
  }
  // Backpressure permit: FlushStripe's completion path releases it once the
  // stripe lands on the servers, bounding buffered bytes per handle.
  {
    trace::ScopedSpan wait(trace, "buffer.wait", "queue");
    // lint: allow(acquire-release) released by the flush completion, not here
    co_await file->tokens->Acquire();  // buffer-capacity backpressure
  }
  file->inflight->Add();
  FlushStripe(file, key, std::move(data), trace);
  accepted.Set(sim::Done{});
}

sim::Task MemFs::FlushStripe(OpenFile* file, std::string key, Bytes data,
                             trace::TraceContext trace) {
  // The stripe span outlives its parent vfs.write span by design: buffered
  // stripes drain asynchronously and the write call returns on admission.
  trace::ScopedSpan span(trace, "stripe.put", "striper");
  trace::Annotate(span.context(), "key", key);
  auto& pool = write_pool_.at(file->node);
  {
    trace::ScopedSpan wait(span.context(), "write_pool.wait", "queue");
    co_await pool.Acquire();
  }
  ++stats_.stripe_sets;
  Status status =
      co_await ReplicatedSet(file->epoch, file->node, std::move(key),
                             std::move(data), span.context());
  pool.Release();
  if (!status.ok() && file->first_error.ok()) file->first_error = status;
  file->tokens->Release();
  file->inflight->Done();
}

sim::Future<Status> MemFs::Flush(VfsContext ctx, FileHandle handle) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  ctx.trace = trace::Child(ctx.trace, "vfs.flush", "vfs");
  DoFlush(ctx, handle, std::move(done));
  if (config_.metrics != nullptr) {
    RecordLatency(future, &sim_,
                  &config_.metrics->Histogram("vfs.flush"), sim_.now(),
                  TagOf(ctx));
  }
  return future;
}

sim::Task MemFs::DoFlush(VfsContext ctx, FileHandle handle,
                         sim::Promise<Status> done) {
  trace::ScopedSpan op_span = trace::ScopedSpan::Adopt(ctx.trace);
  const trace::TraceContext tctx = op_span.context();
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    done.Set(status::BadHandle());
    co_return;
  }
  OpenFile* file = it->second.get();
  if (!file->writing) {
    done.Set(Status::Ok());  // POSIX: fsync on a read fd is a no-op here
    co_return;
  }
  // Wait until the write buffer has been emptied (§3.2.2). The partial tail
  // stays buffered: it is not a whole stripe yet, and shipping it early
  // would break the fixed-stripe arithmetic readers rely on; only close()
  // may emit the short final stripe.
  co_await file->inflight->Wait();
  done.Set(file->first_error);
}

sim::Future<Status> MemFs::Close(VfsContext ctx, FileHandle handle) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  ctx.trace = trace::Child(ctx.trace, "vfs.close", "vfs");
  DoClose(ctx, handle, std::move(done));
  if (config_.metrics != nullptr) {
    RecordLatency(future, &sim_,
                  &config_.metrics->Histogram("vfs.close"), sim_.now(),
                  TagOf(ctx));
  }
  return future;
}

sim::Task MemFs::DoClose(VfsContext ctx, FileHandle handle,
                         sim::Promise<Status> done) {
  trace::ScopedSpan op_span = trace::ScopedSpan::Adopt(ctx.trace);
  const trace::TraceContext tctx = op_span.context();
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    done.Set(status::BadHandle());
    co_return;
  }
  OpenFile* file = it->second.get();
  Status result;
  if (file->writing) {
    if (!file->pending.empty()) {
      Bytes tail = std::move(file->pending);
      file->pending = Bytes();
      GaugeAdd(DirtyGauge(file->node),
               -static_cast<std::int64_t>(tail.size()));
      sim::VoidPromise accepted(sim_);
      auto accepted_future = accepted.GetFuture();
      SubmitStripe(file, file->next_stripe++, std::move(tail),
                     std::move(accepted), tctx);
      co_await accepted_future;
    }
    // close() returns only after the write buffer has drained (§3.2.2).
    co_await file->inflight->Wait();
    result = file->first_error;
    if (result.ok()) {
      // Seal: replace the unsealed record with the final size (§3.2.4),
      // on every replica.
      if (meta_client_ != nullptr) {
        result = co_await meta_client_->SealFile(ctx.node, file->ino,
                                                 file->written, file->epoch,
                                                 tctx);
      } else {
        result = co_await ReplicatedSet(
            0, ctx.node, file->path,
            meta::EncodeFile({file->written, true, file->epoch}), tctx);
      }
    }
  }
  handles_.erase(handle);
  GaugeAdd(OpenFilesGauge(ctx.node), -1);
  done.Set(std::move(result));
}

// ---------------------------------------------------------------------------
// Open / read path

sim::Future<Result<FileHandle>> MemFs::Open(VfsContext ctx, std::string path) {
  sim::Promise<Result<FileHandle>> done(sim_);
  auto future = done.GetFuture();
  ctx.trace = trace::Child(ctx.trace, "vfs.open", "vfs");
  DoOpen(ctx, std::move(path), std::move(done));
  if (config_.metrics != nullptr) {
    RecordLatency(future, &sim_, &config_.metrics->Histogram("vfs.open"),
                  sim_.now(), TagOf(ctx));
  }
  return future;
}

sim::Task MemFs::DoOpen(VfsContext ctx, std::string path,
                        sim::Promise<Result<FileHandle>> done) {
  trace::ScopedSpan op_span = trace::ScopedSpan::Adopt(ctx.trace);
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (meta_client_ != nullptr) {
    auto attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
    if (!attr.ok()) {
      done.Set(attr.status());
      co_return;
    }
    if (attr->rec.kind == mds::InodeKind::kDirectory) {
      done.Set(status::IsDirectory(path));
      co_return;
    }
    if (attr->rec.epoch >= epochs_.size()) {
      done.Set(status::Internal("file from unknown ring epoch: " + path));
      co_return;
    }
    if (!attr->rec.sealed) {
      done.Set(status::Permission("file still open for writing: " + path));
      co_return;
    }
    done.Set(InstallHandle(std::move(path), mds::InodeKey(attr->ino),
                           attr->ino, ctx.node, /*writing=*/false,
                           attr->rec.epoch, attr->rec.size));
    co_return;
  }
  Result<Bytes> record = co_await FailoverGet(0, ctx.node, path, tctx);
  if (!record.ok()) {
    done.Set(LookupError(record, path));
    co_return;
  }
  auto decoded = meta::Decode(record.value());
  if (!decoded.ok()) {
    done.Set(decoded.status());
    co_return;
  }
  if (decoded->kind == meta::Kind::kDirectory) {
    done.Set(status::IsDirectory(path));
    co_return;
  }
  if (decoded->file.epoch >= epochs_.size()) {
    done.Set(status::Internal("file from unknown ring epoch: " + path));
    co_return;
  }
  if (!decoded->file.sealed) {
    done.Set(status::Permission("file still open for writing: " + path));
    co_return;
  }
  std::string ident = path;
  done.Set(InstallHandle(std::move(path), std::move(ident), 0, ctx.node,
                         /*writing=*/false, decoded->file.epoch,
                         decoded->file.size));
}

sim::Future<Result<Bytes>> MemFs::Read(VfsContext ctx, FileHandle handle,
                                       std::uint64_t offset,
                                       std::uint64_t length) {
  sim::Promise<Result<Bytes>> done(sim_);
  auto future = done.GetFuture();
  ctx.trace = trace::Child(ctx.trace, "vfs.read", "vfs");
  DoRead(ctx, handle, offset, length, std::move(done));
  if (config_.metrics != nullptr) {
    RecordLatency(future, &sim_,
                  &config_.metrics->Histogram("vfs.read"), sim_.now(),
                  TagOf(ctx));
  }
  return future;
}

sim::Task MemFs::DoRead(VfsContext ctx, FileHandle handle,
                        std::uint64_t offset, std::uint64_t length,
                        sim::Promise<Result<Bytes>> done) {
  trace::ScopedSpan op_span = trace::ScopedSpan::Adopt(ctx.trace);
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "offset", offset);
  trace::Annotate(tctx, "length", length);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  auto found = FindHandle(handle, /*writing=*/false);
  if (!found.ok()) {
    done.Set(found.status());
    co_return;
  }
  OpenFile* file = *found;
  const auto spans = striper_.Spans(offset, length, file->size);

  // Start every needed stripe fetch first (parallel streams from multiple
  // servers — the striping bandwidth win), then trigger the sequential
  // prefetcher, then assemble.
  std::vector<sim::Future<Result<Bytes>>> futures;
  futures.reserve(spans.size());
  for (const auto& span : spans) {
    futures.push_back(
        EnsureStripe(file, span.stripe, /*prefetch=*/false, tctx));
  }

  if (config_.prefetch_depth > 0 && !spans.empty() &&
      offset == file->sequential_end) {
    const std::uint32_t stripe_count = striper_.StripeCount(file->size);
    const std::uint32_t last = spans.back().stripe;
    // Never prefetch beyond what the cache can hold alongside the stripe
    // being read — a lookahead window wider than the cache evicts its own
    // entries (and the one in use) before they are consumed.
    const auto cache_stripes = std::max<std::uint64_t>(
        config_.read_cache_bytes / config_.stripe_size, 1);
    const auto depth = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        config_.prefetch_depth, cache_stripes > 1 ? cache_stripes - 1 : 0));
    for (std::uint32_t ahead = 1; ahead <= depth; ++ahead) {
      const std::uint32_t idx = last + ahead;
      if (idx >= stripe_count) break;
      // Prefetched stripes park in the cache; nobody awaits them here.
      (void)EnsureStripe(file, idx, /*prefetch=*/true, tctx);
    }
  }

  Bytes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Result<Bytes> stripe = co_await futures[i];
    if (!stripe.ok()) {
      // Drop the failed fetch from the cache so a later read retries it
      // instead of replaying the pinned failure after the server recovers.
      file->cache.erase(spans[i].stripe);
      auto& order = file->cache_order;
      order.erase(std::remove(order.begin(), order.end(), spans[i].stripe),
                  order.end());
      // UNAVAILABLE_PERMANENT passes through untranslated: a drained server
      // took the only copy with it, and the caller must not retry.
      done.Set(IsRetryable(stripe.status().code()) ||
                       stripe.status().code() ==
                           ErrorCode::kUnavailablePermanent
                   ? stripe.status()
                   : status::Internal("missing stripe " +
                                      std::to_string(spans[i].stripe) +
                                      " of " + file->path));
      co_return;
    }
    out.Append(
        stripe.value().Slice(spans[i].offset_in_stripe, spans[i].length));
  }
  file->sequential_end = offset + out.size();
  stats_.bytes_read += out.size();
  done.Set(std::move(out));
}

sim::Future<Result<Bytes>> MemFs::EnsureStripe(OpenFile* file,
                                               std::uint32_t index,
                                               bool prefetch,
                                               trace::TraceContext trace) {
  auto it = file->cache.find(index);
  if (it != file->cache.end()) {
    if (!prefetch) {
      trace::Event(trace, "stripe_cache_hit");
      ++stats_.cache_hits;
    }
    return it->second;
  }
  if (!prefetch) {
    ++stats_.cache_misses;
  } else {
    trace::Event(trace, "prefetch_issued");
    ++stats_.prefetch_issued;
  }

  sim::Promise<Result<Bytes>> promise(sim_);
  auto future = promise.GetFuture();
  file->cache.emplace(index, future);
  file->cache_order.push_back(index);

  // FIFO eviction once the 8 MB per-file cache is full. Readers that already
  // hold the future keep the shared state alive; eviction only forgets the
  // cache entry.
  const auto capacity = std::max<std::uint64_t>(
      config_.read_cache_bytes / config_.stripe_size, 1);
  while (file->cache_order.size() > capacity) {
    file->cache.erase(file->cache_order.front());
    file->cache_order.pop_front();
  }

  FetchStripe(file->node, file->epoch,
              std::string(file->stripe_keys.Render(index)),
              std::move(promise), trace);
  return future;
}

sim::Task MemFs::FetchStripe(net::NodeId node, std::uint32_t epoch,
                             std::string key,
                             sim::Promise<Result<Bytes>> promise,
                             trace::TraceContext trace) {
  // A prefetched stripe's span outlives the read that issued it; it still
  // parents correctly because contexts are values, not stack state.
  trace::ScopedSpan span(trace, "stripe.get", "striper");
  trace::Annotate(span.context(), "key", key);
  auto& pool = read_pool_.at(node);
  {
    trace::ScopedSpan wait(span.context(), "read_pool.wait", "queue");
    co_await pool.Acquire();
  }
  ++stats_.stripe_gets;
  Result<Bytes> result =
      co_await FailoverGet(epoch, node, std::move(key), span.context());
  pool.Release();
  promise.Set(std::move(result));
}

// ---------------------------------------------------------------------------
// Namespace operations

sim::Future<Status> MemFs::Mkdir(VfsContext ctx, std::string path) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoMkdir(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task MemFs::DoMkdir(VfsContext ctx, std::string path,
                         sim::Promise<Status> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.mkdir", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (!path::IsNormalized(path) || path == "/") {
    done.Set(status::InvalidArgument("bad path"));
    co_return;
  }
  if (meta_client_ != nullptr) {
    done.Set(co_await meta_client_->Mkdir(ctx.node, std::move(path), tctx));
    co_return;
  }
  Status added =
      co_await ReplicatedAdd(0, ctx.node, path, meta::DirHeader(), tctx);
  if (!added.ok()) {
    done.Set(added);
    co_return;
  }
  // Secondary replicas of the directory record (appends go to all; a replica
  // that is down stays empty until read repair finds it). The header is a
  // constant, so installing it on a mid-handoff shadow home is harmless.
  const kv::Membership::WriteRoute mkdir_route = WriteRouteFor(0, path);
  for (std::size_t r = 1; r < mkdir_route.primary.size(); ++r) {
    co_await sched_.Set(ctx.node, mkdir_route.primary[r], path,
                        meta::DirHeader(), tctx);
  }
  for (std::uint32_t server : mkdir_route.secondary) {
    co_await sched_.Set(ctx.node, server, path, meta::DirHeader(), tctx);
  }
  const std::string parent = path::Parent(path);
  Status linked = co_await ReplicatedAppend(
      0, ctx.node, parent, meta::DirEvent(path::Basename(path), false), tctx);
  if (!linked.ok()) {
    // lint: allow(ignored-status) best-effort rollback of an inert record
    co_await ReplicatedDelete(0, ctx.node, path, tctx);
    done.Set(status::NotFound("parent directory: " + parent));
    co_return;
  }
  done.Set(Status::Ok());
}

sim::Future<Result<std::vector<FileInfo>>> MemFs::ReadDir(VfsContext ctx,
                                                          std::string path) {
  sim::Promise<Result<std::vector<FileInfo>>> done(sim_);
  auto future = done.GetFuture();
  DoReadDir(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task MemFs::DoReadDir(VfsContext ctx, std::string path,
                           sim::Promise<Result<std::vector<FileInfo>>> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.readdir", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (meta_client_ != nullptr) {
    auto attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
    if (!attr.ok()) {
      done.Set(attr.status());
      co_return;
    }
    if (attr->rec.kind != mds::InodeKind::kDirectory) {
      done.Set(status::NotDirectory(path));
      co_return;
    }
    // Page through the token ranges; each iteration reads bounded blobs, so
    // no single RPC carries the whole directory even here.
    std::vector<FileInfo> infos;
    std::uint32_t shard = 0;
    std::uint64_t offset = 0;
    while (true) {
      auto page = co_await meta_client_->ReadDirPage(
          ctx.node, attr->ino, shard, offset, config_.meta.readdir_page,
          tctx);
      if (!page.ok()) {
        done.Set(page.status());
        co_return;
      }
      for (auto& name : page->names) {
        FileInfo info;
        info.name = std::move(name);
        infos.push_back(std::move(info));
      }
      if (!page->more) break;
      shard = page->next_shard;
      offset = page->next_offset;
    }
    // Pages arrive in (shard, name) order; the full listing is presented
    // globally sorted, matching the append-log arm byte for byte.
    std::sort(infos.begin(), infos.end(),
              [](const FileInfo& a, const FileInfo& b) {
                return a.name < b.name;
              });
    done.Set(std::move(infos));
    co_return;
  }
  Result<Bytes> record = co_await FailoverGet(0, ctx.node, path, tctx);
  if (!record.ok()) {
    done.Set(LookupError(record, path));
    co_return;
  }
  auto decoded = meta::Decode(record.value());
  if (!decoded.ok()) {
    done.Set(decoded.status());
    co_return;
  }
  if (decoded->kind != meta::Kind::kDirectory) {
    done.Set(status::NotDirectory(path));
    co_return;
  }
  std::vector<FileInfo> infos;
  infos.reserve(decoded->entries.size());
  for (auto& name : decoded->entries) {
    FileInfo info;
    info.name = std::move(name);
    infos.push_back(std::move(info));
  }
  done.Set(std::move(infos));
}

sim::Future<Result<FileInfo>> MemFs::Stat(VfsContext ctx, std::string path) {
  sim::Promise<Result<FileInfo>> done(sim_);
  auto future = done.GetFuture();
  DoStat(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task MemFs::DoStat(VfsContext ctx, std::string path,
                        sim::Promise<Result<FileInfo>> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.stat", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (meta_client_ != nullptr) {
    auto attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
    if (!attr.ok()) {
      done.Set(attr.status());
      co_return;
    }
    FileInfo stat_info;
    stat_info.name = path::Basename(path);
    if (attr->rec.kind == mds::InodeKind::kDirectory) {
      stat_info.is_directory = true;
    } else {
      stat_info.size = attr->rec.size;
      stat_info.sealed = attr->rec.sealed;
    }
    done.Set(std::move(stat_info));
    co_return;
  }
  Result<Bytes> record = co_await FailoverGet(0, ctx.node, path, tctx);
  if (!record.ok()) {
    done.Set(LookupError(record, path));
    co_return;
  }
  auto decoded = meta::Decode(record.value());
  if (!decoded.ok()) {
    done.Set(decoded.status());
    co_return;
  }
  FileInfo info;
  info.name = path::Basename(path);
  if (decoded->kind == meta::Kind::kDirectory) {
    info.is_directory = true;
  } else {
    info.size = decoded->file.size;
    info.sealed = decoded->file.sealed;
  }
  done.Set(std::move(info));
}

sim::Future<Status> MemFs::Rmdir(VfsContext ctx, std::string path) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoRmdir(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task MemFs::DoRmdir(VfsContext ctx, std::string path,
                         sim::Promise<Status> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.rmdir", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (!path::IsNormalized(path) || path == "/") {
    done.Set(status::InvalidArgument("bad path"));
    co_return;
  }
  if (meta_client_ != nullptr) {
    done.Set(co_await meta_client_->Rmdir(ctx.node, std::move(path), tctx));
    co_return;
  }
  Result<Bytes> record = co_await FailoverGet(0, ctx.node, path, tctx);
  if (!record.ok()) {
    done.Set(LookupError(record, path));
    co_return;
  }
  auto decoded = meta::Decode(record.value());
  if (!decoded.ok()) {
    done.Set(decoded.status());
    co_return;
  }
  if (decoded->kind != meta::Kind::kDirectory) {
    done.Set(status::NotDirectory(path));
    co_return;
  }
  if (!decoded->entries.empty()) {
    done.Set(status::NotEmpty(path));
    co_return;
  }
  // Tombstone in the parent, then drop the directory record. A failed
  // tombstone aborts the removal while the directory is still fully intact;
  // silently continuing would leave a phantom entry in the parent's log.
  const std::string parent = path::Parent(path);
  Status tombstoned = co_await ReplicatedAppend(
      0, ctx.node, parent, meta::DirEvent(path::Basename(path), true), tctx);
  if (!tombstoned.ok()) {
    done.Set(std::move(tombstoned));
    co_return;
  }
  Status dropped = co_await ReplicatedDelete(0, ctx.node, path, tctx);
  done.Set(std::move(dropped));
}

sim::Future<Status> MemFs::Unlink(VfsContext ctx, std::string path) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoUnlink(ctx, std::move(path), std::move(done));
  return future;
}

sim::Task MemFs::DoUnlink(VfsContext ctx, std::string path,
                          sim::Promise<Status> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.unlink", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (meta_client_ != nullptr) {
    auto outcome = co_await meta_client_->Unlink(ctx.node, path, tctx);
    if (!outcome.ok()) {
      done.Set(outcome.status());
      co_return;
    }
    if (outcome->removed_inode) {
      // Last link gone: reclaim the stripes, keyed by the ino under the
      // epoch recorded in the inode (never moved by any rename).
      const std::uint32_t stripe_epoch =
          outcome->rec.epoch < epochs_.size() ? outcome->rec.epoch : 0;
      sim::VoidPromise reclaimed(sim_);
      auto reclaimed_future = reclaimed.GetFuture();
      ReclaimStripes(ctx.node, mds::InodeKey(outcome->ino), stripe_epoch,
                     outcome->rec.size, std::move(reclaimed), tctx);
      co_await reclaimed_future;
    }
    done.Set(Status::Ok());
    co_return;
  }
  Result<Bytes> record = co_await FailoverGet(0, ctx.node, path, tctx);
  if (!record.ok()) {
    done.Set(LookupError(record, path));
    co_return;
  }
  auto decoded = meta::Decode(record.value());
  if (!decoded.ok()) {
    done.Set(decoded.status());
    co_return;
  }
  if (decoded->kind == meta::Kind::kDirectory) {
    done.Set(status::IsDirectory(path));
    co_return;
  }

  // Tombstone in the parent log (the paper's protocol), then reclaim the
  // record and the stripes (every replica of each, under the file's ring
  // epoch). Both steps abort on failure: a failed tombstone leaves the file
  // untouched, and a failed record delete must not reclaim stripes under a
  // record that is still openable.
  const std::string parent = path::Parent(path);
  Status tombstoned = co_await ReplicatedAppend(
      0, ctx.node, parent, meta::DirEvent(path::Basename(path), true), tctx);
  if (!tombstoned.ok()) {
    done.Set(std::move(tombstoned));
    co_return;
  }
  Status dropped = co_await ReplicatedDelete(0, ctx.node, path, tctx);
  if (!dropped.ok()) {
    done.Set(std::move(dropped));
    co_return;
  }

  const std::uint32_t stripe_epoch =
      decoded->file.epoch < epochs_.size() ? decoded->file.epoch : 0;
  const std::uint32_t stripes = striper_.StripeCount(decoded->file.size);
  sim::WaitGroup wg(sim_);
  StripeKeyBuf keys(path);
  for (std::uint32_t i = 0; i < stripes; ++i) {
    wg.Add();
    auto deletion = ReplicatedDelete(stripe_epoch, ctx.node,
                                     std::string(keys.Render(i)), tctx);
    [](sim::Future<Status> f, sim::WaitGroup& group) -> sim::Task {
      co_await f;
      group.Done();
    }(std::move(deletion), wg);
  }
  co_await wg.Wait();
  done.Set(Status::Ok());
}

sim::Task MemFs::ReclaimStripes(net::NodeId node, std::string ident,
                                std::uint32_t epoch, std::uint64_t size,
                                sim::VoidPromise reclaimed,
                                trace::TraceContext trace) {
  const std::uint32_t stripes = striper_.StripeCount(size);
  sim::WaitGroup wg(sim_);
  StripeKeyBuf keys(ident);
  for (std::uint32_t i = 0; i < stripes; ++i) {
    wg.Add();
    auto deletion = ReplicatedDelete(epoch, node,
                                     std::string(keys.Render(i)), trace);
    [](sim::Future<Status> f, sim::WaitGroup& group) -> sim::Task {
      co_await f;
      group.Done();
    }(std::move(deletion), wg);
  }
  co_await wg.Wait();
  reclaimed.Set(sim::Done{});
}

// ---------------------------------------------------------------------------
// Paged enumeration, rename, hard links

sim::Future<Result<DirPage>> MemFs::ReadDirPage(VfsContext ctx,
                                                std::string path,
                                                DirCursor cursor,
                                                std::uint32_t limit) {
  sim::Promise<Result<DirPage>> done(sim_);
  auto future = done.GetFuture();
  DoReadDirPage(ctx, std::move(path), cursor, limit, std::move(done));
  return future;
}

sim::Task MemFs::DoReadDirPage(VfsContext ctx, std::string path,
                               DirCursor cursor, std::uint32_t limit,
                               sim::Promise<Result<DirPage>> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.readdir_page", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "path", path);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  const std::uint32_t page_limit =
      limit > 0 ? limit : config_.meta.readdir_page;
  if (meta_client_ != nullptr) {
    auto attr = co_await meta_client_->Resolve(ctx.node, path, tctx);
    if (!attr.ok()) {
      done.Set(attr.status());
      co_return;
    }
    if (attr->rec.kind != mds::InodeKind::kDirectory) {
      done.Set(status::NotDirectory(path));
      co_return;
    }
    auto result = co_await meta_client_->ReadDirPage(
        ctx.node, attr->ino, cursor.shard, cursor.offset, page_limit, tctx);
    if (!result.ok()) {
      done.Set(result.status());
      co_return;
    }
    DirPage page;
    page.entries.reserve(result->names.size());
    for (auto& name : result->names) {
      FileInfo info;
      info.name = std::move(name);
      page.entries.push_back(std::move(info));
    }
    page.next.shard = result->next_shard;
    page.next.offset = result->next_offset;
    page.more = result->more;
    done.Set(std::move(page));
    co_return;
  }
  // Legacy protocol: one directory = one record, so the page is a sorted
  // slice of the folded log (shard is always 0). The whole log still crosses
  // the wire — the limitation this PR's sharded mode removes.
  if (cursor.shard > 0) {
    done.Set(status::InvalidArgument("append_log cursors have one shard"));
    co_return;
  }
  Result<Bytes> record = co_await FailoverGet(0, ctx.node, path, tctx);
  if (!record.ok()) {
    done.Set(LookupError(record, path));
    co_return;
  }
  auto decoded = meta::Decode(record.value());
  if (!decoded.ok()) {
    done.Set(decoded.status());
    co_return;
  }
  if (decoded->kind != meta::Kind::kDirectory) {
    done.Set(status::NotDirectory(path));
    co_return;
  }
  std::sort(decoded->entries.begin(), decoded->entries.end());
  DirPage page;
  std::uint64_t offset = cursor.offset;
  while (offset < decoded->entries.size() &&
         page.entries.size() < page_limit) {
    FileInfo info;
    info.name = std::move(decoded->entries[offset]);
    page.entries.push_back(std::move(info));
    ++offset;
  }
  page.next.shard = offset < decoded->entries.size() ? 0 : 1;
  page.next.offset = offset < decoded->entries.size() ? offset : 0;
  page.more = offset < decoded->entries.size();
  done.Set(std::move(page));
}

sim::Future<Status> MemFs::Rename(VfsContext ctx, std::string from,
                                  std::string to) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoRename(ctx, std::move(from), std::move(to), std::move(done));
  return future;
}

sim::Task MemFs::DoRename(VfsContext ctx, std::string from, std::string to,
                          sim::Promise<Status> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.rename", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "from", from);
  trace::Annotate(tctx, "to", to);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (!path::IsNormalized(from) || !path::IsNormalized(to) || from == "/" ||
      to == "/" || from == to) {
    done.Set(status::InvalidArgument("bad rename paths"));
    co_return;
  }
  if (to.size() > from.size() && to.compare(0, from.size(), from) == 0 &&
      to[from.size()] == '/') {
    done.Set(status::InvalidArgument("cannot move a directory under itself"));
    co_return;
  }
  if (meta_client_ == nullptr) {
    done.Set(status::Permission("rename requires sharded metadata"));
    co_return;
  }
  done.Set(co_await meta_client_->Rename(ctx.node, std::move(from),
                                         std::move(to), tctx));
}

sim::Future<Status> MemFs::Link(VfsContext ctx, std::string existing,
                                std::string link) {
  sim::Promise<Status> done(sim_);
  auto future = done.GetFuture();
  DoLink(ctx, std::move(existing), std::move(link), std::move(done));
  return future;
}

sim::Task MemFs::DoLink(VfsContext ctx, std::string existing,
                        std::string link, sim::Promise<Status> done) {
  trace::ScopedSpan op_span(ctx.trace, "vfs.link", "vfs");
  const trace::TraceContext tctx = op_span.context();
  trace::Annotate(tctx, "existing", existing);
  trace::Annotate(tctx, "link", link);
  {
    trace::ScopedSpan gate(tctx, "fuse.enter", "queue");
    co_await fuse_.Enter(ctx.node, ctx.process);
  }
  if (!path::IsNormalized(existing) || !path::IsNormalized(link) ||
      existing == "/" || link == "/" || existing == link) {
    done.Set(status::InvalidArgument("bad link paths"));
    co_return;
  }
  if (meta_client_ == nullptr) {
    done.Set(status::Permission("hard links require sharded metadata"));
    co_return;
  }
  done.Set(co_await meta_client_->Link(ctx.node, std::move(existing),
                                       std::move(link), tctx));
}

}  // namespace memfs::fs
