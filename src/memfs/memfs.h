// MemFS: the paper's primary contribution (§3).
//
// A fully symmetrical, in-memory runtime file system. Files are cut into
// fixed-size stripes; each stripe is a key-value object whose storage server
// is chosen by a distributed hash function over "<path>#<stripe>". No server
// is special, no data is placed for locality: every node reads and writes
// against all servers at once, turning the full bisection bandwidth of the
// fabric into file-system bandwidth and keeping per-server memory balanced.
//
// The client implements the paper's optimizations:
//  * write buffering — appends accumulate in a per-file buffer; full stripes
//    are shipped asynchronously by a bounded "thread pool" of flushers;
//    close()/flush() drains the buffer before returning (§3.2.2);
//  * sequential prefetching — on a sequential read pattern the next stripes
//    are fetched ahead into a per-file cache (§3.2.2);
//  * write-once semantics — files are written sequentially, once, then
//    sealed; reads are POSIX-style at any offset (§3.2.3);
//  * key-value metadata — file records and directory event logs with atomic
//    append (§3.2.4), giving O(1) lookups distributed over all servers.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "hash/distributor.h"
#include "io/op_scheduler.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "memfs/fuse.h"
#include "memfs/metadata.h"
#include "meta/client.h"
#include "meta/meta.h"
#include "memfs/striper.h"
#include "memfs/vfs.h"
#include "sim/future.h"
#include "sim/pool.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace memfs::fs {

// The sharded metadata service (distinct from fs::meta, the paper's
// path-keyed record codec).
namespace mds = ::memfs::meta;

struct MemFsConfig {
  // 512 KB stripes achieve the best write bandwidth (Fig. 3a).
  std::uint64_t stripe_size = units::KiB(512);
  // Per-open-file caches of 8 MB for buffering and prefetching (§3.2.2).
  std::uint64_t write_buffer_bytes = units::MiB(8);
  std::uint64_t read_cache_bytes = units::MiB(8);
  // Width of the per-node buffering (write) pool (Fig. 3b).
  // io_threads == 0 disables asynchronous flushing (writes ship inline).
  std::uint32_t io_threads = 8;
  // Width of the per-node prefetching (read) pool.
  std::uint32_t read_threads = 8;
  // Stripes fetched ahead on a sequential pattern; 0 disables prefetching.
  std::uint32_t prefetch_depth = 8;
  // Key-to-server mapping (§3.1.2): modulo by default, ketama optional.
  hash::HashKind hash_kind = hash::HashKind::kFnv1a64;
  bool use_ketama = false;
  // Fault-tolerance extension (§3.2.5, the paper's future work): each stripe
  // and metadata record is stored on `replication` consecutive servers of
  // the hash ring. Writes go to all replicas (n x network traffic, 1/n
  // usable capacity — exactly the cost the paper predicts); reads fail over
  // to the next replica when a server is down. 1 = off (the paper's
  // evaluated configuration).
  std::uint32_t replication = 1;
  // Graceful degradation (robustness extension). When true and
  // replication > 1, a mutation succeeds as long as at least one replica
  // acknowledges it (skipped replicas are reinstalled later by read repair),
  // and CREATE/MKDIR fail over to the next replica when the record's home
  // server is unreachable. When false, every replica must acknowledge —
  // strict mode, the behaviour the paper's cost argument assumes.
  bool degraded_writes = true;
  // Full passes over the replica chain before a read gives up. A pass that
  // proves the key absent (every replica reachable, none has it) returns
  // NOT_FOUND immediately; only reads blocked by unreachable replicas are
  // retried, with an escalating delay between passes.
  std::uint32_t read_chain_attempts = 3;
  // Namespace organization. `append_log` is the paper's protocol — path-keyed
  // records, one directory = one append-log on one server — and reproduces
  // the pre-sharding event digest byte-identically. `sharded` routes every
  // namespace operation through the src/meta token-range service
  // (dentry/inode separation, paged readdir, rename and hard links).
  mds::MetadataMode metadata = mds::MetadataMode::kAppendLog;
  // Sharded-mode knobs (token ranges per directory, default page size);
  // ignored under append_log.
  mds::MetaConfig meta;
  // Op-scheduler knobs (src/io): per-(client, server) batching of stripe and
  // metadata RPCs. Every storage op rides a batch; `io.max_batch_ops = 1`
  // sends one RPC per op (with a `window` wide enough not to add lane
  // backpressure, that is the one-RPC-per-stripe data path).
  io::IoConfig io;
  FuseConfig fuse;
  // Optional per-operation latency instrumentation (owned by the caller;
  // must outlive the file system). Records vfs.create/open/read/write/
  // flush/close histograms.
  MetricsRegistry* metrics = nullptr;
};

struct MemFsStats {
  std::uint64_t files_created = 0;
  std::uint64_t files_opened = 0;
  std::uint64_t bytes_written = 0;   // application writes
  std::uint64_t bytes_read = 0;      // application reads
  std::uint64_t stripe_sets = 0;
  std::uint64_t stripe_gets = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Reads answered by a non-primary replica after a failure (replication>1).
  std::uint64_t replica_failovers = 0;
  // Mutations acknowledged by only a subset of replicas (degraded mode).
  std::uint64_t degraded_writes = 0;
  // CREATE/MKDIR records placed on a secondary because the primary was
  // unreachable (degraded mode).
  std::uint64_t write_failovers = 0;
  // Copies reinstalled on a reachable replica that had lost them (e.g. a
  // wipe-on-restart) after a failover read found the data elsewhere.
  std::uint64_t read_repairs = 0;
};

class MemFs final : public Vfs {
 public:
  // `storage` is the Memcached-like deployment the FS runs against; clients
  // on every node address all of its servers (the paper's requirement that
  // each FUSE client knows the full server list). `network` provides the
  // node count for the per-node pools and traffic accounting.
  MemFs(sim::Simulation& sim, net::Network& network, kv::KvCluster& storage,
        MemFsConfig config);

  sim::Future<Result<FileHandle>> Create(VfsContext ctx,
                                         std::string path) override;
  sim::Future<Result<FileHandle>> Open(VfsContext ctx,
                                       std::string path) override;
  sim::Future<Status> Write(VfsContext ctx, FileHandle handle,
                            Bytes data) override;
  sim::Future<Result<Bytes>> Read(VfsContext ctx, FileHandle handle,
                                  std::uint64_t offset,
                                  std::uint64_t length) override;
  sim::Future<Status> Flush(VfsContext ctx, FileHandle handle) override;
  sim::Future<Status> Close(VfsContext ctx, FileHandle handle) override;
  sim::Future<Status> Mkdir(VfsContext ctx, std::string path) override;
  sim::Future<Result<std::vector<FileInfo>>> ReadDir(VfsContext ctx,
                                                     std::string path) override;
  sim::Future<Result<FileInfo>> Stat(VfsContext ctx,
                                     std::string path) override;
  sim::Future<Status> Unlink(VfsContext ctx, std::string path) override;
  sim::Future<Status> Rmdir(VfsContext ctx, std::string path) override;
  sim::Future<Result<DirPage>> ReadDirPage(VfsContext ctx, std::string path,
                                           DirCursor cursor,
                                           std::uint32_t limit) override;
  // Rename and hard links exist only in sharded metadata mode (a dentry is
  // moved or added; the ino-keyed inode and stripes never migrate). Under
  // append_log both fail with PERMISSION — the paper's path-keyed records
  // cannot support them without rewriting data.
  sim::Future<Status> Rename(VfsContext ctx, std::string from,
                             std::string to) override;
  sim::Future<Status> Link(VfsContext ctx, std::string existing,
                           std::string link) override;

  const MemFsConfig& config() const { return config_; }
  const MemFsStats& stats() const { return stats_; }
  const Striper& striper() const { return striper_; }
  // The batching submission layer every storage op goes through.
  const io::OpScheduler& scheduler() const { return sched_; }
  // Distributor of the current (newest) ring epoch.
  const hash::Distributor& distributor() const { return *epochs_.back(); }
  FuseLayer& fuse() { return fuse_; }

  // Elastic scale-out (the paper's future work, §5): registers server
  // `kv_node` with the storage layer and opens a new ring epoch over the
  // enlarged server set. Files written from now on stripe across all
  // servers; existing files keep the epoch recorded in their metadata, so
  // no data migrates and old reads are unaffected. Returns the new epoch.
  std::uint32_t AddStorageServer(net::NodeId kv_node);
  std::uint32_t current_epoch() const {
    return static_cast<std::uint32_t>(epochs_.size() - 1);
  }

  // Elastic membership (the alternative to epoch pinning): routes every
  // placement decision through `membership`'s live ketama ring instead of
  // the frozen per-epoch distributors. While a join/drain transition is
  // open, writes to moving keys are serialized against the migrator's
  // handoff (dual-committed to old and new homes) and reads double-read
  // both rings, so rebalancing is invisible to the application. Requires
  // use_ketama, a matching replication factor, and must be attached before
  // any traffic; do not combine with AddStorageServer. Pass nullptr to
  // detach. The membership must outlive the file system.
  void AttachMembership(kv::Membership* membership);
  kv::Membership* membership() const { return membership_; }

  // The sharded metadata service client; nullptr under append_log.
  mds::Client* meta_client() const { return meta_client_.get(); }

  // Deployment-time bulk namespace seeding (sharded mode only, before any
  // simulated traffic — the mdtest-scale bench setup). Creates directory
  // `dir` (a direct child of the root) holding `count` sealed zero-length
  // files "<prefix><i>", written straight into the servers like the root
  // bootstrap.
  void BulkLoadDirectory(const std::string& dir, const std::string& prefix,
                         std::uint64_t count);

 private:
  struct OpenFile {
    std::string path;
    // Stripe-key identity: the path under append_log, "i/<ino>" under
    // sharded metadata (so rename never moves data).
    std::string ident;
    // Preformatted "<ident>#" stripe-key buffer: the prefix is cached for
    // the life of the handle, only the stripe-number suffix is patched per
    // submit/fetch.
    StripeKeyBuf stripe_keys;
    mds::Ino ino = 0;  // sharded mode only
    net::NodeId node = 0;
    bool writing = false;
    std::uint32_t epoch = 0;  // ring epoch governing stripe placement

    // Write state.
    Bytes pending;                 // unshipped buffer tail
    std::uint32_t next_stripe = 0;
    std::uint64_t written = 0;
    Status first_error;
    std::unique_ptr<sim::Semaphore> tokens;   // buffer capacity, in stripes
    std::unique_ptr<sim::WaitGroup> inflight;

    // Read state.
    std::uint64_t size = 0;
    std::unordered_map<std::uint32_t, sim::Future<Result<Bytes>>> cache;
    std::deque<std::uint32_t> cache_order;
    std::uint64_t sequential_end = 0;  // end offset of the last read
  };

  // Metadata placement: always epoch 0, over the mount-time server set, so
  // records stay findable across scale-outs.
  std::uint32_t ServerFor(std::string_view key) const {
    return epochs_.front()->ServerFor(key);
  }

  // Number of copies actually kept (capped at the epoch's server count) and
  // the server holding copy `replica` of `key` under `epoch` (consecutive
  // on that epoch's ring).
  std::uint32_t ReplicaCount(std::uint32_t epoch) const;
  std::uint32_t ReplicaServer(std::uint32_t epoch, std::string_view key,
                              std::uint32_t replica) const;

  // The consecutive replica chain of `key` on the frozen epoch ring (the
  // pre-elastic placement rule, kept byte-identical).
  std::vector<std::uint32_t> LegacyChain(std::uint32_t epoch,
                                         std::string_view key) const;
  // Servers to consult for a read, in order. With a membership attached the
  // live ring decides (double-reading through an open transition);
  // otherwise the epoch chain.
  std::vector<std::uint32_t> GetChain(std::uint32_t epoch,
                                      std::string_view key) const;
  // Write routing: membership's primary/secondary split during a
  // transition, or the plain epoch chain as primary. When the key is gated
  // (ShouldGate), call this only while holding the handoff gate — the route
  // may flip to the new ring the moment a handoff commits.
  kv::Membership::WriteRoute WriteRouteFor(std::uint32_t epoch,
                                           std::string_view key) const;

  // Replication-aware storage primitives. With replication == 1 these are
  // plain single-server operations. `epoch` selects the placement ring
  // (metadata uses 0, stripes their file's epoch).
  [[nodiscard]] sim::Future<Status> ReplicatedSet(std::uint32_t epoch, net::NodeId node,
                                    std::string key, Bytes value,
                                    trace::TraceContext trace);
  // ADD with failover: tries replicas in ring order until one is reachable;
  // that replica's verdict (OK or EXISTS) decides. Degraded mode only — in
  // strict mode the primary alone is tried.
  [[nodiscard]] sim::Future<Status> ReplicatedAdd(std::uint32_t epoch, net::NodeId node,
                                    std::string key, Bytes value,
                                    trace::TraceContext trace);
  [[nodiscard]] sim::Future<Status> ReplicatedAppend(std::uint32_t epoch, net::NodeId node,
                                       std::string key, Bytes suffix,
                                       trace::TraceContext trace);
  [[nodiscard]] sim::Future<Status> ReplicatedDelete(std::uint32_t epoch, net::NodeId node,
                                       std::string key,
                                       trace::TraceContext trace);
  // ADD with full fan-out: the home replica arbitrates, then the accepted
  // value is installed on the rest of the chain with SETs — the legacy mkdir
  // discipline, applied to every metadata record the sharded service ADDs
  // (dentries, lazily created index blobs).
  [[nodiscard]] sim::Future<Status> MetaAdd(net::NodeId node, std::string key,
                                            Bytes value,
                                            trace::TraceContext trace);
  // Tries replicas in ring order until one answers; NOT_FOUND only if every
  // reachable replica lacks the key.
  [[nodiscard]] sim::Future<Result<Bytes>> FailoverGet(std::uint32_t epoch,
                                         net::NodeId node, std::string key,
                                         trace::TraceContext trace);

  sim::Task RunReplicatedMutation(std::uint32_t epoch, net::NodeId node,
                                  std::string key, Bytes value, bool append,
                                  sim::Promise<Status> done,
                                  trace::TraceContext trace);
  sim::Task RunReplicatedAdd(std::uint32_t epoch, net::NodeId node,
                             std::string key, Bytes value,
                             sim::Promise<Status> done,
                             trace::TraceContext trace);
  sim::Task RunReplicatedDelete(std::uint32_t epoch, net::NodeId node,
                                std::string key, sim::Promise<Status> done,
                                trace::TraceContext trace);
  sim::Task RunMetaAdd(net::NodeId node, std::string key, Bytes value,
                       sim::Promise<Status> done, trace::TraceContext trace);
  sim::Task RunFailoverGet(std::uint32_t epoch, net::NodeId node,
                           std::string key,
                           sim::Promise<Result<Bytes>> done,
                           trace::TraceContext trace);
  // Fire-and-forget reinstall of a copy that a failover read found missing.
  sim::Task RunReadRepair(net::NodeId node, std::uint32_t server,
                          std::string key, Bytes value);

  [[nodiscard]] Result<OpenFile*> FindHandle(FileHandle handle, bool writing);

  // Adapts the replicated/batched storage path (metadata ring epoch 0) to
  // the five single-key primitives the sharded metadata client speaks.
  class MetaStore final : public mds::Store {
   public:
    explicit MetaStore(MemFs& fs) : fs_(fs) {}
    sim::Future<Status> Set(net::NodeId node, std::string key, Bytes value,
                            trace::TraceContext trace) override {
      return fs_.ReplicatedSet(0, node, std::move(key), std::move(value),
                               trace);
    }
    sim::Future<Status> Add(net::NodeId node, std::string key, Bytes value,
                            trace::TraceContext trace) override {
      return fs_.MetaAdd(node, std::move(key), std::move(value), trace);
    }
    sim::Future<Status> Append(net::NodeId node, std::string key, Bytes suffix,
                               trace::TraceContext trace) override {
      return fs_.ReplicatedAppend(0, node, std::move(key), std::move(suffix),
                                  trace);
    }
    sim::Future<Status> Delete(net::NodeId node, std::string key,
                               trace::TraceContext trace) override {
      return fs_.ReplicatedDelete(0, node, std::move(key), trace);
    }
    sim::Future<Result<Bytes>> Get(net::NodeId node, std::string key,
                                   trace::TraceContext trace) override {
      return fs_.FailoverGet(0, node, std::move(key), trace);
    }

   private:
    MemFs& fs_;
  };

  // Installs an open-file entry (pure bookkeeping, no events). `ident` keys
  // the stripes; `size` applies to read handles.
  FileHandle InstallHandle(std::string path, std::string ident, mds::Ino ino,
                           net::NodeId node, bool writing, std::uint32_t epoch,
                           std::uint64_t size);

  // Deployment-time direct write of `value` to every replica of `key` on the
  // metadata ring (no simulated traffic; asserts success).
  void SeedKey(const std::string& key, const Bytes& value);
  // Same, but appends to an existing blob (creating it with `header` first).
  void SeedAppendKey(const std::string& key, const Bytes& header,
                     const Bytes& event);

  // Ships one stripe asynchronously (or inline when io_threads == 0),
  // respecting buffer capacity and pool width. Awaited by the writer, so
  // backpressure blocks the application exactly when the 8 MB buffer is full.
  sim::Task SubmitStripe(OpenFile* file, std::uint32_t index, Bytes data,
                         sim::VoidPromise accepted, trace::TraceContext trace);
  sim::Task FlushStripe(OpenFile* file, std::string key, Bytes data,
                        trace::TraceContext trace);

  // Returns the cached or newly fetched stripe future; starts a fetch task
  // when absent.
  [[nodiscard]] sim::Future<Result<Bytes>> EnsureStripe(OpenFile* file, std::uint32_t index,
                                          bool prefetch,
                                          trace::TraceContext trace);
  sim::Task FetchStripe(net::NodeId node, std::uint32_t epoch,
                        std::string key,
                        sim::Promise<Result<Bytes>> promise,
                        trace::TraceContext trace);

  // Operation bodies (coroutines writing into promises).
  sim::Task DoCreate(VfsContext ctx, std::string path,
                     sim::Promise<Result<FileHandle>> done);
  sim::Task DoOpen(VfsContext ctx, std::string path,
                   sim::Promise<Result<FileHandle>> done);
  sim::Task DoWrite(VfsContext ctx, FileHandle handle, Bytes data,
                    sim::Promise<Status> done);
  sim::Task DoRead(VfsContext ctx, FileHandle handle, std::uint64_t offset,
                   std::uint64_t length, sim::Promise<Result<Bytes>> done);
  sim::Task DoFlush(VfsContext ctx, FileHandle handle,
                    sim::Promise<Status> done);
  sim::Task DoClose(VfsContext ctx, FileHandle handle,
                    sim::Promise<Status> done);
  sim::Task DoMkdir(VfsContext ctx, std::string path,
                    sim::Promise<Status> done);
  sim::Task DoReadDir(VfsContext ctx, std::string path,
                      sim::Promise<Result<std::vector<FileInfo>>> done);
  sim::Task DoStat(VfsContext ctx, std::string path,
                   sim::Promise<Result<FileInfo>> done);
  sim::Task DoUnlink(VfsContext ctx, std::string path,
                     sim::Promise<Status> done);
  sim::Task DoRmdir(VfsContext ctx, std::string path,
                    sim::Promise<Status> done);
  sim::Task DoReadDirPage(VfsContext ctx, std::string path, DirCursor cursor,
                          std::uint32_t limit,
                          sim::Promise<Result<DirPage>> done);
  sim::Task DoRename(VfsContext ctx, std::string from, std::string to,
                     sim::Promise<Status> done);
  sim::Task DoLink(VfsContext ctx, std::string existing, std::string link,
                   sim::Promise<Status> done);
  // Reclaims every stripe of a dead inode (awaited by the unlink).
  sim::Task ReclaimStripes(net::NodeId node, std::string ident,
                           std::uint32_t epoch, std::uint64_t size,
                           sim::VoidPromise reclaimed,
                           trace::TraceContext trace);

  std::unique_ptr<hash::Distributor> MakeDistributor(
      std::uint32_t servers) const;

  sim::Simulation& sim_;
  kv::KvCluster& storage_;
  kv::Membership* membership_ = nullptr;  // elastic routing when non-null
  MemFsConfig config_;
  Striper striper_;
  // One distributor per ring epoch; epochs_.back() places new files.
  std::vector<std::unique_ptr<hash::Distributor>> epochs_;
  FuseLayer fuse_;
  // Batched per-(client, server) submission layer; every data-path storage
  // op (stripes, metadata, replication fan-out, read repair) goes through it.
  io::OpScheduler sched_;
  // Sharded metadata service (metadata == kSharded); both null under
  // append_log. The store adapter must outlive the client.
  std::unique_ptr<MetaStore> meta_store_;
  std::unique_ptr<mds::Client> meta_client_;

  // Per-node buffering and prefetching pools (§3.2.2).
  sim::PoolGroup write_pool_;
  sim::PoolGroup read_pool_;

  std::unordered_map<FileHandle, std::unique_ptr<OpenFile>> handles_;
  FileHandle next_handle_ = 1;
  MemFsStats stats_;

  // Per-client-node monitor gauges (empty without a registry): open handles
  // and unshipped write-buffer bytes, sampled by src/monitor.
  std::vector<std::int64_t*> open_files_gauges_;  // fs.open_files/<node>
  std::vector<std::int64_t*> dirty_gauges_;       // fs.dirty_bytes/<node>

  std::int64_t* OpenFilesGauge(net::NodeId node) const {
    return node < open_files_gauges_.size() ? open_files_gauges_[node]
                                            : nullptr;
  }
  std::int64_t* DirtyGauge(net::NodeId node) const {
    return node < dirty_gauges_.size() ? dirty_gauges_[node] : nullptr;
  }
};

}  // namespace memfs::fs
