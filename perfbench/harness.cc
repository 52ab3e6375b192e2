#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <unordered_map>

#include "meta/client.h"
#include "meta/meta.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Ratio(std::uint64_t num, std::uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

// Max over mean of a set of per-instance values (1.0 = perfectly even).
template <typename T>
double MaxOverMean(const std::vector<T>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double max = 0.0;
  for (const T v : values) {
    sum += static_cast<double>(v);
    max = std::max(max, static_cast<double>(v));
  }
  return Ratio(max, sum / static_cast<double>(values.size()));
}

}  // namespace

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return static_cast<double>(values_[rank - 1]);
}

double Samples::TailQuantile() const {
  if (values_.size() < 20) return 0.0;
  return 1.0 - 10.0 / static_cast<double>(values_.size());
}

double HostNow() {
  // lint: allow(nondeterminism) host time is what this benchmark measures
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

double HostCpuNow() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double CalibrateHost() {
  constexpr std::uint32_t kOps = 1u << 19;
  constexpr std::size_t kPending = 1u << 12;
  constexpr std::size_t kTableWords = 1u << 19;  // 4 MiB: past the L2 cache
  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, slot)
  // Kept across calls, so that no call pays for page faults or depends on
  // the state of the allocator the workload left behind.
  static std::vector<std::uint64_t> table(kTableWords);
  static std::vector<Event> events;
  events.clear();
  events.reserve(kPending + 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const double start = HostCpuNow();
  std::uint64_t now = 0;
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    events.push_back({now + (next() & 0xffff), next() & (kTableWords - 1)});
    std::push_heap(events.begin(), events.end(), std::greater<>());
    if (events.size() < kPending) continue;
    std::pop_heap(events.begin(), events.end(), std::greater<>());
    const Event event = events.back();
    events.pop_back();
    now = event.first;
    std::uint64_t& word = table[event.second];
    word = word * 31 + now;
    sum += word;
  }
  // Keeps the loop from being optimised away.
  asm volatile("" : : "r"(sum) : "memory");
  return HostCpuNow() - start;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

Counters Counters::Take(memfs::workloads::Testbed& bed) {
  Counters c;
  c.events = bed.simulation().events_processed();
  const memfs::net::Network& net = bed.network();
  c.net_bytes = net.total_bytes();
  for (std::uint32_t n = 0; n < bed.config().nodes; ++n) {
    c.nic_bytes.push_back(std::max(net.bytes_sent(n), net.bytes_received(n)));
  }
  const memfs::fs::MemFs& fs = *bed.memfs();
  c.app_bytes = fs.stats().bytes_read + fs.stats().bytes_written;
  c.stripe_gets = fs.stats().stripe_gets;
  c.prefetch_issued = fs.stats().prefetch_issued;
  c.cache_hits = fs.stats().cache_hits;
  c.cache_misses = fs.stats().cache_misses;
  const memfs::kv::KvCluster& kv = *bed.storage();
  c.kv_rpcs = kv.stats().single_rpcs + kv.stats().batch_rpcs;
  c.kv_retries = kv.stats().retries;
  for (std::uint32_t s = 0; s < kv.server_count(); ++s) {
    c.kv_gets += kv.server(s).stats().gets;
    c.kv_hits += kv.server(s).stats().hits;
  }
  c.io_batches = fs.scheduler().stats().batches;
  c.io_batched_ops = fs.scheduler().stats().batched_ops;
  if (const auto* meta = fs.meta_client()) {
    c.meta_lookups = meta->stats().lookups;
    c.meta_readdir_pages = meta->stats().readdir_pages;
  }
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d = *this;
  d.events -= b.events;
  d.net_bytes -= b.net_bytes;
  for (std::size_t i = 0; i < d.nic_bytes.size() && i < b.nic_bytes.size();
       ++i) {
    d.nic_bytes[i] -= b.nic_bytes[i];
  }
  d.app_bytes -= b.app_bytes;
  d.stripe_gets -= b.stripe_gets;
  d.prefetch_issued -= b.prefetch_issued;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.kv_rpcs -= b.kv_rpcs;
  d.kv_retries -= b.kv_retries;
  d.kv_gets -= b.kv_gets;
  d.kv_hits -= b.kv_hits;
  d.io_batches -= b.io_batches;
  d.io_batched_ops -= b.io_batched_ops;
  d.meta_lookups -= b.meta_lookups;
  d.meta_readdir_pages -= b.meta_readdir_pages;
  return d;
}

void PathTimes::Add(const memfs::trace::CriticalPath& path) {
  if (!path.found) {
    ++roots_missing;
    return;
  }
  ++roots;
  window += path.window();
  for (const auto& share : path.by_category) {
    by_category[share.label] += share.nanos;
  }
  for (const auto& share : path.by_name) by_name[share.label] += share.nanos;
}

void PathTimes::Add(const memfs::trace::Tracer& tracer,
                    const std::vector<memfs::trace::TraceId>& traces) {
  if (traces.size() == 1) {
    Add(memfs::trace::ExtractCriticalPath(tracer, traces.front()));
    return;
  }
  // ExtractCriticalPath scans the span list it is given, so split the ring
  // by trace first instead of rescanning it once per root.
  std::unordered_map<memfs::trace::TraceId,
                     std::deque<memfs::trace::SpanRecord>>
      by_trace;
  for (const auto id : traces) by_trace[id];
  for (const auto& span : tracer.finished()) {
    const auto it = by_trace.find(span.trace_id);
    if (it != by_trace.end()) it->second.push_back(span);
  }
  for (const auto id : traces) {
    Add(memfs::trace::ExtractCriticalPath(by_trace[id], id));
  }
}

SimTime PathTimes::Category(const std::string& c) const {
  const auto it = by_category.find(c);
  return it == by_category.end() ? 0 : it->second;
}

SimTime PathTimes::Name(const std::string& n) const {
  const auto it = by_name.find(n);
  return it == by_name.end() ? 0 : it->second;
}

double PathTimes::CategoryMsPerRoot(const std::string& c) const {
  return Ratio(static_cast<double>(Category(c)) / 1e6,
               static_cast<double>(roots));
}

double PathTimes::NameMsPerRoot(const std::string& n) const {
  return Ratio(static_cast<double>(Name(n)) / 1e6, static_cast<double>(roots));
}

void SimOutcome::Fail(std::string message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(message));
}

double Workload::SloRate(const Rep& first, std::ostream& log) {
  const double rate = Ratio(static_cast<double>(first.sim.requests),
                            first.sim.makespan_s);
  log << "slo_rate_rps: closed loop, completed requests per simulated "
         "second = "
      << rate << "\n";
  return rate;
}

void FillCommonMetrics(memfs::workloads::Testbed& bed, const Counters& d,
                       std::uint64_t live_bytes, std::uint64_t stripes_needed,
                       SimOutcome& out) {
  const std::uint32_t nodes = bed.config().nodes;
  std::vector<std::uint64_t> stored;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    stored.push_back(bed.NodeMemoryUsed(n));
  }
  out.storage_skew = MaxOverMean(stored);
  out.space_amp = Ratio(bed.TotalMemoryUsed(), live_bytes);

  const memfs::kv::KvCluster& kv = *bed.storage();
  std::vector<std::size_t> objects;
  for (std::uint32_t s = 0; s < kv.server_count(); ++s) {
    objects.push_back(kv.server(s).object_count());
  }

  const double nic_capacity =
      static_cast<double>(bed.network().config().nic_bandwidth) *
      out.makespan_s;
  const std::uint64_t nic_max =
      d.nic_bytes.empty()
          ? 0
          : *std::max_element(d.nic_bytes.begin(), d.nic_bytes.end());

  auto& l = out.layer;
  l["sim.events"] = static_cast<double>(d.events);
  l["net.bytes_per_user_byte"] = Ratio(d.net_bytes, d.app_bytes);
  l["net.nic_util_max"] = Ratio(static_cast<double>(nic_max), nic_capacity);
  l["kv.rpcs_per_op"] = Ratio(d.kv_rpcs, out.attempted);
  l["kv.retries"] = static_cast<double>(d.kv_retries);
  l["kv.hit_ratio"] = Ratio(d.kv_hits, d.kv_gets);
  l["io.ops_per_batch"] = Ratio(d.io_batched_ops, d.io_batches);
  l["io.max_batch"] =
      static_cast<double>(bed.memfs()->scheduler().stats().max_batch);
  l["fs.stripe_gets_per_read"] = Ratio(d.stripe_gets, out.read.count());
  l["fs.cache_hit_ratio"] = Ratio(d.cache_hits, d.cache_hits + d.cache_misses);
  // Each file is read whole and sequentially, so every stripe it needs was
  // either fetched on a demand miss or prefetched ahead; the rest of the
  // prefetches were wasted (evicted unread, or past what was read).
  const std::uint64_t prefetched_used =
      stripes_needed > d.cache_misses
          ? stripes_needed - d.cache_misses
          : 0;
  l["fs.prefetch_useful_ratio"] =
      Ratio(std::min(prefetched_used, d.prefetch_issued), d.prefetch_issued);
  l["meta.lookups_per_op"] = Ratio(d.meta_lookups, out.meta.count());
  l["meta.readdir_pages"] = static_cast<double>(d.meta_readdir_pages);
  l["hash.object_skew"] = MaxOverMean(objects);
}

void FillPathMetrics(const PathTimes& paths, SimOutcome& out) {
  auto& l = out.layer;
  l["net.self_ms"] = paths.CategoryMsPerRoot("net");
  l["kv.queue_ms"] = paths.NameMsPerRoot("kv.queue");
  l["kv.server_ms"] = paths.CategoryMsPerRoot("kv.service");
  l["io.wait_ms"] = paths.NameMsPerRoot("kv.batch.wait");
  l["fs.vfs_self_ms"] = paths.CategoryMsPerRoot("vfs");
  l["fs.striper_self_ms"] = paths.CategoryMsPerRoot("striper");
  l["meta.self_ms"] = paths.CategoryMsPerRoot("meta");
}

memfs::sim::Task WriteWhole(memfs::fs::Vfs& vfs, memfs::fs::VfsContext ctx,
                            std::string path, FileContent file,
                            std::uint64_t block,
                            memfs::sim::Promise<memfs::Status> done) {
  auto handle = co_await vfs.Create(ctx, path);
  if (!handle.ok()) {
    done.Set(handle.status());
    co_return;
  }
  const memfs::Bytes content = memfs::Bytes::Synthetic(file.size, file.seed);
  memfs::Status status;
  for (std::uint64_t offset = 0; offset < file.size && status.ok();
       offset += block) {
    status = co_await vfs.Write(ctx, handle.value(),
                                content.Slice(offset, block));
  }
  const memfs::Status closed = co_await vfs.Close(ctx, handle.value());
  done.Set(status.ok() ? closed : status);
}

memfs::sim::Task ReadWhole(memfs::fs::Vfs& vfs, memfs::fs::VfsContext ctx,
                           std::string path, FileContent file,
                           std::uint64_t block,
                           memfs::sim::Promise<memfs::Status> done) {
  auto handle = co_await vfs.Open(ctx, path);
  if (!handle.ok()) {
    done.Set(handle.status());
    co_return;
  }
  const memfs::Bytes content = memfs::Bytes::Synthetic(file.size, file.seed);
  memfs::Status status;
  std::uint64_t offset = 0;
  while (status.ok()) {
    auto chunk = co_await vfs.Read(ctx, handle.value(), offset, block);
    if (!chunk.ok()) {
      status = chunk.status();
      break;
    }
    const std::uint64_t got = chunk.value().size();
    if (!content.Slice(offset, got).ContentEquals(chunk.value())) {
      status = memfs::status::Internal("content mismatch in " + path +
                                       " at offset " +
                                       std::to_string(offset));
    }
    offset += got;
    if (got < block) break;
  }
  if (status.ok() && offset != file.size) {
    status = memfs::status::Internal(path + ": read " +
                                     std::to_string(offset) + " bytes of " +
                                     std::to_string(file.size));
  }
  const memfs::Status closed = co_await vfs.Close(ctx, handle.value());
  done.Set(status.ok() ? closed : status);
}

namespace {

memfs::sim::Task StatSlice(
    memfs::fs::Vfs& vfs,
    const std::vector<std::pair<std::string, std::uint64_t>>& expected,
    memfs::fs::VfsContext ctx, std::uint32_t client, std::uint32_t clients,
    SimOutcome& out) {
  for (std::size_t i = client; i < expected.size(); i += clients) {
    const auto& [path, size] = expected[i];
    const auto info = co_await vfs.Stat(ctx, path);
    if (!info.ok()) {
      out.Fail("verify stat " + path + ": " + info.status().ToString());
    } else if (info.value().size != size || info.value().is_directory) {
      out.Fail("verify " + path + ": size " +
               std::to_string(info.value().size) + ", expected " +
               std::to_string(size));
    }
  }
}

}  // namespace

void VerifySizes(memfs::workloads::Testbed& bed,
                 const std::vector<std::pair<std::string, std::uint64_t>>&
                     expected,
                 std::uint32_t clients, SimOutcome& out) {
  const std::uint32_t nodes = bed.config().nodes;
  for (std::uint32_t c = 0; c < clients; ++c) {
    StatSlice(bed.vfs(), expected, memfs::fs::VfsContext{c % nodes, c / nodes},
              c, clients, out);
  }
  bed.simulation().Run();
}

namespace {

memfs::sim::Task ResolveDir(memfs::meta::Client& client, std::string path,
                            memfs::meta::Ino* ino, SimOutcome& out) {
  auto attr = co_await client.Resolve(0, path, {});
  if (attr.ok()) {
    *ino = attr.value().ino;
  } else {
    out.Fail("resolve " + path + ": " + attr.status().ToString());
  }
}

}  // namespace

double DentrySkew(
    memfs::workloads::Testbed& bed,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& dirs,
    SimOutcome& out) {
  memfs::meta::Client* client = bed.memfs()->meta_client();
  if (client == nullptr) return 0.0;
  std::vector<memfs::meta::Ino> inos(dirs.size(), memfs::meta::kRootIno);
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    if (dirs[i].first != "/") ResolveDir(*client, dirs[i].first, &inos[i], out);
  }
  bed.simulation().Run();
  const memfs::meta::MetaConfig& mc = client->config();
  std::vector<std::uint64_t> per_shard(mc.dir_shards, 0);
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    for (const auto& name : dirs[i].second) {
      ++per_shard[memfs::meta::ShardOfName(inos[i], name, mc.dir_shards,
                                           mc.hash_kind)];
    }
  }
  return MaxOverMean(per_shard);
}

}  // namespace perfbench
