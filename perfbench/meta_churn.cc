// meta_churn — closed loop. 128 client coroutines (16 DAS4-IPoIB nodes x 8)
// each wait for one reply before sending the next op: a seeded mdtest-style
// mix of create (+close; empty or 4 KB), stat, open (+read+close), paged
// readdir, rename and unlink over a pre-populated sharded namespace — a few
// hot directories with thousands of entries and many cold ones, so entries
// far outnumber clients.
//
// This loads the metadata service, small-op kvstore ADD/APPEND/GET, io
// coalescing of small ops and hash placement, and barely touches network
// bandwidth, the striper and mtc: a data-path gain must leave it unchanged.
//
// The benchmark keeps its own model of the namespace. An entry an op works
// on is taken out of the model until the op completes, so no two clients
// ever race on one name and no op may fail. At the end, every directory's
// paged listing and every file's stat must equal the model.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "harness.h"
#include "meta/meta.h"
#include "mtc/workflow.h"
#include "probe_vfs.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "trace/trace.h"
#include "workloads/testbed.h"

namespace perfbench {
namespace {

using namespace memfs;  // NOLINT: benchmark-local brevity

constexpr std::uint32_t kNodes = 16;
constexpr std::uint32_t kProcs = 8;
constexpr std::uint32_t kClients = kNodes * kProcs;
constexpr std::uint32_t kOpsPerClient = 256;
constexpr std::uint32_t kHotDirs = 4;
constexpr std::uint64_t kHotEntries = 4096;  // bulk-loaded, empty
constexpr std::uint32_t kColdDirs = 256;
constexpr std::uint64_t kColdEntries = 16;       // bulk-loaded, empty
constexpr std::uint32_t kColdSmallFiles = 8;     // written in set-up, 4 KB
constexpr std::uint64_t kSmallFile = units::KiB(4);
// Share of ops aimed at a hot directory (the rest pick a cold one).
constexpr double kHotShare = 0.5;
// The traced run roots one trace at every k-th op.
constexpr std::uint32_t kTraceEvery = 16;
constexpr std::size_t kTraceRing = std::size_t{1} << 21;

enum class Op { kCreate, kStat, kOpen, kReadDir, kRename, kUnlink };

// mdtest-style mix, cumulative percent: create 20, stat 25, open 20,
// readdir 10, rename 10, unlink 15. The shares, like the namespace shape
// and the hot share above, are assumptions rather than a measured trace;
// perfbench/README.md says what each was chosen to meet.
Op PickOp(Rng& rng) {
  const std::uint64_t p = rng.Below(100);
  if (p < 20) return Op::kCreate;
  if (p < 45) return Op::kStat;
  if (p < 65) return Op::kOpen;
  if (p < 75) return Op::kReadDir;
  if (p < 85) return Op::kRename;
  return Op::kUnlink;
}

struct Entry {
  std::string name;
  FileContent content;
};

struct Dir {
  std::string path;
  std::vector<Entry> idle;  // entries no op is working on
};

// Shared state of one timed run.
struct ChurnState {
  sim::Simulation* sim = nullptr;
  fs::Vfs* vfs = nullptr;
  SimOutcome* out = nullptr;
  trace::Tracer* tracer = nullptr;  // traced run only
  std::vector<trace::TraceId> traces;
  std::vector<Dir> dirs;
  std::uint32_t shards = 1;  // metadata token ranges per directory
  std::uint64_t ops = 0;
  std::uint64_t stripes_needed = 0;
  SimTime last_done = 0;
};

std::uint32_t PickDir(Rng& rng) {
  if (rng.NextDouble() < kHotShare) {
    return static_cast<std::uint32_t>(rng.Below(kHotDirs));
  }
  return kHotDirs + static_cast<std::uint32_t>(rng.Below(kColdDirs));
}

std::string Join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

// Takes a random idle entry out of the model; false when there is none.
bool Take(Rng& rng, Dir& dir, Entry& entry) {
  if (dir.idle.empty()) return false;
  const std::size_t i = rng.Below(dir.idle.size());
  std::swap(dir.idle[i], dir.idle.back());
  entry = std::move(dir.idle.back());
  dir.idle.pop_back();
  return true;
}

void Check(ChurnState& st, const Status& status, const std::string& what) {
  if (!status.ok()) st.out->Fail(what + ": " + status.ToString());
}

sim::Task Client(ChurnState& st, std::uint32_t id, Rng rng) {
  for (std::uint32_t i = 0; i < kOpsPerClient; ++i) {
    fs::VfsContext ctx{id % kNodes, id / kNodes};
    if (st.tracer != nullptr && (id * kOpsPerClient + i) % kTraceEvery == 0) {
      ctx.trace = st.tracer->StartTrace("op", "request", ctx.node);
      st.traces.push_back(ctx.trace.trace_id);
    }
    Op op = PickOp(rng);
    const std::uint32_t d = PickDir(rng);
    Entry entry;
    if (op != Op::kCreate && op != Op::kReadDir &&
        !Take(rng, st.dirs[d], entry)) {
      op = Op::kCreate;
    }
    const std::string& dir = st.dirs[d].path;
    switch (op) {
      case Op::kCreate: {
        Entry made;
        made.name = "c" + std::to_string(id) + "_" + std::to_string(i);
        made.content = {rng.Below(2) == 0 ? 0 : kSmallFile,
                        mtc::FileSeed(Join(dir, made.name))};
        sim::Promise<Status> done(*st.sim);
        auto written = done.GetFuture();
        WriteWhole(*st.vfs, ctx, Join(dir, made.name), made.content,
                   kSmallFile, std::move(done));
        const Status status = co_await written;
        Check(st, status, "create " + Join(dir, made.name));
        if (status.ok()) st.dirs[d].idle.push_back(std::move(made));
        break;
      }
      case Op::kStat: {
        const auto info = co_await st.vfs->Stat(ctx, Join(dir, entry.name));
        if (info.ok() && info.value().size != entry.content.size) {
          st.out->Fail("stat " + Join(dir, entry.name) + ": size " +
                       std::to_string(info.value().size));
        }
        st.dirs[d].idle.push_back(std::move(entry));
        break;
      }
      case Op::kOpen: {
        st.stripes_needed += entry.content.size > 0 ? 1 : 0;
        sim::Promise<Status> done(*st.sim);
        auto read = done.GetFuture();
        ReadWhole(*st.vfs, ctx, Join(dir, entry.name), entry.content,
                  kSmallFile, std::move(done));
        Check(st, co_await read, "open " + Join(dir, entry.name));
        st.dirs[d].idle.push_back(std::move(entry));
        break;
      }
      case Op::kReadDir: {
        const fs::DirCursor cursor{
            static_cast<std::uint32_t>(rng.Below(st.shards)), 0};
        // Failures are counted by the probe.
        (void)co_await st.vfs->ReadDirPage(ctx, dir, cursor, 0);
        break;
      }
      case Op::kRename: {
        const std::uint32_t to = PickDir(rng);
        Entry moved{"r" + std::to_string(id) + "_" + std::to_string(i),
                    entry.content};
        const Status status =
            co_await st.vfs->Rename(ctx, Join(dir, entry.name),
                                    Join(st.dirs[to].path, moved.name));
        if (status.ok()) {
          st.dirs[to].idle.push_back(std::move(moved));
        } else {
          st.dirs[d].idle.push_back(std::move(entry));
        }
        break;
      }
      case Op::kUnlink: {
        const Status status =
            co_await st.vfs->Unlink(ctx, Join(dir, entry.name));
        if (!status.ok()) st.dirs[d].idle.push_back(std::move(entry));
        break;
      }
    }
    trace::End(ctx.trace);
    ++st.ops;
  }
  st.last_done = st.sim->now();
}

sim::Task WriteSmall(sim::Simulation& sim, fs::Vfs& vfs, std::string dir,
                     std::string name, std::uint32_t client,
                     SimOutcome& out) {
  sim::Promise<Status> done(sim);
  auto written = done.GetFuture();
  WriteWhole(vfs, fs::VfsContext{client % kNodes, client / kNodes},
             Join(dir, name), {kSmallFile, mtc::FileSeed(Join(dir, name))},
             kSmallFile, std::move(done));
  const Status status = co_await written;
  if (!status.ok()) out.Fail("set-up " + Join(dir, name) + ": " +
                             status.ToString());
}

// Lists `dir` page by page to the end and checks the names against the
// model (with every op finished, all entries are idle).
sim::Task ListAndCompare(fs::Vfs& vfs, const Dir& dir, SimOutcome& out) {
  std::vector<std::string> listed;
  fs::DirCursor cursor;
  while (true) {
    auto page = co_await vfs.ReadDirPage(fs::VfsContext{0, 0}, dir.path,
                                         cursor, 0);
    if (!page.ok()) {
      out.Fail("list " + dir.path + ": " + page.status().ToString());
      co_return;
    }
    for (auto& info : page.value().entries) listed.push_back(info.name);
    if (!page.value().more) break;
    cursor = page.value().next;
  }
  std::vector<std::string> expected;
  for (const auto& e : dir.idle) expected.push_back(e.name);
  std::sort(listed.begin(), listed.end());
  std::sort(expected.begin(), expected.end());
  if (listed != expected) {
    out.Fail("list " + dir.path + ": " + std::to_string(listed.size()) +
             " entries, model has " + std::to_string(expected.size()));
  }
}

class MetaChurn final : public Workload {
 public:
  explicit MetaChurn(std::uint64_t seed) : seed_(seed) {}

  Rep RunOnce(const RepConfig& config) override;

 private:
  std::uint64_t seed_;
};

Rep MetaChurn::RunOnce(const RepConfig& config) {
  Rep rep;
  SimOutcome& out = rep.sim;
  ChurnState st;

  const double setup_start = HostCpuNow();
  workloads::TestbedConfig tb;
  tb.nodes = kNodes;
  tb.fabric = workloads::Fabric::kDas4Ipoib;
  tb.memfs.metadata = meta::MetadataMode::kSharded;
  workloads::Testbed bed(workloads::FsKind::kMemFs, tb);
  sim::Simulation& sim = bed.simulation();
  for (std::uint32_t h = 0; h < kHotDirs; ++h) {
    Dir dir{"/hot" + std::to_string(h), {}};
    bed.memfs()->BulkLoadDirectory(dir.path, "e", kHotEntries);
    for (std::uint64_t e = 0; e < kHotEntries; ++e) {
      dir.idle.push_back({"e" + std::to_string(e), {}});
    }
    st.dirs.push_back(std::move(dir));
  }
  std::uint32_t writer = 0;
  for (std::uint32_t c = 0; c < kColdDirs; ++c) {
    Dir dir{"/cold" + std::to_string(c), {}};
    bed.memfs()->BulkLoadDirectory(dir.path, "e", kColdEntries);
    for (std::uint64_t e = 0; e < kColdEntries; ++e) {
      dir.idle.push_back({"e" + std::to_string(e), {}});
    }
    for (std::uint32_t f = 0; f < kColdSmallFiles; ++f) {
      const std::string name = "s" + std::to_string(f);
      WriteSmall(sim, bed.vfs(), dir.path, name, writer++ % kClients, out);
      dir.idle.push_back(
          {name, {kSmallFile, mtc::FileSeed(Join(dir.path, name))}});
    }
    st.dirs.push_back(std::move(dir));
  }
  sim.Run();
  rep.setup_s = HostCpuNow() - setup_start;

  trace::Tracer tracer(sim, trace::TracerConfig{kTraceRing});
  ProbeVfs probe(sim, bed.vfs(), out);
  st.sim = &sim;
  st.vfs = &probe;
  st.out = &out;
  st.shards = bed.memfs()->config().meta.dir_shards;
  if (config.traced) st.tracer = &tracer;
  Rng rng(seed_ ^ 0x6d65746163687572ull);

  const Counters before = Counters::Take(bed);
  const std::uint64_t allocs_before = HeapAllocs();
  const SimTime start = sim.now();
  const double run_start = HostCpuNow();
  for (std::uint32_t c = 0; c < kClients; ++c) Client(st, c, rng.Fork());
  sim.Run();
  rep.host_s = HostCpuNow() - run_start;
  rep.allocs = HeapAllocs() - allocs_before;
  const Counters delta = Counters::Take(bed).Minus(before);

  out.digest = sim.EventDigest();
  out.events = delta.events;
  out.makespan_s = units::ToSeconds(st.last_done - start);
  out.attempted = probe.calls();
  out.requests = st.ops;
  if (st.ops != std::uint64_t{kClients} * kOpsPerClient) {
    out.Fail(std::to_string(st.ops) + " ops completed");
  }

  std::uint64_t live = 0;
  std::uint64_t entries = 0;
  std::vector<std::pair<std::string, std::uint64_t>> files;
  std::vector<std::pair<std::string, std::vector<std::string>>> listing;
  listing.push_back({"/", {}});
  for (const Dir& dir : st.dirs) {
    listing.front().second.push_back(dir.path.substr(1));
    listing.push_back({dir.path, {}});
    for (const Entry& e : dir.idle) {
      live += e.content.size;
      files.emplace_back(Join(dir.path, e.name), e.content.size);
      listing.back().second.push_back(e.name);
    }
    entries += dir.idle.size();
  }
  out.notes.push_back({"client ops", std::to_string(st.ops)});
  out.notes.push_back({"live entries at end", std::to_string(entries)});

  FillCommonMetrics(bed, delta, live, st.stripes_needed, out);

  if (config.traced) {
    rep.paths.Add(tracer, st.traces);
    rep.spans = tracer.spans_started();
    rep.dropped_spans = tracer.dropped_spans();
    FillPathMetrics(rep.paths, out);
    out.layer["meta.dentry_skew"] = DentrySkew(bed, listing, out);
  }

  if (config.verify) {
    for (const Dir& dir : st.dirs) ListAndCompare(bed.vfs(), dir, out);
    sim.Run();
    VerifySizes(bed, files, kClients, out);
  }
  return rep;
}

}  // namespace

std::unique_ptr<Workload> MakeMetaChurn(std::uint64_t seed) {
  return std::make_unique<MetaChurn>(seed);
}

}  // namespace perfbench
