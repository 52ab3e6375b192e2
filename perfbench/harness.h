// Shared pieces of the repository benchmark: raw latency samples with exact
// percentiles, host-side counters (CPU and wall clock, a calibration
// kernel, heap allocations, peak RSS), per-layer counter snapshots of a
// Testbed, critical-path aggregation over a traced run, and the whole-file
// I/O and verification helpers the workloads share.
//
// Two clocks appear throughout. Simulated time (sim::SimTime, nanoseconds)
// measures the modelled file system and repeats exactly for a given seed.
// Host time (the process's CPU time, which main.cc calibrates for the
// host's speed) measures the simulator as a program.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "memfs/vfs.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "trace/critical_path.h"
#include "trace/trace.h"
#include "workloads/testbed.h"

namespace perfbench {

using memfs::sim::SimTime;

// Raw per-request latency samples (simulated nanoseconds). Percentiles are
// exact nearest-rank values over every sample, never histogram buckets.
class Samples {
 public:
  void Add(SimTime nanos) { values_.push_back(nanos); sorted_ = false; }
  std::size_t count() const { return values_.size(); }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  // The highest quantile that still has at least ten samples beyond it
  // (1 - 10/n); 0 when there are fewer than twenty samples.
  double TailQuantile() const;

 private:
  mutable std::vector<SimTime> values_;
  mutable bool sorted_ = true;
};

// Host wall clock in seconds since an arbitrary epoch. Only bounds how long
// a run repeats its workload; no metric reads it.
double HostNow();
// CPU time this process has used, in seconds (CLOCK_PROCESS_CPUTIME_ID).
// Unlike wall time it leaves out time the process spent waiting for a core,
// whether another process had it or the hypervisor took it (steal time).
// The benchmark is single-threaded, so on an idle host the two agree.
double HostCpuNow();
// Heap allocations made by this process so far (operator new calls).
std::uint64_t HeapAllocs();
// Runs a fixed piece of work shaped like the simulator's inner loop (a
// binary heap of timed events, random updates over a table larger than the
// L2 cache) and returns its CPU time in seconds. The work never changes, so
// the time measures how fast the host runs at that moment.
double CalibrateHost();
// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Cumulative layer counters of one testbed, read from public stats().
// Subtracting a snapshot taken before the timed part leaves what the timed
// part alone did.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t net_bytes = 0;
  std::vector<std::uint64_t> nic_bytes;  // max(sent, received) per node
  std::uint64_t app_bytes = 0;           // MemFS application reads+writes
  std::uint64_t stripe_gets = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t kv_rpcs = 0;
  std::uint64_t kv_retries = 0;
  std::uint64_t kv_gets = 0;
  std::uint64_t kv_hits = 0;
  std::uint64_t io_batches = 0;
  std::uint64_t io_batched_ops = 0;
  std::uint64_t meta_lookups = 0;
  std::uint64_t meta_readdir_pages = 0;

  static Counters Take(memfs::workloads::Testbed& bed);
  Counters Minus(const Counters& before) const;
};

// Critical-path self time per span category and per span name, summed over
// the traced roots of one run.
struct PathTimes {
  std::uint64_t roots = 0;
  std::uint64_t roots_missing = 0;  // roots whose path was not found
  SimTime window = 0;               // summed root windows
  std::map<std::string, SimTime> by_category;
  std::map<std::string, SimTime> by_name;

  // Adds the critical path of every listed trace.
  void Add(const memfs::trace::Tracer& tracer,
           const std::vector<memfs::trace::TraceId>& traces);
  void Add(const memfs::trace::CriticalPath& path);
  SimTime Category(const std::string& c) const;
  SimTime Name(const std::string& n) const;
  // Mean critical-path self time of `c` per traced root, in milliseconds.
  double CategoryMsPerRoot(const std::string& c) const;
  double NameMsPerRoot(const std::string& n) const;
};

// Deterministic result of one timed simulated run.
struct SimOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;  // simulated events of the timed part
  double makespan_s = 0.0;   // simulated length of the timed part
  Samples read;              // whole-file reads, open call -> close done
  Samples write;             // whole-file writes, create call -> close done
  Samples meta;              // single metadata calls
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;  // completed user-level requests
  double storage_skew = 0.0;
  double space_amp = 0.0;
  // Open loop only: requests in flight kept growing over the arrival window.
  bool backlog_growing = false;
  // Per-layer count and ratio metrics (the traced run adds self times).
  std::map<std::string, double> layer;
  // First failure messages, for the report.
  std::vector<std::string> errors;
  // Workload-specific report lines ("key", "value").
  std::vector<std::pair<std::string, std::string>> notes;

  void Fail(std::string message);
};

// One repetition: set-up and timed part, each with its host CPU time.
struct Rep {
  double setup_s = 0.0;
  double host_s = 0.0;
  std::uint64_t allocs = 0;  // heap allocations during the timed part
  SimOutcome sim;
  // Traced repetitions only.
  PathTimes paths;
  std::uint64_t spans = 0;
  std::uint64_t dropped_spans = 0;
};

struct RepConfig {
  bool traced = false;
  // Run the end-of-run correctness checks that cost extra simulated work
  // (after the digest is taken, so they never change it).
  bool verify = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Rep RunOnce(const RepConfig& config) = 0;
  // Highest request rate (per simulated second) served within the read
  // latency limit. A closed loop offers exactly what it completes, so by
  // default this is the first repetition's completion rate (requests per
  // simulated second); the open loop overrides it with a knee search.
  virtual double SloRate(const Rep& first, std::ostream& log);
};

std::unique_ptr<Workload> MakeMontage(std::uint64_t seed);
std::unique_ptr<Workload> MakeServeZipf(std::uint64_t seed);
std::unique_ptr<Workload> MakeMetaChurn(std::uint64_t seed);

// --- Helpers shared by the workloads ---

// Fills the end-state and counter-derived metrics every workload reports:
// storage_skew, space_amp and the count/ratio per-layer metrics. Per-op
// ratios divide by `out`'s VFS calls (`attempted`), file reads and metadata
// calls, so fill those first. `live_bytes` is the user data the file system
// should hold at the end; `stripes_needed` the distinct stripes of the
// files read.
void FillCommonMetrics(memfs::workloads::Testbed& bed, const Counters& delta,
                       std::uint64_t live_bytes, std::uint64_t stripes_needed,
                       SimOutcome& out);

// Adds the traced run's critical-path self times to `out.layer`.
void FillPathMetrics(const PathTimes& paths, SimOutcome& out);

// Content of a file: `size` bytes of Bytes::Synthetic over `seed`, which is
// mtc::FileSeed of the path the file was created under (a rename keeps it).
struct FileContent {
  std::uint64_t size = 0;
  std::uint64_t seed = 0;
};

// Creates `path` and writes `content` in `block`-sized calls, then closes
// it; `done` receives the first failure.
memfs::sim::Task WriteWhole(memfs::fs::Vfs& vfs, memfs::fs::VfsContext ctx,
                            std::string path, FileContent content,
                            std::uint64_t block,
                            memfs::sim::Promise<memfs::Status> done);

// Opens `path`, reads it to EOF in `block`-sized calls checking every chunk
// against `content` and the total against its size, then closes it; `done`
// receives the first failure or mismatch.
memfs::sim::Task ReadWhole(memfs::fs::Vfs& vfs, memfs::fs::VfsContext ctx,
                           std::string path, FileContent content,
                           std::uint64_t block,
                           memfs::sim::Promise<memfs::Status> done);

// Stats every expected (path, size) pair through the testbed's own file
// system, from `clients` concurrent coroutines spread over the nodes, and
// records a failure for every missing file or size mismatch. Drives the
// simulation until the checks finish.
void VerifySizes(memfs::workloads::Testbed& bed,
                 const std::vector<std::pair<std::string, std::uint64_t>>&
                     expected,
                 std::uint32_t clients, SimOutcome& out);

// Max/mean of live dentries per metadata token-range shard (summed over
// directories, as the meta client's "meta.dentries/<shard>" gauges count
// them), computed from the benchmark's own namespace model: `dirs` maps each
// directory path ("/" included) to its entry names. Resolves each directory
// through the metadata service, driving the simulation; call it only after
// the timed part's digest has been taken.
double DentrySkew(
    memfs::workloads::Testbed& bed,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& dirs,
    SimOutcome& out);

}  // namespace perfbench
