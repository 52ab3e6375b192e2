// Per-operation latency profile of the MemFS data path, plus the simulator
// scale profile behind BENCH_scale.json.
//
// Default mode runs a mixed envelope workload (writes, local+remote reads,
// metadata) with the latency instrumentation attached and prints percentile
// tables for the VFS surface and the underlying key-value protocol — the
// microscopic breakdown behind the aggregate bandwidth/throughput figures: a
// vfs.read is one or more kv.get round trips plus FUSE and assembly, a
// vfs.close carries the buffered-stripe drain and the metadata seal, etc.
//
// --scale mode profiles the simulator itself instead of the simulated
// system: it re-runs the fig08 64-node point (all six workflow cells of the
// figure's rightmost column) and reports wall-clock, simulated events,
// sim-events/sec, and — when built with MEMFS_PROFILE_ALLOC, which this
// target is — global heap allocation/free counts, as JSON on stdout in the
// BENCH_scale.json schema. --sweep adds a Montage-6/MemFS node sweep
// (8 → 1024). --baseline=FILE compares the measured 64-node point against
// the committed baseline and exits nonzero on a >20% sim-events/sec
// regression (override the tolerance with MEMFS_PERF_GATE_TOLERANCE when
// gating on hardware other than the baseline's) or when heap allocations
// per simulated event exceed the baseline's by more than 5%. Allocation
// counts repeat exactly from run to run, so that tolerance only absorbs
// standard-library differences, never noise.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "workloads/blast.h"
#include "workloads/montage.h"

#ifdef MEMFS_PROFILE_ALLOC
#include <atomic>
#include <new>

// Global allocation counters. Replacing the global operator new/delete in
// this TU covers every allocation in the binary (replacement is a link-time
// property), which is why the counter lives in the bench TU and not in a
// library that test or sanitizer builds would also link. The over-aligned
// variants matter: the simulator's event cells are alignas(64).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_frees{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}
#endif  // MEMFS_PROFILE_ALLOC

using namespace memfs;         // NOLINT
using namespace memfs::bench;  // NOLINT

namespace {

std::uint64_t HeapAllocs() {
#ifdef MEMFS_PROFILE_ALLOC
  return g_heap_allocs.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

std::uint64_t HeapFrees() {
#ifdef MEMFS_PROFILE_ALLOC
  return g_heap_frees.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

// One measured run: wall-clock plus simulated-event and heap counters.
struct ScalePoint {
  double wall_s = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_frees = 0;

  double EventsPerSec() const {
    return wall_s > 0.0 ? static_cast<double>(sim_events) / wall_s : 0.0;
  }
};

template <typename Fn>
ScalePoint Measure(Fn&& run) {
  ScalePoint point;
  const std::uint64_t allocs0 = HeapAllocs();
  const std::uint64_t frees0 = HeapFrees();
  // lint: allow(nondeterminism) measuring the simulator's own wall-clock
  const auto start = std::chrono::steady_clock::now();
  point.sim_events = run();
  // lint: allow(nondeterminism) measuring the simulator's own wall-clock
  const auto stop = std::chrono::steady_clock::now();
  point.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();
  point.heap_allocs = HeapAllocs() - allocs0;
  point.heap_frees = HeapFrees() - frees0;
  return point;
}

// The fig08 64-node point: the six workflow cells of the figure's rightmost
// column (Montage-6 on AMFS@8, AMFS@4 and MemFS@8; Montage-12 on MemFS;
// BLAST on AMFS and MemFS). Returns total simulated events across the six
// testbeds.
std::uint64_t RunFig08Point(std::uint32_t nodes) {
  workloads::MontageParams m6;
  m6.degree = 6;
  m6.task_scale = 4;
  m6.size_scale = 16;
  m6.project_cpu_s = 6.0;
  const auto m6_wf = workloads::BuildMontage(m6);

  workloads::MontageParams m12;
  m12.degree = 12;
  m12.task_scale = 4;
  m12.size_scale = 16;
  m12.project_cpu_s = 6.0;
  const auto m12_wf = workloads::BuildMontage(m12);

  workloads::BlastParams blast;
  blast.fragments = 512;
  blast.task_scale = 1;
  blast.size_scale = 128;
  blast.queries_per_fragment = 4;
  blast.formatdb_cpu_s = 8.0;
  blast.blastall_cpu_s = 3.0;
  const auto blast_wf = workloads::BuildBlast(blast);

  std::uint64_t events = 0;
  auto run_cell = [&events, nodes](workloads::FsKind kind,
                                   std::uint32_t cores,
                                   const mtc::Workflow& wf) {
    WorkflowCellParams params;
    params.kind = kind;
    params.nodes = nodes;
    params.cores_per_node = cores;
    const auto cell = RunWorkflowCell(params, wf);
    if (!cell.result.status.ok()) {
      std::cerr << "scale cell failed: " << cell.result.status.ToString()
                << "\n";
      std::exit(2);
    }
    events += cell.bed->simulation().events_processed();
  };
  run_cell(workloads::FsKind::kAmfs, 8, m6_wf);
  run_cell(workloads::FsKind::kAmfs, 4, m6_wf);
  run_cell(workloads::FsKind::kMemFs, 8, m6_wf);
  run_cell(workloads::FsKind::kMemFs, 8, m12_wf);
  run_cell(workloads::FsKind::kAmfs, 8, blast_wf);
  run_cell(workloads::FsKind::kMemFs, 8, blast_wf);
  return events;
}

// One Montage-6/MemFS cell at `nodes` — the sweep workload. The workload is
// held constant (the fig08 64-node cell's) across the whole sweep, so the
// wall-clock trend isolates how simulator cost grows with cluster size:
// per-node services, membership, monitors and wider fan-outs, not more
// application work. Montage-6 cannot fill 1024 nodes — the point of the
// large cells is that the simulator carries them at all.
std::uint64_t RunSweepCell(std::uint32_t nodes) {
  workloads::MontageParams m6;
  m6.degree = 6;
  m6.task_scale = 4;
  m6.size_scale = 16;
  m6.project_cpu_s = 6.0;
  const auto wf = workloads::BuildMontage(m6);

  WorkflowCellParams params;
  params.kind = workloads::FsKind::kMemFs;
  params.nodes = nodes;
  params.cores_per_node = 8;
  const auto cell = RunWorkflowCell(params, wf);
  if (!cell.result.status.ok()) {
    std::cerr << "sweep cell failed @ " << nodes
              << " nodes: " << cell.result.status.ToString() << "\n";
    std::exit(2);
  }
  return cell.bed->simulation().events_processed();
}

void AppendPoint(std::ostream& out, const ScalePoint& point) {
  out << "\"wall_s\": " << point.wall_s
      << ", \"sim_events\": " << point.sim_events
      << ", \"events_per_sec\": " << point.EventsPerSec()
      << ", \"heap_allocs\": " << point.heap_allocs
      << ", \"heap_frees\": " << point.heap_frees;
}

// Pulls the first numeric value following `"key":` at or after `from`.
double JsonNumberAfter(const std::string& text, const std::string& key,
                       std::size_t from) {
  const std::size_t at = text.find("\"" + key + "\":", from);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

int RunScaleProfile(bool sweep, const std::string& baseline_path) {
  std::ostringstream json;
  json << "{\n";
  json << "  \"benchmark\": \"fig08_horizontal_das4 @ 64 nodes, all six "
          "cells\",\n";
  json << "  \"alloc_counters\": "
#ifdef MEMFS_PROFILE_ALLOC
       << "true"
#else
       << "false"
#endif
       << ",\n";

  std::cerr << "running fig08 64-node point...\n";
  const ScalePoint fig08 = Measure([] { return RunFig08Point(64); });
  json << "  \"fig08_64\": {";
  AppendPoint(json, fig08);
  json << "},\n";

  json << "  \"sweep_workload\": \"montage6 memfs 8 cores/node, constant "
          "work (task_scale 4, size_scale 16) at every cluster size\",\n";
  json << "  \"sweep\": [";
  if (sweep) {
    bool first = true;
    for (std::uint32_t nodes : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      std::cerr << "sweep point: " << nodes << " nodes...\n";
      const ScalePoint point =
          Measure([nodes] { return RunSweepCell(nodes); });
      json << (first ? "" : ",") << "\n    {\"nodes\": " << nodes << ", ";
      AppendPoint(json, point);
      json << "}";
      first = false;
    }
    json << "\n  ";
  }
  json << "]\n}\n";

  std::cout << json.str();

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "perf gate: cannot read baseline " << baseline_path
                << "\n";
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::size_t at = text.find("\"fig08_64\"");
    const double baseline_eps =
        at == std::string::npos ? -1.0
                                : JsonNumberAfter(text, "events_per_sec", at);
    if (baseline_eps <= 0.0) {
      std::cerr << "perf gate: baseline has no fig08_64 events_per_sec\n";
      return 1;
    }
    double tolerance = 0.20;
    if (const char* env = std::getenv("MEMFS_PERF_GATE_TOLERANCE")) {
      tolerance = std::strtod(env, nullptr);
    }
    const double measured = fig08.EventsPerSec();
    const double floor = baseline_eps * (1.0 - tolerance);
    std::cerr << "perf gate: measured " << measured
              << " sim-events/sec, baseline " << baseline_eps << ", floor "
              << floor << "\n";
    bool failed = false;
    if (measured < floor) {
      std::cerr << "perf gate: FAIL (sim-events/sec regressed more than "
                << tolerance * 100.0 << "%)\n";
      failed = true;
    }
#ifdef MEMFS_PROFILE_ALLOC
    const double baseline_allocs = JsonNumberAfter(text, "heap_allocs", at);
    const double baseline_events = JsonNumberAfter(text, "sim_events", at);
    if (baseline_allocs <= 0.0 || baseline_events <= 0.0) {
      std::cerr << "perf gate: baseline has no fig08_64 heap_allocs\n";
      return 1;
    }
    constexpr double kAllocTolerance = 0.05;
    const double allocs_per_event =
        static_cast<double>(fig08.heap_allocs) /
        static_cast<double>(fig08.sim_events);
    const double alloc_ceiling =
        baseline_allocs / baseline_events * (1.0 + kAllocTolerance);
    std::cerr << "perf gate: measured " << allocs_per_event
              << " heap allocs/event, ceiling " << alloc_ceiling << "\n";
    if (allocs_per_event > alloc_ceiling) {
      std::cerr << "perf gate: FAIL (heap allocs/event grew more than "
                << kAllocTolerance * 100.0 << "%)\n";
      failed = true;
    }
#endif
    if (failed) return 1;
    std::cerr << "perf gate: ok\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool scale = false;
  bool sweep = false;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale") scale = true;
    if (arg == "--sweep") sweep = true;
    if (arg.rfind("--baseline=", 0) == 0) baseline = arg.substr(11);
  }
  if (scale) return RunScaleProfile(sweep, baseline);

  const bool csv = WantCsv(argc, argv);

  for (auto [label, file_size, block] :
       {std::tuple{"1 MiB files, whole-file calls", units::MiB(1),
                   std::uint64_t{0}},
        std::tuple{"16 MiB files, 64 KiB calls", units::MiB(16),
                   units::KiB(64)}}) {
    MetricsRegistry registry;
    workloads::TestbedConfig config;
    config.nodes = 16;
    // This profile measures per-RPC service latency; with coalescing on, lane
    // queueing during read/write bursts would dominate every kv.* histogram
    // (that effect is ablation_batching's subject, not this one's).
    config.memfs.io.batching = false;
    config.metrics = &registry;
    workloads::Testbed bed(workloads::FsKind::kMemFs, config);

    workloads::EnvelopeParams params;
    params.nodes = 16;
    params.file_size = file_size;
    params.files_per_proc = 4;
    params.io_block = block;
    workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), params,
                                   nullptr);
    (void)bench.RunWrite();
    (void)bench.RunRead11();
    (void)bench.RunReadN1();
    (void)bench.RunCreate(32);
    (void)bench.RunOpen();

    std::cout << "# Latency profile: 16 nodes IPoIB, " << label << "\n";
    registry.Report(std::cout, csv);
    std::cout << "\n";
  }
  std::cout << "Reading: vfs.write is usually buffer-accept time (µs) while "
               "vfs.close absorbs the drain; vfs.read p50 is a cache hit "
               "(FUSE-only) and its tail is a stripe fetch; per RPC kv.get is "
               "cheaper than kv.set (the Memcached asymmetry the cost model "
               "encodes), though N-1 read bursts queue on the stripe-home "
               "servers and push the kv.get mean past it.\n";
  return 0;
}
