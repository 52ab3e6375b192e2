// montage_wf — closed loop. The paper's headline workload: a Montage 12x12
// DAG (BuildMontage, size_scale 16, task_scale 4) with seeded jitter on task
// CPU time and output sizes, run by mtc::Runner on 64 DAS4-IPoIB nodes x 8
// cores against the paper's default MemFS (append_log metadata, batching
// on). Each core takes a new task only when its last one finishes.
//
// Thousands of concurrent stripe flows make this the heaviest load on the
// event loop, the fluid solver, the mtc scheduler and the MemFS write-buffer
// and prefetch path; it does almost no rename or readdir.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "harness.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "probe_vfs.h"
#include "trace/trace.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace perfbench {
namespace {

using namespace memfs;  // NOLINT: benchmark-local brevity

constexpr std::uint32_t kNodes = 64;
constexpr std::uint32_t kCores = 8;
constexpr std::uint32_t kDegree = 12;
constexpr std::uint64_t kSizeScale = 16;
constexpr std::uint32_t kTaskScale = 4;
// Task CPU time and output sizes are scaled by 1 +/- these fractions
// (uniform, per task and per output). Assumed, not measured: enough to
// change the schedule per seed while the total work stays close to the
// unjittered DAG.
constexpr double kCpuJitter = 0.2;
constexpr double kSizeJitter = 0.02;
// Ring capacity of the traced run: a traced run records about 1.3 million
// spans, and the check requires that none is dropped.
constexpr std::size_t kTraceRing = std::size_t{1} << 21;

// Distinct stripes the workflow's reads touch: every task reads each of its
// inputs whole.
std::uint64_t StripesRead(const mtc::Workflow& workflow,
                          const fs::Striper& striper) {
  std::unordered_map<std::string, std::uint64_t> sizes;
  for (const auto& task : workflow.tasks) {
    for (const auto& out : task.outputs) sizes[out.path] = out.size;
  }
  std::uint64_t stripes = 0;
  for (const auto& task : workflow.tasks) {
    for (const auto& input : task.inputs) {
      stripes += striper.StripeCount(sizes[input]);
    }
  }
  return stripes;
}

double Jitter(Rng& rng, double fraction) {
  return 1.0 + fraction * (2.0 * rng.NextDouble() - 1.0);
}

class MontageWf final : public Workload {
 public:
  explicit MontageWf(std::uint64_t seed) : seed_(seed) {}

  Rep RunOnce(const RepConfig& config) override;

 private:
  mtc::Workflow Build() const {
    workloads::MontageParams params;
    params.degree = kDegree;
    params.size_scale = kSizeScale;
    params.task_scale = kTaskScale;
    mtc::Workflow workflow = workloads::BuildMontage(params);
    Rng rng(seed_ ^ 0x6d6f6e7461676521ull);
    for (mtc::TaskSpec& task : workflow.tasks) {
      task.cpu_time = static_cast<sim::SimTime>(
          static_cast<double>(task.cpu_time) * Jitter(rng, kCpuJitter));
      for (mtc::OutputSpec& out : task.outputs) {
        out.size = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(out.size) *
                                          Jitter(rng, kSizeJitter)));
      }
    }
    return workflow;
  }

  std::uint64_t seed_;
};

Rep MontageWf::RunOnce(const RepConfig& config) {
  Rep rep;
  SimOutcome& out = rep.sim;

  const double setup_start = HostCpuNow();
  const mtc::Workflow workflow = Build();
  workloads::TestbedConfig tb;
  tb.nodes = kNodes;
  tb.fabric = workloads::Fabric::kDas4Ipoib;
  workloads::Testbed bed(workloads::FsKind::kMemFs, tb);
  rep.setup_s = HostCpuNow() - setup_start;

  sim::Simulation& sim = bed.simulation();
  trace::Tracer tracer(sim, trace::TracerConfig{kTraceRing});
  ProbeVfs probe(sim, bed.vfs(), out);
  mtc::UniformScheduler scheduler;
  mtc::RunnerConfig rc;
  rc.nodes = kNodes;
  rc.cores_per_node = kCores;
  rc.verify_reads = true;
  if (config.traced) rc.tracer = &tracer;

  const Counters before = Counters::Take(bed);
  const std::uint64_t allocs_before = HeapAllocs();
  const double run_start = HostCpuNow();
  mtc::Runner runner(sim, probe, scheduler, rc);
  const mtc::WorkflowResult result = runner.Run(workflow);
  rep.host_s = HostCpuNow() - run_start;
  rep.allocs = HeapAllocs() - allocs_before;
  const Counters delta = Counters::Take(bed).Minus(before);

  out.digest = sim.EventDigest();
  out.events = delta.events;
  out.makespan_s = result.MakespanSeconds();
  out.attempted = probe.calls();
  out.requests = out.read.count() + out.write.count();
  if (!result.status.ok()) {
    out.Fail("workflow task " + result.failed_task + ": " +
             result.status.ToString());
  }
  std::uint64_t tasks_run = 0;
  sim::SimTime busy = 0;
  for (const auto& stage : result.stages) {
    tasks_run += stage.tasks;
    busy += stage.busy;
  }
  if (tasks_run != workflow.tasks.size()) {
    out.Fail("ran " + std::to_string(tasks_run) + " of " +
             std::to_string(workflow.tasks.size()) + " tasks");
  }
  out.notes.push_back({"tasks", std::to_string(workflow.tasks.size())});
  out.notes.push_back(
      {"runtime data MB",
       std::to_string(workflow.TotalOutputBytes() / units::MB(1))});

  FillCommonMetrics(bed, delta, workflow.TotalOutputBytes(),
                    StripesRead(workflow, bed.memfs()->striper()), out);
  out.layer["meta.dentry_skew"] = 0.0;  // append_log: no token-range shards
  out.layer["mtc.core_util"] =
      static_cast<double>(busy) /
      (static_cast<double>(kNodes * kCores) *
       static_cast<double>(std::max<sim::SimTime>(
           result.finished - result.started, 1)));

  if (config.traced) {
    rep.paths.Add(tracer, {result.trace_id});
    rep.spans = tracer.spans_started();
    rep.dropped_spans = tracer.dropped_spans();
    FillPathMetrics(rep.paths, out);
    const double window =
        static_cast<double>(std::max<sim::SimTime>(rep.paths.window, 1));
    sim::SimTime io = 0;
    for (const char* layer : {"vfs", "striper", "replica", "kv", "kv.attempt",
                              "kv.service", "queue", "net", "meta"}) {
      io += rep.paths.Category(layer);
    }
    out.layer["mtc.compute_share"] =
        static_cast<double>(rep.paths.Category("compute")) / window;
    out.layer["mtc.io_share"] = static_cast<double>(io) / window;
  }

  if (config.verify) {
    // Every output, including the never-read final mosaic, must exist with
    // the size its task wrote.
    std::vector<std::pair<std::string, std::uint64_t>> expected;
    for (const auto& task : workflow.tasks) {
      for (const auto& output : task.outputs) {
        expected.emplace_back(output.path, output.size);
      }
    }
    VerifySizes(bed, expected, kNodes, out);
  }
  return rep;
}

}  // namespace

std::unique_ptr<Workload> MakeMontage(std::uint64_t seed) {
  return std::make_unique<MontageWf>(seed);
}

}  // namespace perfbench
