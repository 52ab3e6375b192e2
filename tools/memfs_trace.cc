// memfs_trace — trace one simulated workflow end to end and explain its
// makespan.
//
// Runs an MTC workflow (Montage by default) on a simulated MemFS cluster
// with the request tracer attached, then:
//   * writes the full span tree as Chrome trace_event JSON (--out=FILE,
//     loadable in chrome://tracing or ui.perfetto.dev): workflow -> task ->
//     vfs op -> stripe -> kv attempt -> network legs, grouped by node;
//   * extracts the critical path through the trace and prints the per-layer
//     attribution table — how much of the makespan was compute, stripe
//     transfer, kv service, network, retry/backoff, or queueing.
//
//   memfs_trace --nodes=8 --degree=6 --out=montage.json
//   memfs_trace --workload=blast --fragments=128 --csv
//
// Everything is deterministic: same flags -> byte-identical JSON and table.
#include <fstream>
#include <iostream>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/table.h"
#include "common/units.h"
#include "mtc/runner.h"
#include "mtc/scheduler.h"
#include "trace/critical_path.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workloads/blast.h"
#include "workloads/montage.h"
#include "workloads/testbed.h"

namespace {

using namespace memfs;  // NOLINT: binary-local brevity

constexpr const char* kHelp = R"(memfs_trace — workflow tracing + critical path

  --workload=montage|blast            what to run        [montage]
  --nodes=N                           cluster size       [8]
  --cores=N                           cores per node     [8]
  --fabric=ipoib|gbe|ec2|rdma         network preset     [ipoib]
  --degree=6|12|16                    mosaic size        [6]
  --fragments=N                       BLAST db split     [512]
  --task-scale=N                      divide task count  [64]
  --size-scale=N                      divide file sizes  [16]
  --stripe-kb=N                       stripe size        [512]
  --replication=N                     stripe copies      [1]
  --out=FILE                          Chrome trace JSON  [off]
  --top=N                             span names printed [12]
  --csv                               CSV tables
)";

workloads::Fabric ParseFabric(const std::string& name) {
  if (name == "gbe") return workloads::Fabric::kDas4GbE;
  if (name == "ec2") return workloads::Fabric::kEc2TenGbE;
  if (name == "rdma") return workloads::Fabric::kRdma;
  return workloads::Fabric::kDas4Ipoib;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help")) {
    std::cout << kHelp;
    return 0;
  }

  const std::string workload = flags.GetString("workload", "montage");
  const auto nodes = static_cast<std::uint32_t>(flags.GetUint("nodes", 8));
  const auto cores = static_cast<std::uint32_t>(flags.GetUint("cores", 8));
  const auto fabric = ParseFabric(flags.GetString("fabric", "ipoib"));
  const auto task_scale =
      static_cast<std::uint32_t>(flags.GetUint("task-scale", 64));
  const auto size_scale = flags.GetUint("size-scale", 16);
  const auto degree = static_cast<std::uint32_t>(flags.GetUint("degree", 6));
  const auto fragments =
      static_cast<std::uint32_t>(flags.GetUint("fragments", 512));
  const auto stripe_kb = flags.GetUint("stripe-kb", 512);
  const auto replication =
      static_cast<std::uint32_t>(flags.GetUint("replication", 1));
  const std::string out = flags.GetString("out", "");
  const auto top = static_cast<std::size_t>(flags.GetUint("top", 12));
  const bool csv = flags.GetBool("csv");

  for (const auto& unknown : flags.UnknownFlags()) {
    std::cerr << "unknown flag: --" << unknown << "\n" << kHelp;
    return 2;
  }

  mtc::Workflow workflow;
  if (workload == "blast") {
    workloads::BlastParams params;
    params.fragments = fragments;
    params.task_scale = task_scale;
    params.size_scale = size_scale;
    workflow = workloads::BuildBlast(params);
  } else if (workload == "montage") {
    workloads::MontageParams params;
    params.degree = degree;
    params.task_scale = task_scale;
    params.size_scale = size_scale;
    workflow = workloads::BuildMontage(params);
  } else {
    std::cerr << "unknown workload: " << workload << "\n" << kHelp;
    return 2;
  }

  MetricsRegistry metrics;
  workloads::TestbedConfig config;
  config.nodes = nodes;
  config.fabric = fabric;
  config.memfs.stripe_size = units::KiB(stripe_kb);
  config.memfs.replication = replication;
  config.metrics = &metrics;
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);

  trace::Tracer tracer(bed.simulation());
  mtc::UniformScheduler scheduler;
  mtc::RunnerConfig runner_config;
  runner_config.nodes = nodes;
  runner_config.cores_per_node = cores;
  runner_config.metrics = &metrics;
  runner_config.tracer = &tracer;
  mtc::Runner runner(bed.simulation(), bed.vfs(), scheduler, runner_config);

  const mtc::WorkflowResult result = runner.Run(workflow);
  if (!result.status.ok()) {
    std::cerr << "workflow failed: " << result.status.ToString() << "\n";
    return 1;
  }

  std::cout << "# " << workflow.name << " on " << nodes << " nodes x " << cores
            << " cores, MemFS (task_scale=" << task_scale
            << ", size_scale=" << size_scale << ")\n";
  Table summary({"tasks", "makespan (s)", "read (MB)", "written (MB)",
                 "spans", "open", "dropped"});
  summary.AddRow({Table::Int(workflow.tasks.size()),
                  Table::Num(result.MakespanSeconds(), 3),
                  Table::Num(static_cast<double>(result.bytes_read) / 1e6, 1),
                  Table::Num(static_cast<double>(result.bytes_written) / 1e6, 1),
                  Table::Int(tracer.spans_started()),
                  Table::Int(tracer.open_spans()),
                  Table::Int(tracer.dropped_spans())});
  summary.Print(std::cout, csv);

  if (!out.empty()) {
    std::ofstream file(out, std::ios::binary);
    if (!file) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 1;
    }
    trace::WriteChromeTrace(file, tracer);
    std::cout << "\nChrome trace (" << tracer.finished().size()
              << " spans) written to " << out << "\n";
  }

  const trace::CriticalPath path =
      trace::ExtractCriticalPath(tracer, result.trace_id);
  if (!path.found) {
    std::cerr << "no finished root span for trace " << result.trace_id << "\n";
    return 1;
  }
  std::cout << "\n";
  trace::PrintCriticalPath(std::cout, path, csv, top);

  // Per-server kv activity: how the client spread RPCs over the cluster and
  // where retries / breaker trips / batching concentrated.
  if (kv::KvCluster* storage = bed.storage()) {
    std::cout << "\n# per-server kv activity\n";
    Table servers({"server", "batches", "items", "ops/rpc", "retries",
                   "deadline", "breaker", "srv ops"});
    for (std::uint32_t s = 0; s < storage->server_count(); ++s) {
      const kv::KvServerClientStats& client = storage->server_stats(s);
      const kv::KvServerStats& srv = storage->server(s).stats();
      const std::uint64_t served = srv.sets + srv.adds + srv.gets +
                                   srv.appends + srv.deletes;
      servers.AddRow({Table::Int(s), Table::Int(client.batches),
                      Table::Int(client.batched_items),
                      Table::Num(client.batches == 0
                                     ? 0.0
                                     : static_cast<double>(
                                           client.batched_items) /
                                           static_cast<double>(
                                               client.batches),
                                 2),
                      Table::Int(client.retries),
                      Table::Int(client.deadline_exceeded),
                      Table::Int(client.breaker_opens), Table::Int(served)});
    }
    servers.Print(std::cout, csv);
  }
  return 0;
}
