// Ablation — op-scheduler batching on the small-file throughput envelope.
//
// §4.1 shows 1 KB-file workloads are dominated by per-RPC costs, which is
// what the libmemcached multi-op path (§3.2.2) amortizes: every message pays
// its framing and dispatch (recv syscall, worker wakeup, command parse)
// once, however many keys it carries. This harness runs the 1 KB envelope
// (write, 1-1 read, create, open) at saturation — 8 kernel-bypass (RDMA)
// nodes, 64 library-mode client procs per node (libmemfs linked directly,
// no FUSE interposition, so the client stack is not the bottleneck being
// measured) — with coalescing on and off, and reports the RPC counts the
// cluster actually saw, the achieved coalescing (ops per RPC), and the phase
// makespans. A second sweep varies the per-batch item ceiling to show where
// the amortization saturates.
//
// Coalescing here is pure backpressure: the drain loop holds at most
// `window` batches in flight per (client, server) lane, so whatever queues
// up behind a saturated server rides the next batch. Every op rides a batch
// RPC, so "off" is one item per batch (max_batch_ops = 1) with a window too
// wide to ever block: one RPC per op, issued as soon as the op is, with no
// lane backpressure.
#include <cstdint>
#include <iostream>
#include <limits>

#include "bench_common.h"
#include "kvstore/kv_cluster.h"

using namespace memfs;         // NOLINT
using namespace memfs::bench;  // NOLINT

namespace {

struct BatchingCell {
  double write_s = 0;
  double read_s = 0;
  double create_s = 0;
  double open_s = 0;
  std::uint64_t rpcs = 0;  // batch attempts on the wire
  std::uint64_t ops = 0;   // kv operations those RPCs carried
  std::uint64_t max_batch = 0;

  double Total() const { return write_s + read_s + create_s + open_s; }
  double OpsPerRpc() const {
    return rpcs == 0 ? 0.0
                     : static_cast<double>(ops) / static_cast<double>(rpcs);
  }
};

BatchingCell RunCell(const io::IoConfig& io_config) {
  workloads::TestbedConfig config;
  config.nodes = 8;
  config.fabric = workloads::Fabric::kRdma;
  config.memfs.io = io_config;
  config.memfs.fuse.enabled = false;  // library-mode clients
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);

  workloads::EnvelopeParams env;
  env.nodes = 8;
  env.procs_per_node = 64;
  env.file_size = units::KiB(1);
  env.files_per_proc = 8;
  workloads::EnvelopeBench bench(bed.simulation(), bed.vfs(), env, nullptr);

  BatchingCell cell;
  cell.write_s = units::ToSeconds(bench.RunWrite().span);
  cell.read_s = units::ToSeconds(bench.RunRead11().span);
  cell.create_s = units::ToSeconds(bench.RunCreate(16).span);
  cell.open_s = units::ToSeconds(bench.RunOpen().span);

  const kv::KvCluster& storage = *bed.storage();
  for (std::uint32_t s = 0; s < storage.server_count(); ++s) {
    const kv::KvServerClientStats& stats = storage.server_stats(s);
    cell.rpcs += stats.batches;
    cell.ops += stats.batched_items;
  }
  cell.max_batch = bed.memfs()->scheduler().stats().max_batch;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = WantCsv(argc, argv);

  std::cout << "# Ablation: op batching (8 RDMA nodes, 1 KiB files, "
               "64 library-mode procs/node, 8 files/proc + 16 meta "
               "files/proc)\n";
  Table onoff({"batching", "kv RPCs", "ops/RPC", "max batch", "write (s)",
               "read (s)", "create (s)", "open (s)", "total (s)"});
  io::IoConfig off;
  off.max_batch_ops = 1;
  off.window = std::numeric_limits<std::uint32_t>::max();
  const BatchingCell base = RunCell(off);
  const BatchingCell batched = RunCell(io::IoConfig{});
  for (const auto& [name, cell] :
       {std::pair<const char*, const BatchingCell&>{"off", base},
        std::pair<const char*, const BatchingCell&>{"on", batched}}) {
    onoff.AddRow({name, Table::Int(cell.rpcs), Table::Num(cell.OpsPerRpc(), 2),
                  Table::Int(cell.max_batch), Table::Num(cell.write_s, 4),
                  Table::Num(cell.read_s, 4), Table::Num(cell.create_s, 4),
                  Table::Num(cell.open_s, 4), Table::Num(cell.Total(), 4)});
  }
  onoff.Print(std::cout, csv);
  const double reduction =
      batched.rpcs == 0 ? 0.0
                        : static_cast<double>(base.rpcs) /
                              static_cast<double>(batched.rpcs);
  std::cout << "\nRPC reduction: " << Table::Num(reduction, 2)
            << "x; makespan " << Table::Num(base.Total(), 4) << "s -> "
            << Table::Num(batched.Total(), 4) << "s\n";

  std::cout << "\n# Ablation: per-batch item ceiling (batching on)\n";
  Table ceiling({"max_batch_ops", "kv RPCs", "ops/RPC", "write (s)",
                 "total (s)"});
  for (std::uint32_t ops : {1u, 2u, 4u, 8u, 16u, 32u}) {
    io::IoConfig io_config;
    io_config.max_batch_ops = ops;
    const BatchingCell cell = RunCell(io_config);
    ceiling.AddRow({Table::Int(ops), Table::Int(cell.rpcs),
                    Table::Num(cell.OpsPerRpc(), 2),
                    Table::Num(cell.write_s, 4), Table::Num(cell.Total(), 4)});
  }
  ceiling.Print(std::cout, csv);
  std::cout << "\nReading: with servers saturated, every lane's queue rides "
               "the next batch, so the RPC count collapses with the first "
               "few items of ceiling and the makespan tracks the amortized "
               "per-item dispatch cost; past the typical queue depth a "
               "larger ceiling changes nothing.\n";
  return 0;
}
