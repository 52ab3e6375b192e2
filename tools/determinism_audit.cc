// Determinism audit: double-runs a faulted MemFS workload and asserts the
// two event streams are bit-identical.
//
// Each run builds an 8-node cluster (replication 2), schedules a seeded
// fault schedule (crashes with wipe-on-restart, slow-server episodes, lossy
// links) through the FaultInjector, writes and reads back a batch of files,
// and reports Simulation::EventDigest() — an order-sensitive FNV-1a hash
// over every processed event's (time, sequence) pair. Runs with the same
// seed must produce identical digests; a differing digest means some
// nondeterminism (unseeded randomness, wall-clock time, pointer-keyed
// iteration) leaked into the event stream. A different seed must change the
// digest, proving the digest actually covers the fault schedule.
//
// A SimChecker rides along on every run: lost wakeups, leaked tasks or
// semaphore over-releases in the recovery machinery fail the audit too.
//
// Exit status: 0 on pass, 1 on any mismatch or checker finding. Registered
// as the `determinism_audit` ctest.
#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "kvstore/migrator.h"
#include "memfs/memfs.h"
#include "meta/client.h"
#include "meta/meta.h"
#include "net/fluid_network.h"
#include "sim/checker.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace memfs {
namespace {

using units::KiB;
using units::Millis;

constexpr std::uint32_t kNodes = 8;
constexpr std::uint32_t kFiles = 16;

// The append-log arm must reproduce the pre-sharding event stream byte for
// byte: this is the seed-7 batched digest measured before src/meta landed.
// A drift here means the legacy namespace path changed behaviour.
constexpr std::uint64_t kAppendLogSeed7Digest = 0xe7fb33e5d1e88e63ull;

sim::Task WriteFile(sim::Simulation& sim, fs::Vfs& vfs, sim::SimTime start,
                    std::uint32_t node, std::string path, std::uint64_t seed,
                    std::uint8_t& ok) {
  co_await sim.Delay(start);
  fs::VfsContext ctx{node, 0};
  auto created = co_await vfs.Create(ctx, path);
  if (!created.ok()) co_return;
  const Status wrote = co_await vfs.Write(ctx, created.value(),
                                          Bytes::Synthetic(KiB(256), seed));
  const Status closed = co_await vfs.Close(ctx, created.value());
  ok = wrote.ok() && closed.ok();
}

sim::Task ReadFile(fs::Vfs& vfs, std::uint32_t node, std::string path,
                   std::uint64_t seed, std::uint8_t& intact) {
  fs::VfsContext ctx{node, 0};
  auto opened = co_await vfs.Open(ctx, path);
  if (!opened.ok()) co_return;
  Bytes out;
  while (true) {
    auto chunk = co_await vfs.Read(ctx, opened.value(), out.size(), KiB(256));
    if (!chunk.ok()) co_return;
    if (chunk->empty()) break;
    out.Append(*chunk);
  }
  // lint: allow(ignored-status) read handle teardown cannot fail usefully
  co_await vfs.Close(ctx, opened.value());
  intact = out.ContentEquals(Bytes::Synthetic(KiB(256), seed));
}

struct AuditRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint32_t writes_ok = 0;
  std::uint32_t reads_intact = 0;
  std::uint64_t fault_events = 0;
  bool elastic_ok = true;  // join + drain committed (elastic runs only)
  std::uint32_t pending_intents = 0;   // sharded runs: intents left unrolled
  std::uint64_t listed_entries = 0;    // sharded runs: paged-readdir sweep
  std::string checker_summary;  // empty when the checker is clean
};

// --- Sharded-metadata churn (the src/meta determinism gate) ---------------

sim::Task RunChurnSetup(fs::Vfs& vfs, std::uint8_t& ok) {
  fs::VfsContext ctx{0, 0};
  const Status src = co_await vfs.Mkdir(ctx, "/src");
  const Status dst = co_await vfs.Mkdir(ctx, "/dst");
  ok = src.ok() && dst.ok();
}

// One unit of namespace churn: create + write + seal a file, then (by
// index) a cross-directory rename, a hard link, or an unlink — all racing
// the fault schedule. Failures are part of the audited behaviour.
sim::Task RunChurnOp(sim::Simulation& sim, fs::Vfs& vfs, sim::SimTime start,
                     std::uint32_t node, std::uint32_t index,
                     std::uint8_t& ok) {
  co_await sim.Delay(start);
  fs::VfsContext ctx{node, 0};
  const std::string src = "/src/f" + std::to_string(index);
  auto created = co_await vfs.Create(ctx, src);
  if (!created.ok()) co_return;
  const Status wrote = co_await vfs.Write(ctx, created.value(),
                                          Bytes::Synthetic(KiB(64), 7000 + index));
  const Status closed = co_await vfs.Close(ctx, created.value());
  if (!wrote.ok() || !closed.ok()) co_return;
  Status churned = Status::Ok();
  if (index % 2 == 0) {
    churned = co_await vfs.Rename(ctx, src, "/dst/g" + std::to_string(index));
  } else if (index % 3 == 0) {
    churned = co_await vfs.Link(ctx, src, "/src/l" + std::to_string(index));
  } else if (index % 5 == 0) {
    churned = co_await vfs.Unlink(ctx, src);
  }
  ok = churned.ok();
}

// Rolls surviving rename intents forward once the cluster is healthy again.
sim::Task RunShardedRecovery(meta::Client& client, std::uint32_t& pending) {
  std::uint32_t rounds = 0;
  while (client.pending_intents() > 0 && rounds < 16) {
    // lint: allow(ignored-status) unrecovered intents are retried next round
    (void)co_await client.RecoverPending(0, {});
    ++rounds;
  }
  pending = client.pending_intents();
}

// Paged enumeration sweep: deterministic read traffic over every index blob.
sim::Task RunPagedSweep(fs::Vfs& vfs, std::string dir, std::uint32_t node,
                        std::uint64_t& count) {
  fs::VfsContext ctx{node, 0};
  fs::DirCursor cursor;
  while (true) {
    auto page = co_await vfs.ReadDirPage(ctx, dir, cursor, 16);
    if (!page.ok()) co_return;
    count += page->entries.size();
    if (!page->more) break;
    cursor = page->next;
  }
}

// Faulted namespace churn on the token-range-sharded metadata service:
// creates, cross-directory renames, hard links and unlinks race seeded
// crash / slow / loss windows; recovery then drains every rename intent and
// a paged enumeration sweeps both directories. Crashes keep RAM across the
// restart (process crash) so the bounded recovery loop must always converge
// to zero pending intents — the crash-safety gate rides along with the
// determinism gate.
AuditRun RunShardedOnce(std::uint64_t seed) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  net::FairShareNetwork network(sim, net::Das4Ipoib(kNodes));

  kv::KvClientPolicy policy;
  policy.retry.max_attempts = 5;
  policy.op_deadline = Millis(20);

  std::vector<net::NodeId> server_nodes;
  for (std::uint32_t n = 0; n < kNodes; ++n) server_nodes.push_back(n);
  kv::KvCluster storage(sim, network, std::move(server_nodes),
                        kv::KvServerConfig{}, kv::KvOpCostModel{}, nullptr,
                        policy);
  fs::MemFsConfig config;
  config.replication = 2;
  config.metadata = meta::MetadataMode::kSharded;
  fs::MemFs memfs(sim, network, storage, config);

  sim::FaultHooks hooks;
  hooks.set_server_down = [&storage](std::uint32_t server, bool down,
                                     bool wipe) {
    storage.SetServerDown(server, down, wipe);
  };
  hooks.set_server_slowdown = [&storage](std::uint32_t server, double factor) {
    storage.SetServerSlowdown(server, factor);
  };
  hooks.set_link_fault = [&network](std::uint32_t src, std::uint32_t dst,
                                    double loss, sim::SimTime extra) {
    network.SetLinkFault(src, dst, {loss, extra});
  };
  hooks.clear_link_fault = [&network](std::uint32_t src, std::uint32_t dst) {
    network.ClearLinkFault(src, dst);
  };
  sim::FaultInjector injector(sim, std::move(hooks));

  sim::FaultScheduleConfig schedule;
  schedule.seed = seed;
  schedule.servers = kNodes;
  schedule.nodes = kNodes;
  schedule.horizon = Millis(48);
  schedule.crashes = 2;
  schedule.slow_episodes = 1;
  schedule.link_faults = 1;
  schedule.wipe_on_restart = false;  // RAM survives; recovery must converge
  injector.ScheduleAll(sim::GenerateFaultSchedule(schedule));

  std::uint8_t setup_ok = 0;
  // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
  RunChurnSetup(memfs, setup_ok);
  std::vector<std::uint8_t> churn_ok(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
    RunChurnOp(sim, memfs, Millis(1) + Millis(3) * i, i % kNodes, i,
               churn_ok[i]);
  }
  sim.Run();

  AuditRun run;
  std::uint32_t pending = ~0u;
  // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
  RunShardedRecovery(*memfs.meta_client(), pending);
  sim.Run();
  run.pending_intents = pending;

  // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
  RunPagedSweep(memfs, "/src", 0, run.listed_entries);
  // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
  RunPagedSweep(memfs, "/dst", 1, run.listed_entries);
  sim.Run();

  run.digest = sim.EventDigest();
  run.events = sim.events_processed();
  run.fault_events = injector.stats().total_events();
  run.writes_ok = setup_ok;
  for (std::uint32_t i = 0; i < kFiles; ++i) run.reads_intact += churn_ok[i];
  checker.Finish();
  run.checker_summary = checker.Summary();
  return run;
}

// Drives one elastic scale-out + scale-in episode mid-traffic: join a 9th
// server, rebalance, then drain server `drain_server` and rebalance again. A
// non-converging sweep budget leaves the transition open; the driver re-runs
// the migrator (resume is idempotent) until it commits.
sim::Task RunElasticDriver(sim::Simulation& sim, kv::Membership& membership,
                           kv::Migrator& migrator, std::uint32_t join_node,
                           std::uint32_t drain_server, std::uint8_t& ok) {
  co_await sim.Delay(Millis(10));
  membership.BeginJoin(join_node);
  std::uint32_t runs = 0;
  while (membership.migrating() && runs < 10) {
    // lint: allow(ignored-status) non-converged runs are resumed below
    (void)co_await migrator.Rebalance();
    ++runs;
  }
  co_await sim.Delay(Millis(8));
  membership.BeginDrain(drain_server);
  runs = 0;
  while (membership.migrating() && runs < 10) {
    // lint: allow(ignored-status) non-converged runs are resumed below
    (void)co_await migrator.Rebalance();
    ++runs;
  }
  ok = !membership.migrating() &&
       membership.state(drain_server) == kv::NodeState::kLeft;
}

AuditRun RunOnce(std::uint64_t seed) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  net::FairShareNetwork network(sim, net::Das4Ipoib(kNodes));

  kv::KvClientPolicy policy;
  policy.retry.max_attempts = 5;
  policy.op_deadline = Millis(20);

  std::vector<net::NodeId> server_nodes;
  for (std::uint32_t n = 0; n < kNodes; ++n) server_nodes.push_back(n);
  kv::KvCluster storage(sim, network, std::move(server_nodes),
                        kv::KvServerConfig{}, kv::KvOpCostModel{}, nullptr,
                        policy);
  fs::MemFsConfig config;
  config.replication = 2;
  fs::MemFs memfs(sim, network, storage, config);

  sim::FaultHooks hooks;
  hooks.set_server_down = [&storage](std::uint32_t server, bool down,
                                     bool wipe) {
    storage.SetServerDown(server, down, wipe);
  };
  hooks.set_server_slowdown = [&storage](std::uint32_t server, double factor) {
    storage.SetServerSlowdown(server, factor);
  };
  hooks.set_link_fault = [&network](std::uint32_t src, std::uint32_t dst,
                                    double loss, sim::SimTime extra) {
    network.SetLinkFault(src, dst, {loss, extra});
  };
  hooks.clear_link_fault = [&network](std::uint32_t src, std::uint32_t dst) {
    network.ClearLinkFault(src, dst);
  };
  sim::FaultInjector injector(sim, std::move(hooks));

  sim::FaultScheduleConfig schedule;
  schedule.seed = seed;
  schedule.servers = kNodes;
  schedule.nodes = kNodes;
  schedule.horizon = Millis(48);
  schedule.crashes = 2;
  schedule.slow_episodes = 1;
  schedule.link_faults = 1;
  injector.ScheduleAll(sim::GenerateFaultSchedule(schedule));

  std::vector<std::uint8_t> write_ok(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
    WriteFile(sim, memfs, Millis(3) * i, i % kNodes,
              "/audit_" + std::to_string(i), 9000 + i, write_ok[i]);
  }
  sim.Run();

  std::vector<std::uint8_t> intact(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
    ReadFile(memfs, i % kNodes, "/audit_" + std::to_string(i), 9000 + i,
             intact[i]);
  }
  sim.Run();

  AuditRun run;
  run.digest = sim.EventDigest();
  run.events = sim.events_processed();
  run.fault_events = injector.stats().total_events();
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    run.writes_ok += write_ok[i];
    run.reads_intact += intact[i];
  }
  checker.Finish();
  run.checker_summary = checker.Summary();
  return run;
}

// Faulted workload with one server join and one server drain mid-traffic:
// the elastic determinism gate. The membership ring swap, the handoff gate's
// wakeup order, and every migrator batch ride the same event stream as the
// foreground I/O, so any nondeterminism in the rebalancing machinery shows
// up as a digest mismatch here.
AuditRun RunElasticOnce(std::uint64_t seed) {
  sim::Simulation sim;
  sim::SimChecker checker(sim);
  // One standby node (index kNodes) hosts the joining server.
  net::FairShareNetwork network(sim, net::Das4Ipoib(kNodes + 1));

  kv::KvClientPolicy policy;
  policy.retry.max_attempts = 5;
  policy.op_deadline = Millis(20);

  std::vector<net::NodeId> server_nodes;
  for (std::uint32_t n = 0; n < kNodes; ++n) server_nodes.push_back(n);
  kv::KvCluster storage(sim, network, std::move(server_nodes),
                        kv::KvServerConfig{}, kv::KvOpCostModel{}, nullptr,
                        policy);
  fs::MemFsConfig config;
  config.replication = 2;
  config.use_ketama = true;
  fs::MemFs memfs(sim, network, storage, config);

  kv::MembershipConfig member_config;
  member_config.replication = config.replication;
  kv::Membership membership(sim, storage, member_config);
  kv::Migrator migrator(sim, membership);
  memfs.AttachMembership(&membership);

  sim::FaultHooks hooks;
  hooks.set_server_down = [&storage](std::uint32_t server, bool down,
                                     bool wipe) {
    storage.SetServerDown(server, down, wipe);
  };
  hooks.set_server_slowdown = [&storage](std::uint32_t server, double factor) {
    storage.SetServerSlowdown(server, factor);
  };
  hooks.set_link_fault = [&network](std::uint32_t src, std::uint32_t dst,
                                    double loss, sim::SimTime extra) {
    network.SetLinkFault(src, dst, {loss, extra});
  };
  hooks.clear_link_fault = [&network](std::uint32_t src, std::uint32_t dst) {
    network.ClearLinkFault(src, dst);
  };
  sim::FaultInjector injector(sim, std::move(hooks));

  sim::FaultScheduleConfig schedule;
  schedule.seed = seed;
  schedule.servers = kNodes;  // faults never target the joining server
  schedule.nodes = kNodes;
  schedule.horizon = Millis(48);
  schedule.crashes = 2;
  schedule.slow_episodes = 1;
  schedule.link_faults = 1;
  injector.ScheduleAll(sim::GenerateFaultSchedule(schedule));

  std::vector<std::uint8_t> write_ok(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
    WriteFile(sim, memfs, Millis(3) * i, i % kNodes,
              "/audit_" + std::to_string(i), 9000 + i, write_ok[i]);
  }
  std::uint8_t elastic_ok = 0;
  // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
  RunElasticDriver(sim, membership, migrator, /*join_node=*/kNodes,
                   /*drain_server=*/2, elastic_ok);
  sim.Run();

  std::vector<std::uint8_t> intact(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    // lint: allow(ignored-status) fire-and-forget sim::Task, not a Status
    ReadFile(memfs, i % kNodes, "/audit_" + std::to_string(i), 9000 + i,
             intact[i]);
  }
  sim.Run();

  AuditRun run;
  run.digest = sim.EventDigest();
  run.events = sim.events_processed();
  run.fault_events = injector.stats().total_events();
  run.elastic_ok = elastic_ok != 0;
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    run.writes_ok += write_ok[i];
    run.reads_intact += intact[i];
  }
  checker.Finish();
  run.checker_summary = checker.Summary();
  return run;
}

}  // namespace
}  // namespace memfs

int main() {
  // The batched data path (every kv op rides a batch): self-deterministic,
  // pinned for seed 7, and seed diversity must show through.
  const auto first = memfs::RunOnce(7);
  const auto second = memfs::RunOnce(7);
  const auto other = memfs::RunOnce(8);
  // Elastic gate: the same faulted workload with a join + drain mid-traffic.
  const auto elastic1 = memfs::RunElasticOnce(7);
  const auto elastic2 = memfs::RunElasticOnce(7);
  const auto elastic3 = memfs::RunElasticOnce(8);
  // Sharded-metadata gate: faulted rename / link / unlink churn plus
  // intent recovery and a paged enumeration sweep.
  const auto sharded1 = memfs::RunShardedOnce(7);
  const auto sharded2 = memfs::RunShardedOnce(7);
  const auto sharded3 = memfs::RunShardedOnce(8);

  std::printf("run 1 (seed 7, batched): digest=%016llx events=%llu "
              "faults=%llu writes_ok=%u reads_intact=%u\n",
              static_cast<unsigned long long>(first.digest),
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.fault_events),
              first.writes_ok, first.reads_intact);
  std::printf("run 2 (seed 7, batched): digest=%016llx events=%llu\n",
              static_cast<unsigned long long>(second.digest),
              static_cast<unsigned long long>(second.events));
  std::printf("run 3 (seed 8, batched): digest=%016llx events=%llu\n",
              static_cast<unsigned long long>(other.digest),
              static_cast<unsigned long long>(other.events));
  std::printf("run 4 (seed 7, elastic): digest=%016llx events=%llu "
              "faults=%llu writes_ok=%u reads_intact=%u committed=%d\n",
              static_cast<unsigned long long>(elastic1.digest),
              static_cast<unsigned long long>(elastic1.events),
              static_cast<unsigned long long>(elastic1.fault_events),
              elastic1.writes_ok, elastic1.reads_intact,
              elastic1.elastic_ok ? 1 : 0);
  std::printf("run 5 (seed 7, elastic): digest=%016llx events=%llu\n",
              static_cast<unsigned long long>(elastic2.digest),
              static_cast<unsigned long long>(elastic2.events));
  std::printf("run 6 (seed 8, elastic): digest=%016llx events=%llu\n",
              static_cast<unsigned long long>(elastic3.digest),
              static_cast<unsigned long long>(elastic3.events));
  std::printf("run 7 (seed 7, sharded): digest=%016llx events=%llu "
              "faults=%llu ops_ok=%u pending=%u listed=%llu\n",
              static_cast<unsigned long long>(sharded1.digest),
              static_cast<unsigned long long>(sharded1.events),
              static_cast<unsigned long long>(sharded1.fault_events),
              sharded1.reads_intact, sharded1.pending_intents,
              static_cast<unsigned long long>(sharded1.listed_entries));
  std::printf("run 8 (seed 7, sharded): digest=%016llx events=%llu\n",
              static_cast<unsigned long long>(sharded2.digest),
              static_cast<unsigned long long>(sharded2.events));
  std::printf("run 9 (seed 8, sharded): digest=%016llx events=%llu\n",
              static_cast<unsigned long long>(sharded3.digest),
              static_cast<unsigned long long>(sharded3.events));

  bool failed = false;
  if (first.digest != memfs::kAppendLogSeed7Digest) {
    std::fprintf(stderr,
                 "FAIL: append_log digest drifted from the pinned "
                 "pre-sharding baseline %016llx — the legacy namespace path "
                 "changed behaviour\n",
                 static_cast<unsigned long long>(
                     memfs::kAppendLogSeed7Digest));
    failed = true;
  }
  if (first.digest != second.digest) {
    std::fprintf(stderr,
                 "FAIL: same-seed batched runs diverged — nondeterminism in "
                 "the event stream\n");
    failed = true;
  }
  if (first.digest == other.digest) {
    std::fprintf(stderr,
                 "FAIL: different fault seeds produced identical digests — "
                 "the digest does not cover the schedule\n");
    failed = true;
  }
  if (elastic1.digest != elastic2.digest) {
    std::fprintf(stderr,
                 "FAIL: same-seed elastic runs diverged — nondeterminism in "
                 "the membership / migration machinery\n");
    failed = true;
  }
  if (elastic1.digest == elastic3.digest) {
    std::fprintf(stderr,
                 "FAIL: different fault seeds produced identical elastic "
                 "digests — the digest does not cover the schedule\n");
    failed = true;
  }
  for (const auto* run : {&elastic1, &elastic2, &elastic3}) {
    if (!run->elastic_ok) {
      std::fprintf(stderr,
                   "FAIL: an elastic run did not commit join + drain (the "
                   "migrator never converged)\n");
      failed = true;
      break;
    }
  }
  if (sharded1.digest != sharded2.digest) {
    std::fprintf(stderr,
                 "FAIL: same-seed sharded runs diverged — nondeterminism in "
                 "the metadata service\n");
    failed = true;
  }
  if (sharded1.digest == sharded3.digest) {
    std::fprintf(stderr,
                 "FAIL: different fault seeds produced identical sharded "
                 "digests — the digest does not cover the schedule\n");
    failed = true;
  }
  for (const auto* run : {&sharded1, &sharded2, &sharded3}) {
    if (run->writes_ok == 0) {
      std::fprintf(stderr, "FAIL: a sharded run could not build /src + /dst\n");
      failed = true;
      break;
    }
  }
  for (const auto* run : {&sharded1, &sharded2, &sharded3}) {
    if (run->pending_intents != 0) {
      std::fprintf(stderr,
                   "FAIL: a sharded run left %u rename intents unrolled — "
                   "crash recovery did not converge\n",
                   run->pending_intents);
      failed = true;
      break;
    }
  }
  for (const auto* run : {&first, &second, &other, &elastic1, &elastic2,
                          &elastic3, &sharded1, &sharded2, &sharded3}) {
    if (!run->checker_summary.empty()) {
      std::fprintf(stderr, "FAIL: SimChecker findings:\n%s",
                   run->checker_summary.c_str());
      failed = true;
    }
  }
  if (!failed) std::printf("determinism audit OK\n");
  return failed ? 1 : 0;
}
