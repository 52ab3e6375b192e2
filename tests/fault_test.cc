// Tests for the deterministic fault-injection engine and the client-side
// retry/deadline/circuit-breaker layer: injector composition semantics,
// schedule determinism, message loss, slow servers vs op deadlines,
// wipe-on-restart, and a chaos soak that runs an Envelope-style workload
// through a seeded schedule of crashes and slowdowns with zero data loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/membership.h"
#include "kvstore/migrator.h"
#include "memfs/memfs.h"
#include "net/fluid_network.h"
#include "sim/fault.h"
#include "test_util.h"
#include "workloads/testbed.h"

namespace memfs {
namespace {

using memfs::testing::Await;
using units::KiB;
using units::MiB;
using units::Millis;

// --- FaultInjector semantics (hooks recorded, no cluster involved) -------

struct HookLog {
  struct DownCall {
    sim::SimTime at;
    std::uint32_t server;
    bool down;
    bool wipe;
  };
  struct SlowCall {
    sim::SimTime at;
    std::uint32_t server;
    double factor;
  };
  std::vector<DownCall> down;
  std::vector<SlowCall> slow;
  std::vector<std::pair<double, sim::SimTime>> link_set;
  std::uint32_t link_clears = 0;
};

sim::FaultHooks RecordingHooks(sim::Simulation& sim, HookLog& log) {
  sim::FaultHooks hooks;
  hooks.set_server_down = [&sim, &log](std::uint32_t server, bool down,
                                       bool wipe) {
    log.down.push_back({sim.now(), server, down, wipe});
  };
  hooks.set_server_slowdown = [&sim, &log](std::uint32_t server,
                                           double factor) {
    log.slow.push_back({sim.now(), server, factor});
  };
  hooks.set_link_fault = [&log](std::uint32_t, std::uint32_t, double loss,
                                sim::SimTime extra) {
    log.link_set.emplace_back(loss, extra);
  };
  hooks.clear_link_fault = [&log](std::uint32_t, std::uint32_t) {
    ++log.link_clears;
  };
  return hooks;
}

TEST(FaultInjectorTest, AppliesAndRevertsOnSchedule) {
  sim::Simulation sim;
  HookLog log;
  sim::FaultInjector injector(sim, RecordingHooks(sim, log));

  sim::FaultEvent crash;
  crash.kind = sim::FaultKind::kServerCrash;
  crash.start = Millis(10);
  crash.duration = Millis(5);
  crash.server = 2;
  crash.wipe_on_restart = true;

  sim::FaultEvent slow;
  slow.kind = sim::FaultKind::kServerSlow;
  slow.start = Millis(20);
  slow.duration = Millis(4);
  slow.server = 1;
  slow.slow_factor = 8.0;

  sim::FaultEvent link;
  link.kind = sim::FaultKind::kLinkFault;
  link.start = Millis(30);
  link.duration = Millis(2);
  link.src = 0;
  link.dst = 3;
  link.loss_prob = 0.5;
  link.extra_latency = Millis(1);

  injector.ScheduleAll({crash, slow, link});
  EXPECT_EQ(injector.horizon(), Millis(32));
  sim.Run();

  ASSERT_EQ(log.down.size(), 2u);
  EXPECT_EQ(log.down[0].at, Millis(10));
  EXPECT_TRUE(log.down[0].down);
  EXPECT_FALSE(log.down[0].wipe);
  EXPECT_EQ(log.down[1].at, Millis(15));
  EXPECT_FALSE(log.down[1].down);
  EXPECT_TRUE(log.down[1].wipe);  // the wipe rides on the restart

  ASSERT_EQ(log.slow.size(), 2u);
  EXPECT_EQ(log.slow[0].factor, 8.0);
  EXPECT_EQ(log.slow[1].factor, 1.0);

  ASSERT_EQ(log.link_set.size(), 1u);
  EXPECT_DOUBLE_EQ(log.link_set[0].first, 0.5);
  EXPECT_EQ(log.link_set[0].second, Millis(1));
  EXPECT_EQ(log.link_clears, 1u);

  const auto& stats = injector.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.wipes, 1u);
  EXPECT_EQ(stats.slow_starts, 1u);
  EXPECT_EQ(stats.slow_ends, 1u);
  EXPECT_EQ(stats.link_fault_starts, 1u);
  EXPECT_EQ(stats.link_fault_ends, 1u);
}

TEST(FaultInjectorTest, OverlappingCrashesAreRefcounted) {
  sim::Simulation sim;
  HookLog log;
  sim::FaultInjector injector(sim, RecordingHooks(sim, log));

  // [10, 30) keeps data; [15, 20) asks for a wipe. One down/up pair fires,
  // and the restart wipes because at least one overlapping episode asked.
  sim::FaultEvent a;
  a.kind = sim::FaultKind::kServerCrash;
  a.start = Millis(10);
  a.duration = Millis(20);
  a.server = 4;

  sim::FaultEvent b = a;
  b.start = Millis(15);
  b.duration = Millis(5);
  b.wipe_on_restart = true;

  injector.ScheduleAll({a, b});
  sim.Run();

  ASSERT_EQ(log.down.size(), 2u);
  EXPECT_EQ(log.down[0].at, Millis(10));
  EXPECT_TRUE(log.down[0].down);
  EXPECT_EQ(log.down[1].at, Millis(30));
  EXPECT_FALSE(log.down[1].down);
  EXPECT_TRUE(log.down[1].wipe);
  EXPECT_EQ(injector.stats().crashes, 2u);
  EXPECT_EQ(injector.stats().restarts, 1u);
  EXPECT_EQ(injector.stats().wipes, 1u);
}

TEST(FaultInjectorTest, OverlappingSlowEpisodesMultiply) {
  sim::Simulation sim;
  HookLog log;
  sim::FaultInjector injector(sim, RecordingHooks(sim, log));

  sim::FaultEvent a;
  a.kind = sim::FaultKind::kServerSlow;
  a.start = Millis(10);
  a.duration = Millis(30);
  a.server = 0;
  a.slow_factor = 2.0;

  sim::FaultEvent b = a;
  b.start = Millis(20);
  b.duration = Millis(10);
  b.slow_factor = 3.0;

  injector.ScheduleAll({a, b});
  sim.Run();

  ASSERT_EQ(log.slow.size(), 4u);
  EXPECT_DOUBLE_EQ(log.slow[0].factor, 2.0);  // a starts
  EXPECT_DOUBLE_EQ(log.slow[1].factor, 6.0);  // b stacks on a
  EXPECT_DOUBLE_EQ(log.slow[2].factor, 2.0);  // b ends
  EXPECT_DOUBLE_EQ(log.slow[3].factor, 1.0);  // a ends, healthy again
}

TEST(FaultInjectorTest, GeneratedScheduleIsDeterministicPerSeed) {
  sim::FaultScheduleConfig config;
  config.seed = 42;
  config.crashes = 4;
  config.slow_episodes = 3;
  config.link_faults = 2;

  const auto a = sim::GenerateFaultSchedule(config);
  const auto b = sim::GenerateFaultSchedule(config);
  ASSERT_EQ(a.size(), 9u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << i;
    EXPECT_EQ(a[i].server, b[i].server) << i;
    EXPECT_DOUBLE_EQ(a[i].slow_factor, b[i].slow_factor) << i;
    EXPECT_DOUBLE_EQ(a[i].loss_prob, b[i].loss_prob) << i;
    if (i > 0) {
      EXPECT_LE(a[i - 1].start, a[i].start) << "unsorted at " << i;
    }
  }

  config.seed = 43;
  const auto c = sim::GenerateFaultSchedule(config);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != c[i].start || a[i].server != c[i].server) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// --- Overlap queries (the incident flight recorder's view) ---------------

TEST(FaultOverlapTest, HalfOpenIntervalBoundaries) {
  // One crash active over [100, 200).
  sim::FaultEvent crash;
  crash.kind = sim::FaultKind::kServerCrash;
  crash.start = 100;
  crash.duration = 100;
  crash.server = 3;
  const std::vector<sim::FaultEvent> events = {crash};

  // Query ending exactly at the fault's start does not overlap...
  EXPECT_TRUE(sim::OverlappingFaults(events, 0, 100).empty());
  // ...but one that includes the first active instant does.
  EXPECT_EQ(sim::OverlappingFaults(events, 0, 101).size(), 1u);
  // Query starting exactly at the fault's end (start + duration) misses it.
  EXPECT_TRUE(sim::OverlappingFaults(events, 200, 300).empty());
  // Query starting on the last active instant catches it.
  EXPECT_EQ(sim::OverlappingFaults(events, 199, 300).size(), 1u);
  // A window fully inside the episode overlaps.
  EXPECT_EQ(sim::OverlappingFaults(events, 140, 160).size(), 1u);
  // A window enclosing the episode overlaps.
  EXPECT_EQ(sim::OverlappingFaults(events, 0, 1000).size(), 1u);
}

TEST(FaultOverlapTest, FiltersAndPreservesScheduleOrder) {
  sim::FaultEvent early;   // [0, 50)
  early.start = 0;
  early.duration = 50;
  early.server = 0;
  sim::FaultEvent mid;     // [40, 120)
  mid.kind = sim::FaultKind::kServerSlow;
  mid.start = 40;
  mid.duration = 80;
  mid.server = 1;
  sim::FaultEvent late;    // [500, 600)
  late.kind = sim::FaultKind::kLinkFault;
  late.start = 500;
  late.duration = 100;
  const std::vector<sim::FaultEvent> events = {early, mid, late};

  const auto active = sim::OverlappingFaults(events, 45, 110);
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0].server, 0u);
  EXPECT_EQ(active[1].server, 1u);
  EXPECT_TRUE(sim::OverlappingFaults(events, 120, 500).empty());
  // Empty query window [t, t) overlaps nothing.
  EXPECT_TRUE(sim::OverlappingFaults(events, 45, 45).empty());
}

TEST(FaultInjectorTest, ActiveFaultsReflectsScheduledEvents) {
  sim::Simulation sim;
  HookLog log;
  sim::FaultInjector injector(sim, RecordingHooks(sim, log));

  sim::FaultEvent crash;
  crash.kind = sim::FaultKind::kServerCrash;
  crash.start = 10;
  crash.duration = 20;  // [10, 30)
  crash.server = 2;
  sim::FaultEvent slow;
  slow.kind = sim::FaultKind::kServerSlow;
  slow.start = 25;
  slow.duration = 25;  // [25, 50)
  slow.server = 4;
  slow.slow_factor = 3.0;
  injector.ScheduleAll({crash, slow});
  sim.Run();

  ASSERT_EQ(injector.scheduled().size(), 2u);
  EXPECT_EQ(injector.ActiveFaults(0, 10).size(), 0u);
  EXPECT_EQ(injector.ActiveFaults(0, 11).size(), 1u);
  EXPECT_EQ(injector.ActiveFaults(26, 29).size(), 2u);
  EXPECT_EQ(injector.ActiveFaults(30, 50).size(), 1u);
  EXPECT_EQ(injector.ActiveFaults(50, 90).size(), 0u);
  // The query is read-only over the recorded schedule: it still answers
  // after the run, and repeated calls agree.
  EXPECT_EQ(injector.ActiveFaults(26, 29).size(), 2u);
}

// --- Client-side fault handling against a live cluster -------------------

class FaultClusterTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNodes = 4;

  void Recreate(kv::KvClientPolicy policy) {
    storage_.reset();
    network_.reset();
    sim_ = std::make_unique<sim::Simulation>();
    network_ = std::make_unique<net::FairShareNetwork>(
        *sim_, net::Das4Ipoib(kNodes));
    storage_ = std::make_unique<kv::KvCluster>(
        *sim_, *network_, std::vector<net::NodeId>{0, 1, 2, 3},
        kv::KvServerConfig{}, kv::KvOpCostModel{}, nullptr, policy);
  }

  testing::OneItemKv Kv() { return {*sim_, *storage_}; }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::FairShareNetwork> network_;
  std::unique_ptr<kv::KvCluster> storage_;
};

TEST_F(FaultClusterTest, LostRequestsTimeOutAndRetrySucceeds) {
  Recreate({});
  ASSERT_TRUE(Await(*sim_, Kv().Set(0, 1, "k", Bytes::Copy("v"))).ok());

  // Total loss on the request leg: every attempt times out client-side.
  network_->SetLinkFault(0, 1, {1.0, 0});
  auto lost = Await(*sim_, Kv().Get(0, 1, "k"));
  EXPECT_EQ(lost.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_GT(network_->dropped_messages(), 0u);
  EXPECT_GT(storage_->stats().retries, 0u);
  EXPECT_GT(storage_->stats().deadline_exceeded, 0u);

  // Healing the link heals the operation.
  network_->ClearLinkFault(0, 1);
  auto back = Await(*sim_, Kv().Get(0, 1, "k"));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(Bytes::Copy("v")));
}

TEST_F(FaultClusterTest, PartialLossIsAbsorbedByRetries) {
  kv::KvClientPolicy policy;
  policy.retry.max_attempts = 6;
  Recreate(policy);

  network_->SetLinkFault(0, 2, {0.5, 0});
  // Deterministic per seed: with six attempts per op, 32 sets through a
  // half-lossy link all land.
  for (int i = 0; i < 32; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(
        Await(*sim_, Kv().Set(0, 2, key, Bytes::Copy("v"))).ok())
        << key;
  }
  EXPECT_GT(network_->dropped_messages(), 0u);
  EXPECT_EQ(storage_->stats().retries, network_->dropped_messages());
}

TEST_F(FaultClusterTest, SlowServerTripsOpDeadline) {
  kv::KvClientPolicy policy;
  policy.op_deadline = Millis(1);
  Recreate(policy);
  ASSERT_TRUE(Await(*sim_, Kv().Set(0, 1, "k", Bytes::Copy("v"))).ok());

  storage_->SetServerSlowdown(1, 1e4);  // 5 us GET -> 50 ms, way past 1 ms
  auto slow = Await(*sim_, Kv().Get(0, 1, "k"));
  EXPECT_EQ(slow.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_GT(storage_->stats().deadline_exceeded, 0u);

  storage_->SetServerSlowdown(1, 1.0);
  EXPECT_DOUBLE_EQ(storage_->ServerSlowdown(1), 1.0);
  auto back = Await(*sim_, Kv().Get(0, 1, "k"));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(Bytes::Copy("v")));
}

TEST_F(FaultClusterTest, CircuitBreakerOpensFastFailsAndRecovers) {
  kv::KvClientPolicy policy;
  policy.retry.max_attempts = 1;  // one failure per op, for exact counting
  policy.breaker.failure_threshold = 2;
  policy.breaker.open_duration = Millis(5);
  Recreate(policy);
  ASSERT_TRUE(Await(*sim_, Kv().Set(0, 1, "k", Bytes::Copy("v"))).ok());

  storage_->SetServerDown(1, true);
  for (int i = 0; i < 2; ++i) {
    auto r = Await(*sim_, Kv().Get(0, 1, "k"));
    EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  }
  EXPECT_EQ(storage_->BreakerState(1), CircuitBreaker::State::kOpen);
  EXPECT_EQ(storage_->stats().breaker_opens, 1u);

  // While open, requests are rejected instantly instead of eating the
  // 1 ms connection timeout.
  const auto t0 = sim_->now();
  auto rejected = Await(*sim_, Kv().Get(0, 1, "k"));
  EXPECT_EQ(rejected.status().code(), ErrorCode::kUnavailable);
  EXPECT_LT(sim_->now() - t0, Millis(1));
  EXPECT_GT(storage_->stats().breaker_fast_fails, 0u);

  // Server restarts; once the open period lapses, the half-open probe
  // succeeds and closes the breaker.
  storage_->SetServerDown(1, false);
  sim_->Schedule(Millis(6), [] {});
  sim_->Run();
  auto back = Await(*sim_, Kv().Get(0, 1, "k"));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ContentEquals(Bytes::Copy("v")));
  EXPECT_EQ(storage_->BreakerState(1), CircuitBreaker::State::kClosed);
}

TEST_F(FaultClusterTest, WipeOnRestartClearsData) {
  Recreate({});
  ASSERT_TRUE(
      Await(*sim_, Kv().Set(0, 1, "k", Bytes::Synthetic(KiB(4), 7)))
          .ok());
  ASSERT_GT(storage_->server(1).memory_used(), 0u);

  // Restart with data intact: the value survives.
  storage_->SetServerDown(1, true);
  storage_->SetServerDown(1, false);
  EXPECT_TRUE(Await(*sim_, Kv().Get(0, 1, "k")).ok());

  // Restart as an empty process: RAM is gone.
  storage_->SetServerDown(1, true);
  storage_->SetServerDown(1, false, /*wipe_on_restart=*/true);
  EXPECT_EQ(storage_->server(1).memory_used(), 0u);
  auto gone = Await(*sim_, Kv().Get(0, 1, "k"));
  EXPECT_EQ(gone.status().code(), ErrorCode::kNotFound);
}

// --- Chaos soak (the acceptance experiment) -------------------------------
//
// Envelope-style workload on 8 servers with replication 2 while a seeded
// schedule injects three transient crashes (wiping data on restart), two
// slow-server episodes and one lossy link. Crash victims {0, 2, 4} are
// pairwise non-adjacent on the placement ring and all episodes occupy
// disjoint time windows, so every stripe and record keeps at least one live
// replica at all times: the workload must lose nothing.

struct SoakCounters {
  std::uint32_t writes_ok = 0;
  std::uint32_t reads_intact = 0;
  std::uint64_t retries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_fast_fails = 0;
  std::uint64_t degraded_writes = 0;
  std::uint64_t write_failovers = 0;
  std::uint64_t replica_failovers = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t injector_events = 0;
  std::uint64_t wipes = 0;

  bool operator==(const SoakCounters&) const = default;
};

sim::Task RunSoakWrite(sim::Simulation& sim, fs::Vfs& vfs, sim::SimTime start,
                       std::uint32_t node, std::string path,
                       std::uint64_t seed, std::uint8_t& ok) {
  co_await sim.Delay(start);
  fs::VfsContext ctx{node, 0};
  auto created = co_await vfs.Create(ctx, path);
  if (!created.ok()) co_return;
  const Status wrote =
      co_await vfs.Write(ctx, created.value(), Bytes::Synthetic(MiB(1), seed));
  const Status closed = co_await vfs.Close(ctx, created.value());
  ok = wrote.ok() && closed.ok();
}

sim::Task RunSoakVerify(fs::Vfs& vfs, std::uint32_t node, std::string path,
                        std::uint64_t seed, std::uint8_t& intact) {
  fs::VfsContext ctx{node, 0};
  auto opened = co_await vfs.Open(ctx, path);
  if (!opened.ok()) co_return;
  Bytes out;
  while (true) {
    auto chunk = co_await vfs.Read(ctx, opened.value(), out.size(), MiB(1));
    if (!chunk.ok()) co_return;
    if (chunk->empty()) break;
    out.Append(*chunk);
  }
  (void)co_await vfs.Close(ctx, opened.value());
  intact = out.ContentEquals(Bytes::Synthetic(MiB(1), seed));
}

std::vector<sim::FaultEvent> SoakSchedule() {
  std::vector<sim::FaultEvent> events;
  for (std::uint32_t victim : {0u, 2u, 4u}) {
    sim::FaultEvent crash;
    crash.kind = sim::FaultKind::kServerCrash;
    crash.server = victim;
    crash.start = Millis(10 + victim * 10);  // 10, 30, 50 — disjoint windows
    crash.duration = Millis(12);
    crash.wipe_on_restart = true;
    events.push_back(crash);
  }
  for (std::uint32_t i = 0; i < 2; ++i) {
    sim::FaultEvent slow;
    slow.kind = sim::FaultKind::kServerSlow;
    slow.server = i == 0 ? 1 : 6;
    slow.start = i == 0 ? Millis(68) : Millis(84);
    slow.duration = Millis(12);
    slow.slow_factor = 500.0;  // ~90 us stripe SET -> ~45 ms, past deadline
    events.push_back(slow);
  }
  for (std::uint32_t src : {3u, 7u}) {
    sim::FaultEvent link;
    link.kind = sim::FaultKind::kLinkFault;
    link.src = src;
    link.dst = 5;
    link.start = Millis(5);
    link.duration = Millis(80);
    link.loss_prob = 0.5;
    events.push_back(link);
  }
  return events;
}

SoakCounters RunChaosSoak() {
  constexpr std::uint32_t kNodes = 8;
  constexpr std::uint32_t kFiles = 32;

  sim::Simulation sim;
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
  injector.ScheduleAll(SoakSchedule());

  // Write phase: one file every 3 ms from round-robin client nodes, so the
  // workload spans every fault window.
  std::vector<std::uint8_t> write_ok(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    RunSoakWrite(sim, memfs, Millis(3) * i, i % kNodes,
                 "/soak_" + std::to_string(i), 1000 + i, write_ok[i]);
  }
  sim.Run();  // drains the workload AND every fault apply/revert

  // Verify phase (cluster healthy again, but servers 0/2/4 restarted empty):
  // every byte must come back, via failover where the primary was wiped.
  std::vector<std::uint8_t> intact(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    RunSoakVerify(memfs, i % kNodes, "/soak_" + std::to_string(i), 1000 + i,
                  intact[i]);
  }
  sim.Run();

  SoakCounters counters;
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    counters.writes_ok += write_ok[i];
    counters.reads_intact += intact[i];
  }
  counters.retries = storage.stats().retries;
  counters.deadline_exceeded = storage.stats().deadline_exceeded;
  counters.breaker_opens = storage.stats().breaker_opens;
  counters.breaker_fast_fails = storage.stats().breaker_fast_fails;
  counters.degraded_writes = memfs.stats().degraded_writes;
  counters.write_failovers = memfs.stats().write_failovers;
  counters.replica_failovers = memfs.stats().replica_failovers;
  counters.read_repairs = memfs.stats().read_repairs;
  counters.dropped_messages = network.dropped_messages();
  counters.injector_events = injector.stats().total_events();
  counters.wipes = injector.stats().wipes;
  return counters;
}

TEST(ChaosSoakTest, NoDataLossUnderCrashesSlowdownsAndLoss) {
  const SoakCounters counters = RunChaosSoak();

  // Zero data loss: every write acknowledged, every byte read back intact.
  EXPECT_EQ(counters.writes_ok, 32u);
  EXPECT_EQ(counters.reads_intact, 32u);

  // The faults actually happened and the recovery machinery actually ran.
  EXPECT_EQ(counters.wipes, 3u);
  EXPECT_EQ(counters.injector_events, 17u);  // 9 crash/restart/wipe+4 slow+4
  EXPECT_GT(counters.retries, 0u);
  EXPECT_GT(counters.deadline_exceeded, 0u);
  EXPECT_GT(counters.degraded_writes, 0u);
  EXPECT_GT(counters.replica_failovers, 0u);
  EXPECT_GT(counters.read_repairs, 0u);
  EXPECT_GT(counters.dropped_messages, 0u);
}

TEST(ChaosSoakTest, IdenticalSeedsProduceIdenticalRuns) {
  const SoakCounters first = RunChaosSoak();
  const SoakCounters second = RunChaosSoak();
  EXPECT_EQ(first, second);
}

// --- Migration chaos: crash the handoff's source / destination ------------
//
// A standby node joins a 4-server replication-2 cluster while writes are
// still landing; mid-handoff one end of the migration (a source server, or
// the joining destination itself) crashes and restarts. The cluster must
// stay fully readable throughout — no NOT_FOUND, no stale bytes — and the
// migrator must converge once the victim is back, because its sweeps are
// idempotent over whatever the crashed attempt left behind.

struct MigrationChaosOutcome {
  std::uint32_t writes_ok = 0;
  std::uint32_t reads_intact = 0;
  std::uint32_t live_reads = 0;      // verify passes while migration ran
  std::uint32_t live_not_found = 0;  // NOT_FOUND seen by the live reader
  std::uint32_t live_stale = 0;      // wrong bytes seen by the live reader
  std::uint8_t converged = 0;
  std::uint64_t failed_chunks = 0;
};

sim::Task RunMigrationChaosDriver(sim::Simulation& sim,
                                  kv::Membership& membership,
                                  kv::Migrator& migrator, std::uint8_t& done,
                                  std::uint8_t& converged) {
  co_await sim.Delay(Millis(4));
  (void)membership.BeginJoin(/*node=*/4);
  for (int runs = 0; membership.migrating() && runs < 32; ++runs) {
    (void)co_await migrator.Rebalance();
    co_await sim.Delay(Millis(1));
  }
  converged = !membership.migrating();
  done = 1;
}

// Re-reads one file in a loop until the driver finishes, classifying every
// completed pass: intact, NOT_FOUND, or stale/failed.
sim::Task RunLiveReader(sim::Simulation& sim, fs::Vfs& vfs, std::string path,
                        std::uint64_t seed, const std::uint8_t& ready,
                        const std::uint8_t& done,
                        MigrationChaosOutcome& outcome) {
  fs::VfsContext ctx{1, 0};
  while (done == 0) {
    co_await sim.Delay(Millis(2));
    if (ready == 0) continue;  // the writer has not closed the file yet
    auto opened = co_await vfs.Open(ctx, path);
    if (!opened.ok()) {
      if (opened.status().code() == ErrorCode::kNotFound) {
        ++outcome.live_not_found;
      }
      continue;
    }
    Bytes out;
    bool failed = false;
    bool not_found = false;
    while (true) {
      auto chunk = co_await vfs.Read(ctx, opened.value(), out.size(), MiB(1));
      if (!chunk.ok()) {
        failed = true;
        not_found = chunk.status().code() == ErrorCode::kNotFound;
        break;
      }
      if (chunk->empty()) break;
      out.Append(*chunk);
    }
    (void)co_await vfs.Close(ctx, opened.value());
    if (not_found) {
      ++outcome.live_not_found;
    } else if (failed || !out.ContentEquals(Bytes::Synthetic(MiB(1), seed))) {
      ++outcome.live_stale;
    } else {
      ++outcome.live_reads;
    }
  }
}

MigrationChaosOutcome RunMigrationChaos(bool kill_destination) {
  constexpr std::uint32_t kFiles = 12;

  workloads::TestbedConfig config;
  config.nodes = 4;
  config.standby_nodes = 1;
  config.elastic = true;
  config.memfs.replication = 2;
  config.memfs.use_ketama = true;
  config.kv_policy.retry.max_attempts = 5;
  config.kv_policy.op_deadline = Millis(20);
  workloads::Testbed bed(workloads::FsKind::kMemFs, config);
  sim::Simulation& sim = bed.simulation();

  // Live writes span the whole migration window (last one starts at 11 ms;
  // the join begins at 4 ms).
  std::vector<std::uint8_t> write_ok(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    RunSoakWrite(sim, bed.vfs(), Millis(1) * i, i % 4,
                 "/mig_" + std::to_string(i), 2000 + i, write_ok[i]);
  }

  MigrationChaosOutcome outcome;
  std::uint8_t done = 0;
  RunMigrationChaosDriver(sim, *bed.membership(), *bed.migrator(), done,
                          outcome.converged);
  RunLiveReader(sim, bed.vfs(), "/mig_0", 2000, write_ok[0], done, outcome);

  // Crash one end of the handoff mid-migration; restart with data intact
  // (the copies the crashed attempt did land stay put, so the resumed
  // sweeps must be idempotent over them).
  const std::uint32_t victim = kill_destination ? 4u : 0u;
  kv::KvCluster& storage = *bed.storage();
  sim.Schedule(Millis(5), [&storage, victim] {
    storage.SetServerDown(victim, true, /*wipe_on_restart=*/false);
  });
  sim.Schedule(Millis(13), [&storage, victim] {
    storage.SetServerDown(victim, false);
  });
  sim.Run();

  std::vector<std::uint8_t> intact(kFiles, 0);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    RunSoakVerify(bed.vfs(), i % 4, "/mig_" + std::to_string(i), 2000 + i,
                  intact[i]);
  }
  sim.Run();

  for (std::uint32_t i = 0; i < kFiles; ++i) {
    outcome.writes_ok += write_ok[i];
    outcome.reads_intact += intact[i];
  }
  outcome.failed_chunks = bed.migrator()->progress().failed_chunks;
  return outcome;
}

TEST(MigrationChaosTest, SourceCrashMidHandoffLosesNothingAndConverges) {
  const MigrationChaosOutcome outcome =
      RunMigrationChaos(/*kill_destination=*/false);
  EXPECT_EQ(outcome.writes_ok, 12u);
  EXPECT_EQ(outcome.reads_intact, 12u);
  EXPECT_TRUE(outcome.converged);
  EXPECT_GT(outcome.live_reads, 0u);
  EXPECT_EQ(outcome.live_not_found, 0u);
  EXPECT_EQ(outcome.live_stale, 0u);
}

TEST(MigrationChaosTest, DestinationCrashMidHandoffLosesNothingAndConverges) {
  const MigrationChaosOutcome outcome =
      RunMigrationChaos(/*kill_destination=*/true);
  EXPECT_EQ(outcome.writes_ok, 12u);
  EXPECT_EQ(outcome.reads_intact, 12u);
  EXPECT_TRUE(outcome.converged);
  EXPECT_GT(outcome.live_reads, 0u);
  EXPECT_EQ(outcome.live_not_found, 0u);
  EXPECT_EQ(outcome.live_stale, 0u);
}

}  // namespace
}  // namespace memfs
