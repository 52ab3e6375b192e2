// Tests for the batched data path: KvServer MULTI_* commands, the
// KvCluster::Batch protocol (per-item verdicts, partial-batch retry,
// fault interaction), and the src/io OpScheduler that coalesces issuer
// operations into batches.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "io/op_scheduler.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/kv_server.h"
#include "net/fluid_network.h"
#include "test_util.h"
#include "trace/trace.h"

namespace memfs {
namespace {

using memfs::testing::Await;

sim::Task After(sim::Simulation& sim, sim::SimTime delay,
                std::function<void()> fn) {
  co_await sim.Delay(delay);
  fn();
}

std::vector<kv::BatchItem> MakeItems(
    std::vector<std::pair<std::string, Bytes>> pairs) {
  std::vector<kv::BatchItem> items;
  for (auto& [key, value] : pairs) {
    items.push_back(kv::BatchItem{std::move(key), std::move(value)});
  }
  return items;
}

// --- KvServer MULTI_* state machine ---

TEST(KvServerBatchTest, MultiSetReportsPerItemVerdicts) {
  kv::KvServerConfig config;
  config.max_object_size = 100;
  kv::KvServer server(config);
  auto results = server.MultiSet(MakeItems({{"a", Bytes::Synthetic(50, 1)},
                                            {"big", Bytes::Synthetic(101, 2)},
                                            {"b", Bytes::Synthetic(60, 3)}}));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.code(), ErrorCode::kTooLarge);
  EXPECT_TRUE(results[2].status.ok());
  // The failed item did not abort the rest.
  EXPECT_TRUE(server.Exists("b"));
  EXPECT_FALSE(server.Exists("big"));
}

TEST(KvServerBatchTest, MultiGetMixesHitsAndMisses) {
  kv::KvServer server;
  ASSERT_TRUE(server.Set("x", Bytes::Copy("xv")).ok());
  ASSERT_TRUE(server.Set("z", Bytes::Copy("zv")).ok());
  auto results = server.MultiGet(
      MakeItems({{"x", {}}, {"y", {}}, {"z", {}}}));
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].value.view(), "xv");
  EXPECT_EQ(results[1].status.code(), ErrorCode::kNotFound);
  ASSERT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[2].value.view(), "zv");
  EXPECT_EQ(server.stats().hits, 2u);
  EXPECT_EQ(server.stats().misses, 1u);
}

TEST(KvServerBatchTest, MultiDeleteAndAddAppendDispatch) {
  kv::KvServer server;
  ASSERT_TRUE(server.Set("a", Bytes::Copy("1")).ok());
  auto deleted = server.MultiDelete(MakeItems({{"a", {}}, {"b", {}}}));
  ASSERT_EQ(deleted.size(), 2u);
  EXPECT_TRUE(deleted[0].status.ok());
  EXPECT_EQ(deleted[1].status.code(), ErrorCode::kNotFound);

  // ADD and APPEND flavors go through the same per-item dispatcher.
  kv::BatchItem add{"a", Bytes::Copy("v")};
  EXPECT_TRUE(server.ApplyBatchItem(kv::BatchKind::kAdd, add).status.ok());
  kv::BatchItem dup{"a", Bytes::Copy("w")};
  EXPECT_EQ(server.ApplyBatchItem(kv::BatchKind::kAdd, dup).status.code(),
            ErrorCode::kExists);
  kv::BatchItem app{"a", Bytes::Copy("+")};
  EXPECT_TRUE(server.ApplyBatchItem(kv::BatchKind::kAppend, app).status.ok());
  EXPECT_EQ(server.Get("a")->view(), "v+");
}

// --- KvCluster::Batch over the simulated network ---

class KvBatchClusterTest : public ::testing::Test {
 protected:
  KvBatchClusterTest(kv::KvClientPolicy policy = {})
      : network_(sim_, net::Das4Ipoib(4)),
        cluster_(sim_, network_, {0, 1, 2, 3}, kv::KvServerConfig{},
                 kv::KvOpCostModel{}, nullptr, policy) {}

  sim::Simulation sim_;
  net::FairShareNetwork network_;
  kv::KvCluster cluster_;
};

TEST_F(KvBatchClusterTest, BatchRoundTripAndStats) {
  auto set = Await(sim_, cluster_.Batch(
                             0, 1, kv::BatchKind::kSet,
                             MakeItems({{"a", Bytes::Copy("av")},
                                        {"b", Bytes::Copy("bv")},
                                        {"c", Bytes::Copy("cv")}})));
  ASSERT_EQ(set.size(), 3u);
  for (const auto& item : set) EXPECT_TRUE(item.status.ok());

  auto got = Await(sim_, cluster_.Batch(2, 1, kv::BatchKind::kGet,
                                        MakeItems({{"a", {}},
                                                   {"missing", {}},
                                                   {"c", {}}})));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].value.view(), "av");
  EXPECT_EQ(got[1].status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(got[2].value.view(), "cv");

  EXPECT_EQ(cluster_.stats().batch_rpcs, 2u);
  EXPECT_EQ(cluster_.stats().batch_items, 6u);
  EXPECT_EQ(cluster_.server_stats(1).batches, 2u);
  EXPECT_EQ(cluster_.server_stats(1).batched_items, 6u);
  EXPECT_EQ(cluster_.server_stats(0).batches, 0u);
  // One MULTI_SET = one server-side stats bump per item.
  EXPECT_EQ(cluster_.server(1).stats().sets, 3u);
  EXPECT_EQ(cluster_.server(1).stats().gets, 3u);
}

TEST_F(KvBatchClusterTest, BatchItemPricingAmortizesRpcDispatch) {
  // Each processed item runs under its own "kv.item" span whose duration is
  // exactly its service time (healthy server, slowdown 1.0). The first item
  // of a message pays base + ns_per_byte * bytes, which includes the
  // message's one rpc_dispatch; every later item rides that dispatch.
  trace::Tracer tracer(sim_);
  const kv::KvOpCostModel& cost = cluster_.cost_model();
  const std::vector<std::uint64_t> sizes = {2048, 100, 7000};
  std::vector<std::pair<std::string, Bytes>> pairs;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    pairs.emplace_back("k" + std::to_string(i),
                       Bytes::Synthetic(sizes[i], i));
  }
  auto priced = [&](sim::SimTime base, double ns_per_byte, std::uint64_t n) {
    return base + static_cast<sim::SimTime>(ns_per_byte *
                                            static_cast<double>(n));
  };
  // Item durations of the batch traced under `root`, in processing order.
  auto item_spans = [&](const trace::TraceContext& root) {
    std::vector<sim::SimTime> durations;
    for (const trace::SpanRecord& span : tracer.finished()) {
      if (span.trace_id == root.trace_id && span.name == "kv.item") {
        durations.push_back(span.end - span.start);
      }
    }
    return durations;
  };

  const trace::TraceContext set_root = tracer.StartTrace("set", "test");
  auto set = Await(sim_, cluster_.Batch(0, 1, kv::BatchKind::kSet,
                                        MakeItems(pairs), set_root));
  for (const auto& item : set) ASSERT_TRUE(item.status.ok());
  const std::vector<sim::SimTime> set_items = item_spans(set_root);
  ASSERT_EQ(set_items.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const sim::SimTime full =
        priced(cost.set_base, cost.set_ns_per_byte, sizes[i]);
    EXPECT_EQ(set_items[i], i == 0 ? full : full - cost.rpc_dispatch) << i;
  }

  // GETs are priced on the value they return.
  const trace::TraceContext get_root = tracer.StartTrace("get", "test");
  auto got = Await(sim_, cluster_.Batch(
                             2, 1, kv::BatchKind::kGet,
                             MakeItems({{"k0", {}}, {"k1", {}}, {"k2", {}}}),
                             get_root));
  for (const auto& item : got) ASSERT_TRUE(item.status.ok());
  const std::vector<sim::SimTime> get_items = item_spans(get_root);
  ASSERT_EQ(get_items.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const sim::SimTime full =
        priced(cost.get_base, cost.get_ns_per_byte, sizes[i]);
    EXPECT_EQ(get_items[i], i == 0 ? full : full - cost.rpc_dispatch) << i;
  }
}

class KvBatchDeadlineTest : public KvBatchClusterTest {
 protected:
  static kv::KvClientPolicy SlowPolicy() {
    kv::KvClientPolicy policy;
    policy.op_deadline = units::Micros(2500);
    policy.retry.max_attempts = 4;
    return policy;
  }
  KvBatchDeadlineTest() : KvBatchClusterTest(SlowPolicy()) {}
};

TEST_F(KvBatchDeadlineTest, PartialBatchRetriesOnlyUnresolvedItems) {
  // ~10.15us for the first 1 KiB SET and ~6.15us for each later item (the
  // message's 4us dispatch is paid once), x100 slowdown: commits land at
  // ~1.015, 1.63, 2.245 and 2.86ms. With a 2.5ms deadline three items beat
  // the cut; the retry round must carry exactly the fourth — the server
  // applies 4 sets, not 5.
  cluster_.SetServerSlowdown(1, 100.0);
  auto results = Await(
      sim_, cluster_.Batch(0, 1, kv::BatchKind::kSet,
                           MakeItems({{"k0", Bytes::Synthetic(units::KiB(1), 0)},
                                      {"k1", Bytes::Synthetic(units::KiB(1), 1)},
                                      {"k2", Bytes::Synthetic(units::KiB(1), 2)},
                                      {"k3", Bytes::Synthetic(units::KiB(1), 3)}})));
  ASSERT_EQ(results.size(), 4u);
  for (const auto& item : results) EXPECT_TRUE(item.status.ok());

  EXPECT_EQ(cluster_.server(1).stats().sets, 4u);
  EXPECT_GE(cluster_.stats().retries, 1u);
  EXPECT_GE(cluster_.stats().deadline_exceeded, 1u);
  EXPECT_EQ(cluster_.server_stats(1).batches, 2u);
  EXPECT_EQ(cluster_.server_stats(1).batched_items, 5u);  // 4 + 1 retried
  EXPECT_GE(cluster_.server_stats(1).retries, 1u);
}

TEST(KvBatchGetDeadlineTest, ResolvedGetOutlivesDeadlineOnItsReply) {
  // A GET item resolves when the server has read (and priced) its value,
  // before the reply leg; from then on the deadline watchdog stands down.
  // Here the request leg and service fit well inside the 1 ms deadline but
  // the 4 MiB reply alone takes ~4 ms on IPoIB — the value still arrives,
  // on the first attempt.
  sim::Simulation sim;
  net::FairShareNetwork network(sim, net::Das4Ipoib(4));
  kv::KvClientPolicy policy;
  policy.op_deadline = units::Millis(1);
  kv::KvCluster cluster(sim, network, {0, 1, 2, 3}, kv::KvServerConfig{},
                        kv::KvOpCostModel{}, nullptr, policy);
  const Bytes value = Bytes::Synthetic(units::MiB(4), 9);
  // Seeded server-side: a 4 MiB SET would itself outlast the deadline.
  ASSERT_TRUE(cluster.server(1).Set("big", value).ok());

  const auto t0 = sim.now();
  auto got = Await(sim, cluster.Batch(0, 1, kv::BatchKind::kGet,
                                      MakeItems({{"big", {}}})));
  const auto elapsed = sim.now() - t0;
  ASSERT_EQ(got.size(), 1u);
  ASSERT_TRUE(got[0].status.ok()) << got[0].status.ToString();
  EXPECT_TRUE(got[0].value.ContentEquals(value));
  EXPECT_GT(elapsed, 3 * policy.op_deadline);  // the reply outlasted it
  EXPECT_EQ(cluster.stats().deadline_exceeded, 0u);
  EXPECT_EQ(cluster.stats().retries, 0u);
  EXPECT_EQ(cluster.server_stats(1).batches, 1u);
}

TEST_F(KvBatchClusterTest, BatchRetriesAcrossServerDowntime) {
  cluster_.SetServerDown(0, true);
  // Recovery lands after the first attempt's failure timeout (1 ms) and
  // before the earliest retry (>= 1.2 ms with the 200us base backoff).
  After(sim_, units::Micros(1100), [this] {
    cluster_.SetServerDown(0, false);
  });
  auto results = Await(sim_, cluster_.Batch(
                                 1, 0, kv::BatchKind::kSet,
                                 MakeItems({{"a", Bytes::Copy("1")},
                                            {"b", Bytes::Copy("2")},
                                            {"c", Bytes::Copy("3")}})));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& item : results) EXPECT_TRUE(item.status.ok());
  EXPECT_EQ(cluster_.server(0).stats().sets, 3u);
  EXPECT_GE(cluster_.stats().retries, 1u);
  EXPECT_EQ(cluster_.server_stats(0).batches, 2u);
}

TEST_F(KvBatchClusterTest, WipeOnRestartYieldsMixedBatchGet) {
  auto set = Await(sim_, cluster_.Batch(
                             0, 0, kv::BatchKind::kSet,
                             MakeItems({{"k0", Bytes::Copy("v0")},
                                        {"k1", Bytes::Copy("v1")},
                                        {"k2", Bytes::Copy("v2")},
                                        {"k3", Bytes::Copy("v3")}})));
  for (const auto& item : set) ASSERT_TRUE(item.status.ok());

  // Memcached restart: the process comes back empty.
  cluster_.SetServerDown(0, true);
  cluster_.SetServerDown(0, false, /*wipe_on_restart=*/true);
  auto reset = Await(sim_, cluster_.Batch(1, 0, kv::BatchKind::kSet,
                                          MakeItems({{"k1", Bytes::Copy("r1")},
                                                     {"k3", Bytes::Copy("r3")}})));
  for (const auto& item : reset) ASSERT_TRUE(item.status.ok());

  auto got = Await(sim_, cluster_.Batch(2, 0, kv::BatchKind::kGet,
                                        MakeItems({{"k0", {}},
                                                   {"k1", {}},
                                                   {"k2", {}},
                                                   {"k3", {}}})));
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(got[1].value.view(), "r1");
  EXPECT_EQ(got[2].status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(got[3].value.view(), "r3");
}

// --- OpScheduler coalescing ---

TEST(OpSchedulerTest, SameInstantOpsCoalesceIntoOneBatch) {
  sim::Simulation sim;
  net::FairShareNetwork network(sim, net::Das4Ipoib(4));
  kv::KvCluster cluster(sim, network, {0, 1, 2, 3});
  io::OpScheduler sched(sim, cluster);

  std::vector<sim::Future<Status>> writes;
  for (int i = 0; i < 8; ++i) {
    writes.push_back(sched.Set(0, 1, "k" + std::to_string(i),
                               Bytes::Synthetic(512, i)));
  }
  sim.Run();
  for (auto& f : writes) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.value().ok());
  }
  EXPECT_EQ(sched.stats().batched_ops, 8u);
  EXPECT_EQ(sched.stats().batches, 1u);
  EXPECT_EQ(sched.stats().max_batch, 8u);
  EXPECT_EQ(cluster.stats().batch_rpcs, 1u);

  // Reads drain back through the same lane, batched too.
  std::vector<sim::Future<Result<Bytes>>> reads;
  for (int i = 0; i < 8; ++i) {
    reads.push_back(sched.Get(0, 1, "k" + std::to_string(i)));
  }
  sim.Run();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(reads[i].ready());
    ASSERT_TRUE(reads[i].value().ok());
    EXPECT_TRUE(
        reads[i].value()->ContentEquals(Bytes::Synthetic(512, i)));
  }
  EXPECT_EQ(sched.stats().batches, 2u);
}

TEST(OpSchedulerTest, BatchCeilingSplitsLargeBursts) {
  sim::Simulation sim;
  net::FairShareNetwork network(sim, net::Das4Ipoib(2));
  kv::KvCluster cluster(sim, network, {0, 1});
  io::IoConfig config;
  config.max_batch_ops = 4;
  io::OpScheduler sched(sim, cluster, config);

  std::vector<sim::Future<Status>> writes;
  for (int i = 0; i < 10; ++i) {
    writes.push_back(sched.Set(0, 1, "k" + std::to_string(i),
                               Bytes::Synthetic(128, i)));
  }
  sim.Run();
  for (auto& f : writes) EXPECT_TRUE(f.value().ok());
  EXPECT_EQ(sched.stats().batched_ops, 10u);
  EXPECT_EQ(sched.stats().batches, 3u);  // 4 + 4 + 2
  EXPECT_EQ(sched.stats().max_batch, 4u);
}

TEST(OpSchedulerTest, MixedKindsSplitIntoPerKindBatches) {
  // A DELETE between SETs never merges into the SET batch; the drain gathers
  // same-kind ops (across the gap — safe, no issuer keeps cross-kind ops in
  // flight for one key) and leaves the DELETE for its own round.
  sim::Simulation sim;
  net::FairShareNetwork network(sim, net::Das4Ipoib(2));
  kv::KvCluster cluster(sim, network, {0, 1});
  io::OpScheduler sched(sim, cluster);

  auto s1 = sched.Set(0, 1, "a", Bytes::Copy("1"));
  auto s2 = sched.Set(0, 1, "b", Bytes::Copy("2"));
  auto d1 = sched.Delete(0, 1, "c");
  auto s3 = sched.Set(0, 1, "d", Bytes::Copy("3"));
  sim.Run();
  EXPECT_TRUE(s1.value().ok());
  EXPECT_TRUE(s2.value().ok());
  EXPECT_EQ(d1.value().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(s3.value().ok());
  // set{a,b,d} + delete{c}: two per-kind batches.
  EXPECT_EQ(sched.stats().batches, 2u);
  EXPECT_EQ(cluster.server(1).stats().sets, 3u);
  EXPECT_EQ(cluster.server(1).stats().deletes, 1u);
}

TEST(OpSchedulerTest, LeftoverOpsKeepArrivalOrderAcrossRounds) {
  // Each round moves its batch out of the lane queue and closes the gaps in
  // place; the ops left behind must stay in arrival order, so the rounds
  // (one in flight at a time) complete set{a,b}, delete{x,y}, set{c,d},
  // delete{z}.
  sim::Simulation sim;
  net::FairShareNetwork network(sim, net::Das4Ipoib(2));
  kv::KvCluster cluster(sim, network, {0, 1});
  io::IoConfig config;
  config.max_batch_ops = 2;
  io::OpScheduler sched(sim, cluster, config);

  std::vector<std::string> completed;
  auto watch = [&completed](sim::Future<Status> f,
                            std::string name) -> sim::Task {
    (void)co_await f;
    completed.push_back(name);
  };
  watch(sched.Set(0, 1, "a", Bytes::Copy("1")), "a");
  watch(sched.Delete(0, 1, "x"), "x");
  watch(sched.Set(0, 1, "b", Bytes::Copy("2")), "b");
  watch(sched.Delete(0, 1, "y"), "y");
  watch(sched.Set(0, 1, "c", Bytes::Copy("3")), "c");
  watch(sched.Delete(0, 1, "z"), "z");
  watch(sched.Set(0, 1, "d", Bytes::Copy("4")), "d");
  sim.Run();
  EXPECT_EQ(completed,
            (std::vector<std::string>{"a", "b", "x", "y", "c", "d", "z"}));
  EXPECT_EQ(sched.stats().batches, 4u);
  EXPECT_EQ(sched.stats().max_batch, 2u);
}

TEST(OpSchedulerTest, BatchedRunsAreDeterministic) {
  auto run = [] {
    sim::Simulation sim;
    net::FairShareNetwork network(sim, net::Das4Ipoib(4));
    kv::KvCluster cluster(sim, network, {0, 1, 2, 3});
    io::OpScheduler sched(sim, cluster);
    std::vector<sim::Future<Status>> writes;
    for (int i = 0; i < 24; ++i) {
      writes.push_back(sched.Set(i % 4, i % 3, "k" + std::to_string(i),
                                 Bytes::Synthetic(256 + 64 * (i % 5), i)));
    }
    sim.Run();
    std::vector<sim::Future<Result<Bytes>>> reads;
    for (int i = 0; i < 24; ++i) {
      reads.push_back(sched.Get((i + 1) % 4, i % 3, "k" + std::to_string(i)));
    }
    sim.Run();
    for (auto& f : writes) EXPECT_TRUE(f.value().ok());
    for (auto& f : reads) EXPECT_TRUE(f.value().ok());
    return sim.EventDigest();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace memfs
