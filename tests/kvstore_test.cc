// Tests for the Memcached stand-in: server state machine semantics, memory
// accounting, and the simulated cluster protocol binding.
#include <gtest/gtest.h>

#include "common/units.h"
#include "kvstore/kv_cluster.h"
#include "kvstore/kv_server.h"
#include "net/fluid_network.h"
#include "test_util.h"

namespace memfs::kv {
namespace {

using memfs::testing::Await;

// --- KvServer state machine ---

TEST(KvServerTest, SetGetRoundTrip) {
  KvServer server;
  EXPECT_TRUE(server.Set("k", Bytes::Copy("value")).ok());
  auto got = server.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->view(), "value");
}

TEST(KvServerTest, GetMissingIsNotFound) {
  KvServer server;
  EXPECT_EQ(server.Get("nope").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(server.stats().misses, 1u);
}

TEST(KvServerTest, SetOverwrites) {
  KvServer server;
  ASSERT_TRUE(server.Set("k", Bytes::Copy("one")).ok());
  ASSERT_TRUE(server.Set("k", Bytes::Copy("twotwo")).ok());
  EXPECT_EQ(server.Get("k")->view(), "twotwo");
  EXPECT_EQ(server.memory_used(), 6u);
  EXPECT_EQ(server.object_count(), 1u);
}

TEST(KvServerTest, AddFailsOnExisting) {
  KvServer server;
  ASSERT_TRUE(server.Add("k", Bytes::Copy("one")).ok());
  EXPECT_EQ(server.Add("k", Bytes::Copy("two")).code(), ErrorCode::kExists);
  EXPECT_EQ(server.Get("k")->view(), "one");
}

TEST(KvServerTest, AppendRequiresExistingKey) {
  KvServer server;
  EXPECT_EQ(server.Append("k", Bytes::Copy("x")).code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(server.Set("k", Bytes::Copy("ab")).ok());
  ASSERT_TRUE(server.Append("k", Bytes::Copy("cd")).ok());
  EXPECT_EQ(server.Get("k")->view(), "abcd");
  EXPECT_EQ(server.memory_used(), 4u);
}

TEST(KvServerTest, DeleteReclaimsMemory) {
  KvServer server;
  ASSERT_TRUE(server.Set("k", Bytes::Copy("12345")).ok());
  EXPECT_EQ(server.memory_used(), 5u);
  ASSERT_TRUE(server.Delete("k").ok());
  EXPECT_EQ(server.memory_used(), 0u);
  EXPECT_EQ(server.Delete("k").code(), ErrorCode::kNotFound);
}

TEST(KvServerTest, ObjectSizeLimitEnforced) {
  KvServerConfig config;
  config.max_object_size = 100;
  KvServer server(config);
  EXPECT_EQ(server.Set("big", Bytes::Synthetic(101, 1)).code(),
            ErrorCode::kTooLarge);
  EXPECT_TRUE(server.Set("ok", Bytes::Synthetic(100, 1)).ok());
  // Appends may not grow past the limit either.
  EXPECT_EQ(server.Append("ok", Bytes::Synthetic(1, 2)).code(),
            ErrorCode::kTooLarge);
}

TEST(KvServerTest, MemoryLimitEnforced) {
  KvServerConfig config;
  config.memory_limit = 1000;
  config.max_object_size = 1000;
  KvServer server(config);
  EXPECT_TRUE(server.Set("a", Bytes::Synthetic(600, 1)).ok());
  EXPECT_EQ(server.Set("b", Bytes::Synthetic(500, 2)).code(),
            ErrorCode::kNoSpace);
  // Overwriting accounts for the replaced object.
  EXPECT_TRUE(server.Set("a", Bytes::Synthetic(900, 3)).ok());
  EXPECT_EQ(server.memory_used(), 900u);
}

TEST(KvServerTest, SyntheticPayloadsCountLogicalSize) {
  KvServer server;
  ASSERT_TRUE(server.Set("big", Bytes::Synthetic(units::MiB(64), 7)).ok());
  EXPECT_EQ(server.memory_used(), units::MiB(64));
}

TEST(KvServerTest, ClearDropsEverything) {
  KvServer server;
  ASSERT_TRUE(server.Set("a", Bytes::Copy("x")).ok());
  ASSERT_TRUE(server.Set("b", Bytes::Copy("y")).ok());
  server.Clear();
  EXPECT_EQ(server.object_count(), 0u);
  EXPECT_EQ(server.memory_used(), 0u);
  EXPECT_FALSE(server.Exists("a"));
}

TEST(KvServerTest, StatsCountOperations) {
  KvServer server;
  (void)server.Set("a", Bytes::Copy("1"));
  (void)server.Get("a");
  (void)server.Get("b");
  (void)server.Append("a", Bytes::Copy("2"));
  (void)server.Delete("a");
  const auto& stats = server.stats();
  EXPECT_EQ(stats.sets, 1u);
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.deletes, 1u);
}

// --- KvCluster protocol over the simulated network ---

class KvClusterTest : public ::testing::Test {
 protected:
  KvClusterTest()
      : network_(sim_, net::Das4Ipoib(4)),
        cluster_(sim_, network_, {0, 1, 2, 3}) {}

  sim::Simulation sim_;
  net::FairShareNetwork network_;
  KvCluster cluster_;
  testing::OneItemKv kv_{sim_, cluster_};
};

TEST_F(KvClusterTest, RemoteSetGetRoundTrip) {
  Status set = Await(sim_, kv_.Set(0, 2, "key", Bytes::Copy("payload")));
  EXPECT_TRUE(set.ok());
  auto got = Await(sim_, kv_.Get(3, 2, "key"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->view(), "payload");
  EXPECT_GT(sim_.now(), 0u);
}

TEST_F(KvClusterTest, OperationsTakeSimulatedTime) {
  const auto t0 = sim_.now();
  (void)Await(sim_, kv_.Set(0, 1, "k", Bytes::Synthetic(units::MiB(1), 5)));
  const auto elapsed = sim_.now() - t0;
  // 1 MB at 1 GB/s is 1 ms; plus latency and service time.
  EXPECT_GT(elapsed, units::Millis(1));
  EXPECT_LT(elapsed, units::Millis(3));
}

TEST_F(KvClusterTest, LocalOpsFasterThanRemote) {
  (void)Await(sim_, kv_.Set(0, 0, "local", Bytes::Synthetic(1024, 1)));
  (void)Await(sim_, kv_.Set(0, 1, "remote", Bytes::Synthetic(1024, 1)));

  auto time_get = [&](net::NodeId client, std::uint32_t server,
                      const std::string& key) {
    const auto t0 = sim_.now();
    auto result = Await(sim_, kv_.Get(client, server, key));
    EXPECT_TRUE(result.ok());
    return sim_.now() - t0;
  };
  const auto local = time_get(0, 0, "local");
  const auto remote = time_get(0, 1, "remote");
  EXPECT_LT(local, remote);
}

TEST_F(KvClusterTest, AddAndAppendSemanticsOverNetwork) {
  EXPECT_TRUE(Await(sim_, kv_.Add(0, 1, "k", Bytes::Copy("v1"))).ok());
  EXPECT_EQ(Await(sim_, kv_.Add(0, 1, "k", Bytes::Copy("v2"))).code(),
            ErrorCode::kExists);
  EXPECT_TRUE(Await(sim_, kv_.Append(2, 1, "k", Bytes::Copy("+"))).ok());
  auto got = Await(sim_, kv_.Get(3, 1, "k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->view(), "v1+");
}

TEST_F(KvClusterTest, DeleteOverNetwork) {
  (void)Await(sim_, kv_.Set(0, 3, "k", Bytes::Copy("x")));
  EXPECT_TRUE(Await(sim_, kv_.Delete(1, 3, "k")).ok());
  EXPECT_EQ(Await(sim_, kv_.Get(2, 3, "k")).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(KvClusterTest, ConcurrentAppendsAllLand) {
  (void)Await(sim_, kv_.Set(0, 0, "log", Bytes::Copy("")));
  std::vector<sim::Future<Status>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        kv_.Append(i % 4, 0, "log", Bytes::Copy("x")));
  }
  sim_.Run();
  for (auto& f : futures) EXPECT_TRUE(f.value().ok());
  auto got = Await(sim_, kv_.Get(0, 0, "log"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 10u);
}

TEST_F(KvClusterTest, WorkerLimitSerializesLoad) {
  // More concurrent ops than workers; all must still complete.
  std::vector<sim::Future<Status>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(kv_.Set(i % 4, 1, "k" + std::to_string(i),
                                   Bytes::Synthetic(2048, i)));
  }
  sim_.Run();
  for (auto& f : futures) EXPECT_TRUE(f.value().ok());
  EXPECT_EQ(cluster_.server(1).object_count(), 64u);
}

TEST_F(KvClusterTest, TotalMemoryAggregates) {
  (void)Await(sim_, kv_.Set(0, 0, "a", Bytes::Synthetic(100, 1)));
  (void)Await(sim_, kv_.Set(0, 1, "b", Bytes::Synthetic(200, 2)));
  EXPECT_EQ(cluster_.total_memory_used(), 300u);
}

// --- Per-server memory accounting through the monitor gauges ---
//
// With a registry attached the cluster mirrors each server's memory and
// object count into "kv.mem_bytes/<n>" / "kv.objects/<n>" gauges on every
// committed mutation, so the time-series monitor samples accounting that is
// always consistent with KvServer::memory_used().

class KvGaugeTest : public ::testing::Test {
 protected:
  KvGaugeTest()
      : network_(sim_, net::Das4Ipoib(4)),
        cluster_(sim_, network_, {0, 1, 2, 3}, KvServerConfig{},
                 KvOpCostModel{}, &metrics_) {}

  std::int64_t MemGauge(std::uint32_t server) const {
    return metrics_.GaugeValue(InstanceGaugeName("kv.mem_bytes", server));
  }
  std::int64_t ObjectsGauge(std::uint32_t server) const {
    return metrics_.GaugeValue(InstanceGaugeName("kv.objects", server));
  }

  sim::Simulation sim_;
  MetricsRegistry metrics_;
  net::FairShareNetwork network_;
  KvCluster cluster_;
  testing::OneItemKv kv_{sim_, cluster_};
};

TEST_F(KvGaugeTest, SetUpdatesMemoryAndObjectGauges) {
  ASSERT_TRUE(Await(sim_, kv_.Set(0, 1, "k", Bytes::Synthetic(100, 1)))
                  .ok());
  EXPECT_EQ(MemGauge(1), 100);
  EXPECT_EQ(ObjectsGauge(1), 1);
  EXPECT_EQ(MemGauge(1),
            static_cast<std::int64_t>(cluster_.server(1).memory_used()));
  // Overwriting replaces, not adds.
  ASSERT_TRUE(Await(sim_, kv_.Set(0, 1, "k", Bytes::Synthetic(40, 2)))
                  .ok());
  EXPECT_EQ(MemGauge(1), 40);
  EXPECT_EQ(ObjectsGauge(1), 1);
}

TEST_F(KvGaugeTest, AppendGrowthTracked) {
  ASSERT_TRUE(Await(sim_, kv_.Set(0, 2, "log", Bytes::Synthetic(10, 1)))
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        Await(sim_, kv_.Append(0, 2, "log", Bytes::Synthetic(7, i)))
            .ok());
    EXPECT_EQ(MemGauge(2), 10 + 7 * (i + 1));
  }
  EXPECT_EQ(MemGauge(2),
            static_cast<std::int64_t>(cluster_.server(2).memory_used()));
  EXPECT_EQ(ObjectsGauge(2), 1);
}

TEST_F(KvGaugeTest, DeleteReclaimsGaugedMemory) {
  ASSERT_TRUE(Await(sim_, kv_.Set(0, 0, "a", Bytes::Synthetic(64, 1)))
                  .ok());
  ASSERT_TRUE(Await(sim_, kv_.Set(0, 0, "b", Bytes::Synthetic(36, 2)))
                  .ok());
  EXPECT_EQ(MemGauge(0), 100);
  EXPECT_EQ(ObjectsGauge(0), 2);
  ASSERT_TRUE(Await(sim_, kv_.Delete(0, 0, "a")).ok());
  EXPECT_EQ(MemGauge(0), 36);
  EXPECT_EQ(ObjectsGauge(0), 1);
  ASSERT_TRUE(Await(sim_, kv_.Delete(0, 0, "b")).ok());
  EXPECT_EQ(MemGauge(0), 0);
  EXPECT_EQ(ObjectsGauge(0), 0);
}

TEST_F(KvGaugeTest, WipeOnRestartZeroesGauges) {
  ASSERT_TRUE(Await(sim_, kv_.Set(0, 3, "k", Bytes::Synthetic(128, 1)))
                  .ok());
  EXPECT_EQ(MemGauge(3), 128);
  cluster_.SetServerDown(3, true, /*wipe_on_restart=*/true);
  // Still down: the stored bytes are only discarded at restart.
  cluster_.SetServerDown(3, false, /*wipe_on_restart=*/true);
  EXPECT_EQ(MemGauge(3), 0);
  EXPECT_EQ(ObjectsGauge(3), 0);
  EXPECT_EQ(cluster_.server(3).memory_used(), 0u);
}

TEST_F(KvGaugeTest, BatchedMutationsSyncGauges) {
  std::vector<BatchItem> items;
  for (int i = 0; i < 4; ++i) {
    items.push_back(BatchItem{"k" + std::to_string(i),
                              Bytes::Synthetic(25, static_cast<unsigned>(i))});
  }
  auto results =
      Await(sim_, cluster_.Batch(0, 1, BatchKind::kSet, std::move(items)));
  for (const auto& r : results) EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(MemGauge(1), 100);
  EXPECT_EQ(ObjectsGauge(1), 4);
}

}  // namespace
}  // namespace memfs::kv
