// Shared helpers for driving simulated asynchronous APIs from gtest.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "kvstore/kv_cluster.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace memfs::testing {

// Runs the simulation until the future resolves (which, with no other live
// processes, means running the queue dry) and returns the value.
template <typename T>
T Await(sim::Simulation& sim, sim::Future<T> future) {
  sim.Run();
  EXPECT_TRUE(future.ready()) << "future never resolved (deadlock?)";
  return future.value();
}

// Single-key kv calls for tests. KvCluster::Batch is the only kv wire path,
// so each call is a batch of one that resolves with its item's verdict:
// a Status for mutations, the value (or the error) for GET.
class OneItemKv {
 public:
  OneItemKv(sim::Simulation& sim, kv::KvCluster& cluster)
      : sim_(sim), cluster_(cluster) {}

  sim::Future<Status> Set(net::NodeId client, std::uint32_t server,
                          std::string key, Bytes value) {
    return Mutate(client, server, kv::BatchKind::kSet, std::move(key),
                  std::move(value));
  }
  sim::Future<Status> Add(net::NodeId client, std::uint32_t server,
                          std::string key, Bytes value) {
    return Mutate(client, server, kv::BatchKind::kAdd, std::move(key),
                  std::move(value));
  }
  sim::Future<Status> Append(net::NodeId client, std::uint32_t server,
                             std::string key, Bytes suffix) {
    return Mutate(client, server, kv::BatchKind::kAppend, std::move(key),
                  std::move(suffix));
  }
  sim::Future<Status> Delete(net::NodeId client, std::uint32_t server,
                             std::string key) {
    return Mutate(client, server, kv::BatchKind::kDelete, std::move(key),
                  Bytes());
  }
  sim::Future<Result<Bytes>> Get(net::NodeId client, std::uint32_t server,
                                 std::string key) {
    sim::Promise<Result<Bytes>> done(sim_);
    auto future = done.GetFuture();
    ForwardValue(Send(client, server, kv::BatchKind::kGet, std::move(key),
                      Bytes()),
                 std::move(done));
    return future;
  }

 private:
  using Batch = sim::Future<std::vector<kv::BatchItemResult>>;

  Batch Send(net::NodeId client, std::uint32_t server, kv::BatchKind kind,
             std::string key, Bytes value) {
    std::vector<kv::BatchItem> items;
    items.push_back(kv::BatchItem{std::move(key), std::move(value)});
    return cluster_.Batch(client, server, kind, std::move(items));
  }

  sim::Future<Status> Mutate(net::NodeId client, std::uint32_t server,
                             kv::BatchKind kind, std::string key,
                             Bytes value) {
    sim::Promise<Status> done(sim_);
    auto future = done.GetFuture();
    ForwardStatus(
        Send(client, server, kind, std::move(key), std::move(value)),
        std::move(done));
    return future;
  }

  static sim::Task ForwardStatus(Batch batch, sim::Promise<Status> done) {
    std::vector<kv::BatchItemResult> results = co_await batch;
    done.Set(std::move(results.front().status));
  }

  static sim::Task ForwardValue(Batch batch,
                                sim::Promise<Result<Bytes>> done) {
    std::vector<kv::BatchItemResult> results = co_await batch;
    kv::BatchItemResult& result = results.front();
    if (result.status.ok()) {
      done.Set(Result<Bytes>(std::move(result.value)));
    } else {
      done.Set(Result<Bytes>(std::move(result.status)));
    }
  }

  sim::Simulation& sim_;
  kv::KvCluster& cluster_;
};

}  // namespace memfs::testing
