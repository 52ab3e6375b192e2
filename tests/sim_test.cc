// Unit tests for the discrete-event core: event ordering, coroutine tasks,
// futures, semaphores, wait groups, determinism.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/future.h"
#include "sim/pool_alloc.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace memfs::sim {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulationTest, TiesBreakInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, NestedSchedulingAdvancesTime) {
  Simulation sim;
  SimTime inner_time = 0;
  sim.Schedule(5, [&] { sim.Schedule(7, [&] { inner_time = sim.now(); }); });
  sim.Run();
  EXPECT_EQ(inner_time, 12u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.Step());
}

// --- Coroutine tasks ---

Task SetFlagAfter(Simulation& sim, SimTime delay, bool& flag) {
  co_await sim.Delay(delay);
  flag = true;
}

TEST(TaskTest, DelayResumesAtRightTime) {
  Simulation sim;
  bool flag = false;
  SetFlagAfter(sim, 250, flag);
  EXPECT_FALSE(flag);  // suspended at the delay
  sim.Run();
  EXPECT_TRUE(flag);
  EXPECT_EQ(sim.now(), 250u);
}

TEST(TaskTest, ZeroDelayDoesNotSuspend) {
  Simulation sim;
  bool flag = false;
  SetFlagAfter(sim, 0, flag);
  EXPECT_TRUE(flag);  // ran to completion eagerly
}

TEST(TaskTest, YieldDefersToSameInstant) {
  Simulation sim;
  std::vector<int> order;
  [](Simulation& s, std::vector<int>& log) -> Task {
    log.push_back(1);
    co_await s.Yield();
    log.push_back(3);
  }(sim, order);
  order.push_back(2);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 0u);
}

// --- Future / Promise ---

TEST(FutureTest, AwaitAlreadyFulfilled) {
  Simulation sim;
  Promise<int> promise(sim);
  promise.Set(9);
  int got = 0;
  [](Future<int> f, int& out) -> Task { out = co_await f; }(
      promise.GetFuture(), got);
  sim.Run();
  EXPECT_EQ(got, 9);
}

TEST(FutureTest, MultipleWaitersAllResume) {
  Simulation sim;
  Promise<int> promise(sim);
  auto future = promise.GetFuture();
  int sum = 0;
  for (int i = 0; i < 4; ++i) {
    [](Future<int> f, int& total) -> Task { total += co_await f; }(future,
                                                                   sum);
  }
  sim.Schedule(10, [&] { promise.Set(5); });
  sim.Run();
  EXPECT_EQ(sum, 20);
}

TEST(FutureTest, WaitersResumeInAwaitOrder) {
  // The first waiter is stored inline and later ones spill to a vector;
  // either way, resumption follows await order.
  for (int waiters : {1, 2, 5}) {
    Simulation sim;
    Promise<int> promise(sim);
    auto future = promise.GetFuture();
    std::vector<std::pair<int, SimTime>> resumed;
    for (int i = 0; i < waiters; ++i) {
      [](Simulation& s, Future<int> f, int id,
         std::vector<std::pair<int, SimTime>>& log) -> Task {
        EXPECT_EQ(co_await f, 5);
        log.emplace_back(id, s.now());
      }(sim, future, i, resumed);
    }
    EXPECT_TRUE(resumed.empty());
    sim.Schedule(10, [&] { promise.Set(5); });
    sim.Run();
    ASSERT_EQ(resumed.size(), static_cast<std::size_t>(waiters));
    for (int i = 0; i < waiters; ++i) {
      EXPECT_EQ(resumed[i].first, i) << waiters << " waiters";
      EXPECT_EQ(resumed[i].second, 10u);
    }
  }
}

TEST(FutureTest, ValuePeekAfterRun) {
  Simulation sim;
  Promise<int> promise(sim);
  auto future = promise.GetFuture();
  EXPECT_FALSE(future.ready());
  sim.Schedule(3, [&] { promise.Set(1); });
  sim.Run();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value(), 1);
}

// --- Semaphore ---

Task AcquireHoldRelease(Simulation& sim, Semaphore& sem, SimTime hold,
                        std::vector<SimTime>& done_times) {
  co_await sem.Acquire();
  co_await sim.Delay(hold);
  sem.Release();
  done_times.push_back(sim.now());
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 6; ++i) AcquireHoldRelease(sim, sem, 100, done);
  sim.Run();
  // 6 tasks, width 2, 100ns each -> waves at 100, 200, 300.
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100, 200, 200, 300, 300}));
}

TEST(SemaphoreTest, FifoOrdering) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    [](Simulation& s, Semaphore& m, int id, std::vector<int>& log) -> Task {
      co_await m.Acquire();
      co_await s.Delay(10);
      log.push_back(id);
      m.Release();
    }(sim, sem, i, order);
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SemaphoreTest, TryAcquire) {
  Simulation sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_TRUE(!sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SemaphoreTest, WaitingCount) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<SimTime> done;
  AcquireHoldRelease(sim, sem, 50, done);  // holds the permit
  AcquireHoldRelease(sim, sem, 50, done);
  AcquireHoldRelease(sim, sem, 50, done);
  EXPECT_EQ(sem.waiting(), 2u);
  sim.Run();
  EXPECT_EQ(sem.waiting(), 0u);
}

// --- WaitGroup ---

TEST(WaitGroupTest, WaitsForAll) {
  Simulation sim;
  WaitGroup wg(sim);
  bool all_done = false;
  for (int i = 1; i <= 3; ++i) {
    wg.Add();
    [](Simulation& s, WaitGroup& group, SimTime t) -> Task {
      co_await s.Delay(t);
      group.Done();
    }(sim, wg, static_cast<SimTime>(i * 100));
  }
  [](WaitGroup& group, bool& flag) -> Task {
    co_await group.Wait();
    flag = true;
  }(wg, all_done);
  sim.RunUntil(299);
  EXPECT_FALSE(all_done);
  sim.Run();
  EXPECT_TRUE(all_done);
  EXPECT_EQ(sim.now(), 300u);
}

TEST(WaitGroupTest, WaitOnEmptyGroupReturnsImmediately) {
  Simulation sim;
  WaitGroup wg(sim);
  bool done = false;
  [](WaitGroup& group, bool& flag) -> Task {
    co_await group.Wait();
    flag = true;
  }(wg, done);
  EXPECT_TRUE(done);
}

// --- Determinism ---

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto run = [] {
    Simulation sim;
    Semaphore sem(sim, 3);
    std::vector<SimTime> done;
    for (int i = 0; i < 20; ++i) {
      AcquireHoldRelease(sim, sem, 17 + (i % 5) * 13, done);
    }
    sim.Run();
    return std::pair{done, sim.events_processed()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- Event heap (ISSUE 9 rewrite) ---
//
// The 4-ary pooled heap replaced std::priority_queue<Event>. Its contract is
// that pops come out in (time, insertion seq) order — the exact total order
// the old queue used — so the event stream, and therefore EventDigest(), is
// byte-identical. These tests drive randomized schedules against a reference
// model of that order and against an independently computed digest.

// Order-sensitive FNV-1a over (time, seq) pairs, mirroring Simulation's
// digest definition.
std::uint64_t ReferenceDigest(
    const std::vector<std::pair<SimTime, std::uint64_t>>& events) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [time, seq] : events) {
    mix(time);
    mix(seq);
  }
  return h;
}

TEST(EventHeapTest, RandomizedScheduleMatchesReferenceOrderAndDigest) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    Simulation sim;
    std::uint64_t state = 0x9e3779b97f4a7c15ull * (trial + 1);
    auto next = [&state] {  // splitmix64
      std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    // Heavily duplicated times force the seq tie-break to decide most pops.
    std::vector<std::pair<SimTime, std::uint64_t>> expected;
    std::vector<std::pair<SimTime, std::uint64_t>> popped;
    for (std::uint64_t i = 0; i < 200; ++i) {
      const SimTime when = next() % 16;
      expected.emplace_back(when, i);
      sim.ScheduleAt(when, [&popped, &sim, seq = i] {
        popped.emplace_back(sim.now(), seq);
      });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });  // stable = insertion order breaks ties
    sim.Run();
    ASSERT_EQ(popped, expected) << "trial " << trial;
    // The digest folds (time, internal seq); internal seqs are the insertion
    // indices here because nothing else scheduled, so the reference applies.
    EXPECT_EQ(sim.EventDigest(), ReferenceDigest(expected));
  }
}

TEST(EventHeapTest, SchedulingDuringRunKeepsTotalOrder) {
  // Callbacks scheduling new events mid-run exercise cell reuse (freed cells
  // are recycled immediately) and sift-down across chunk boundaries.
  Simulation sim;
  std::vector<std::pair<SimTime, int>> order;
  for (int i = 0; i < 8; ++i) {
    sim.ScheduleAt(10 * (i + 1), [&order, &sim, i] {
      order.emplace_back(sim.now(), i);
      // Same-time follow-up: must run after all previously scheduled events
      // at this instant (higher seq), before any later time.
      sim.Schedule(0, [&order, &sim, i] {
        order.emplace_back(sim.now(), 100 + i);
      });
    });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[2 * i].second, i);
    EXPECT_EQ(order[2 * i + 1].second, 100 + i);
    EXPECT_EQ(order[2 * i].first, order[2 * i + 1].first);
  }
}

TEST(EventHeapTest, LargeCallablesAreBoxedCorrectly) {
  // Callables above the 56-byte inline cell budget take the boxed path;
  // both must run and destroy exactly once.
  Simulation sim;
  struct Big {
    char payload[128];
  };
  Big big{};
  big.payload[0] = 42;
  int runs = 0;
  auto shared = std::make_shared<int>(7);  // destruction tracked by use_count
  std::weak_ptr<int> watch = shared;
  sim.Schedule(5, [big, shared, &runs] {
    runs += big.payload[0] + *shared;
  });
  shared.reset();
  EXPECT_FALSE(watch.expired());  // the boxed copy keeps it alive
  sim.Run();
  EXPECT_EQ(runs, 49);
  EXPECT_TRUE(watch.expired());  // boxed callable destroyed after running
}

// --- Frame pool (ISSUE 9) ---

#ifndef MEMFS_POOL_ALLOC_BYPASS
TEST(PoolAllocTest, SameSizeClassRecyclesTheBlock) {
  // LIFO free list: freeing then reallocating within a size class returns
  // the identical block (this is the property that removes frame churn).
  void* a = detail::PoolAlloc(48);
  detail::PoolFree(a);
  void* b = detail::PoolAlloc(40);  // same 64-byte class as 48
  EXPECT_EQ(a, b);
  detail::PoolFree(b);
}

TEST(PoolAllocTest, DistinctClassesDoNotShareBlocks) {
  void* small = detail::PoolAlloc(16);
  detail::PoolFree(small);
  void* large = detail::PoolAlloc(512);  // different class: no reuse
  EXPECT_NE(small, large);
  detail::PoolFree(large);
}
#endif  // MEMFS_POOL_ALLOC_BYPASS

TEST(PoolAllocTest, OversizeAllocationsFallBackToTheHeap) {
  // Payloads past the largest size class bypass the free lists entirely but
  // must still round-trip through PoolFree.
  void* p = detail::PoolAlloc(64 * 1024);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64 * 1024);  // the block must really be that big
  detail::PoolFree(p);
}

TEST(EventHeapTest, UnrunEventsAreDestroyedWithTheSimulation) {
  auto shared = std::make_shared<int>(1);
  std::weak_ptr<int> watch = shared;
  {
    Simulation sim;
    sim.Schedule(100, [shared] { (void)shared; });
    shared.reset();
    EXPECT_FALSE(watch.expired());
  }  // ~Simulation drains the heap without running the callbacks
  EXPECT_TRUE(watch.expired());
}

// --- Same-instant ready queue ---
//
// Events scheduled for the current instant bypass the heap into a FIFO
// ring. These tests pin the (time, seq) order across the two structures.

TEST(ReadyQueueTest, TimedEventPrecedesZeroDelayEventsOfItsInstant) {
  // A and B are scheduled at t=10 from t=0 (heap). A runs first and queues
  // two zero-delay events at t=10 (ready ring); B's lower seq still puts it
  // ahead of them, and B's own zero-delay follow-up runs after them.
  Simulation sim;
  std::vector<std::string> order;
  sim.ScheduleAt(10, [&] {
    order.push_back("A");
    sim.Schedule(0, [&] { order.push_back("A0"); });
    sim.Schedule(0, [&] { order.push_back("A1"); });
  });
  sim.ScheduleAt(10, [&] {
    order.push_back("B");
    sim.Schedule(0, [&] { order.push_back("B0"); });
  });
  sim.Run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"A", "B", "A0", "A1", "B0"}));
  EXPECT_EQ(sim.now(), 10u);
}

TEST(ReadyQueueTest, DigestMatchesReferenceAcrossHeapAndReadyRing) {
  // Every event starts a short zero-delay chain at its instant and some
  // links also schedule timed events, so heap and ring entries interleave
  // at every instant; the run must follow (time, seq) order exactly and the
  // digest must fold that order.
  Simulation sim;
  std::vector<std::pair<SimTime, std::uint64_t>> ran;
  std::uint64_t next_seq = 0;  // mirrors the simulation's internal seq
  std::function<void(std::uint64_t, int)> spawn = [&](std::uint64_t seq,
                                                      int depth) {
    ran.emplace_back(sim.now(), seq);
    if (depth < 3) {
      const std::uint64_t link = next_seq++;
      sim.Schedule(0, [&spawn, link, depth] { spawn(link, depth + 1); });
    }
    if (sim.now() < 8 && depth % 2 == 0) {
      const std::uint64_t timed = next_seq++;
      sim.Schedule(1 + depth / 2, [&spawn, timed] { spawn(timed, 0); });
    }
  };
  const std::uint64_t first = next_seq++;
  sim.Schedule(0, [&spawn, first] { spawn(first, 0); });
  sim.RunUntil(8);
  ASSERT_GT(ran.size(), 100u);
  std::vector<std::pair<SimTime, std::uint64_t>> sorted = ran;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(ran, sorted);
  EXPECT_EQ(sim.EventDigest(), ReferenceDigest(ran));
}

TEST(ReadyQueueTest, RunUntilDrainsTheInstantAndStopsBeforeLaterEvents) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(0, [&] { order.push_back(0); });
  sim.RunUntil(0);  // ready entries obey the same time <= deadline rule
  EXPECT_EQ(order, (std::vector<int>{0}));
  sim.ScheduleAt(10, [&] {
    order.push_back(1);
    sim.Schedule(0, [&] {
      order.push_back(2);
      sim.Schedule(0, [&] { order.push_back(3); });
    });
  });
  sim.ScheduleAt(11, [&] { order.push_back(4); });
  sim.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_FALSE(sim.empty());  // the t=11 event is still queued
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(sim.empty());
}

TEST(ReadyQueueTest, RingKeepsFifoOrderAcrossGrowth) {
  // Every event queues two more at the same instant, so the ring wraps and
  // grows (from 64 slots) while partly consumed; execution order must still
  // equal scheduling order.
  Simulation sim;
  std::vector<int> order;
  int scheduled = 0;
  std::function<void(int)> fan = [&](int id) {
    order.push_back(id);
    for (int k = 0; k < 2 && scheduled < 1000; ++k) {
      const int child = scheduled++;
      sim.Schedule(0, [&fan, child] { fan(child); });
    }
  };
  const int root = scheduled++;
  sim.Schedule(0, [&fan, root] { fan(root); });
  sim.Run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(ReadyQueueTest, UnrunSameInstantCallablesAreDestroyedWithTheSimulation) {
  auto shared = std::make_shared<int>(1);
  std::weak_ptr<int> watch = shared;
  struct Big {
    char payload[128];
  };
  {
    Simulation sim;
    sim.Schedule(0, [shared] { (void)shared; });              // inline cell
    sim.Schedule(0, [shared, big = Big{}] { (void)big; });    // boxed
    sim.Schedule(5, [shared] { (void)shared; });              // heap
    shared.reset();
    EXPECT_FALSE(watch.expired());
  }  // ~Simulation destroys both structures' callables without running them
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace memfs::sim
