// Deterministic discrete-event simulation core.
//
// Simulated time is a nanosecond counter. All activity — timer expiry,
// coroutine resumption, RPC completion — flows through one event queue
// ordered by (time, insertion sequence), so a given program produces a
// bit-identical event order on every run. This determinism is what makes the
// reproduced figures stable and the tests exact.
//
// The queue is built for the million-event runs of the scale benches: a
// 4-ary heap of 24-byte plain nodes {time, seq, cell}, with the type-erased
// callbacks stored out-of-line in recycled fixed-size cells (chunked slab —
// cell addresses are stable, so a running callback may schedule freely).
// Neither scheduling nor dispatch allocates once the slab is warm; captures
// larger than a cell fall back to one boxed allocation. The (time, seq) key
// is unique per event, so heap order — and EventDigest() — is identical to
// the historical std::priority_queue implementation.
//
// Most events (every zero-delay Resume) are scheduled for the current
// instant. Those skip the heap and go to a FIFO ready ring of the same
// nodes: every heap entry due now was scheduled at an earlier instant and so
// carries a lower seq than any ready entry, and ready entries are appended
// in seq order, so Step() popping the lesser of heap top and ready front
// reproduces the exact (time, seq) order.
//
// Concurrency model: simulated processes are C++20 coroutines (sim::Task)
// that suspend on awaitables (Delay, Future, Semaphore, ...) and are resumed
// by the event loop. There is no real threading inside a Simulation; "thread
// pools" in the file-system clients are modelled as bounded concurrent
// coroutines, which matches how the paper's buffering/prefetching threads
// behave (they are I/O-bound and serialize on the network anyway).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace memfs::sim {

using SimTime = std::uint64_t;  // nanoseconds since simulation start

class SimChecker;  // opt-in correctness instrumentation (sim/checker.h)

// Passive observer of the simulated clock (see src/monitor): notified from
// Step() when the event about to run carries a later timestamp than the
// previous one, before its callback executes — i.e. at a moment when no
// event is mid-flight and all state reflects everything up to the old time.
// Observers read state only. They MUST NOT schedule events, resume
// coroutines, or draw randomness: attaching one cannot add queue entries or
// consume sequence numbers, so the event stream — and EventDigest() — is
// bit-identical with an observer attached or absent.
class ClockObserver {
 public:
  virtual ~ClockObserver() = default;
  virtual void OnClockAdvance(SimTime next) = 0;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` nanoseconds from now. Events scheduled for
  // the same instant run in scheduling order.
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the simulated past");
    using Fn = std::decay_t<F>;
    const std::uint32_t cell_index = AllocCell();
    Cell& cell = CellAt(cell_index);
    if constexpr (sizeof(Fn) <= kCellBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(cell.storage)) Fn(std::forward<F>(fn));
      cell.op = &InlineOp<Fn>;
    } else {
      ::new (static_cast<void*>(cell.storage))
          Fn*(new Fn(std::forward<F>(fn)));
      cell.op = &BoxedOp<Fn>;
    }
    const HeapNode node{when, next_seq_++, cell_index};
    if (when == now_) {
      ReadyPush(node);
    } else {
      HeapPush(node);
    }
  }

  // Schedules resumption of a suspended coroutine through the event queue so
  // that wakeups interleave deterministically with timers.
  void Resume(std::coroutine_handle<> handle, SimTime delay = 0) {
    Schedule(delay, ResumeFn{handle});
  }

  // Runs one event. Returns false when the queue is empty.
  bool Step();

  // Runs until the event queue drains. Returns the final simulated time.
  SimTime Run();

  // Runs until the queue drains or simulated time would pass `deadline`.
  SimTime RunUntil(SimTime deadline);

  bool empty() const { return heap_.empty() && ReadyEmpty(); }
  std::uint64_t events_processed() const { return events_processed_; }

  // Order-sensitive FNV-1a digest over the (time, sequence) pair of every
  // event processed so far. Because the event queue is the sole source of
  // interleaving, two runs of the same seeded program are bit-identical iff
  // their digests match — the determinism audit (tools/determinism_audit)
  // double-runs a faulted workload and compares these.
  std::uint64_t EventDigest() const { return digest_; }

  // Correctness instrumentation (see sim/checker.h). Managed by SimChecker's
  // constructor/destructor; primitives consult checker() on every suspend /
  // resume and pay one null test when no checker is attached.
  void AttachChecker(SimChecker* checker) { checker_ = checker; }
  SimChecker* checker() const { return checker_; }

  // Clock observation (see ClockObserver above). One observer at a time;
  // managed by the observer's constructor/destructor. Step() pays one null
  // test when none is attached.
  void AttachClockObserver(ClockObserver* observer) {
    clock_observer_ = observer;
  }
  ClockObserver* clock_observer() const { return clock_observer_; }

  // Awaitable: co_await sim.Delay(ns) suspends the calling coroutine for the
  // given simulated duration.
  struct DelayAwaiter {
    Simulation* sim;
    SimTime delay;
    bool await_ready() const noexcept { return delay == 0; }
    void await_suspend(std::coroutine_handle<> h) { sim->Resume(h, delay); }
    void await_resume() const noexcept {}
  };

  DelayAwaiter Delay(SimTime nanos) { return {this, nanos}; }

  // Awaitable that always suspends and requeues, yielding to other events at
  // the current instant (a cooperative "sched_yield").
  struct YieldAwaiter {
    Simulation* sim;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim->Resume(h, 0); }
    void await_resume() const noexcept {}
  };

  YieldAwaiter Yield() { return {this}; }

 private:
  // Inline storage for event callbacks. 56 payload bytes + the op pointer
  // fill one cache line; the hot captures (coroutine handles, {this, id}
  // pairs, a shared_ptr promise) all fit.
  static constexpr std::size_t kCellBytes = 56;
  static constexpr std::size_t kCellsPerChunk = 1024;

  // op(storage, run): invokes (run) or just destroys (!run) the callable.
  using CellOp = void (*)(void*, bool);

  struct alignas(64) Cell {
    alignas(std::max_align_t) unsigned char storage[kCellBytes];
    CellOp op;
  };

  struct HeapNode {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t cell;
  };

  struct ResumeFn {
    std::coroutine_handle<> handle;
    void operator()() const { handle.resume(); }
  };

  template <typename Fn>
  static void InlineOp(void* storage, bool run) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(storage));
    if (run) (*fn)();
    fn->~Fn();
  }

  template <typename Fn>
  static void BoxedOp(void* storage, bool run) {
    Fn** box = std::launder(reinterpret_cast<Fn**>(storage));
    if (run) (**box)();
    delete *box;
  }

  Cell& CellAt(std::uint32_t index) {
    return cell_chunks_[index / kCellsPerChunk][index % kCellsPerChunk];
  }

  std::uint32_t AllocCell() {
    if (!free_cells_.empty()) {
      const std::uint32_t index = free_cells_.back();
      free_cells_.pop_back();
      return index;
    }
    const std::uint32_t index = cell_count_++;
    if (index / kCellsPerChunk == cell_chunks_.size()) {
      cell_chunks_.push_back(std::make_unique<Cell[]>(kCellsPerChunk));
    }
    return index;
  }

  static bool NodeBefore(const HeapNode& a, const HeapNode& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void HeapPush(HeapNode node);
  HeapNode HeapPop();

  // Ready ring: a power-of-two circular buffer of nodes scheduled at now_,
  // in seq order. It drains before the clock advances, so it only ever holds
  // one instant's events.
  bool ReadyEmpty() const { return ready_head_ == ready_tail_; }
  const HeapNode& ReadyFront() const {
    return ready_[ready_head_ & (ready_.size() - 1)];
  }
  void ReadyPush(HeapNode node) {
    if (ready_tail_ - ready_head_ == ready_.size()) ReadyGrow();
    ready_[ready_tail_++ & (ready_.size() - 1)] = node;
  }
  void ReadyGrow();

  // True when the next event in (time, seq) order is the ring's front.
  // Ready entries are all due now_; a heap entry due now_ precedes them only
  // by its (lower) seq, so NodeBefore decides between the two fronts.
  bool ReadyIsNext() const {
    return !ReadyEmpty() &&
           (heap_.empty() || NodeBefore(ReadyFront(), heap_.front()));
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV-1a offset basis
  SimChecker* checker_ = nullptr;
  ClockObserver* clock_observer_ = nullptr;
  std::vector<HeapNode> heap_;  // 4-ary min-heap on (time, seq)
  std::vector<HeapNode> ready_;  // ready ring storage (power-of-two size)
  std::size_t ready_head_ = 0;   // free-running; index with & (size - 1)
  std::size_t ready_tail_ = 0;
  std::vector<std::unique_ptr<Cell[]>> cell_chunks_;
  std::vector<std::uint32_t> free_cells_;
  std::uint32_t cell_count_ = 0;
};

}  // namespace memfs::sim
