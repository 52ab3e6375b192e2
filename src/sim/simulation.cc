#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/checker.h"

namespace memfs::sim {

namespace {

// Order-sensitive FNV-1a: folds each byte of `value` into the running hash.
std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

Simulation::~Simulation() {
  // Destroy never-run callbacks (e.g. a RunUntil stopped mid-workload) in
  // both the heap and the ready ring. The cells themselves die with
  // cell_chunks_.
  for (const HeapNode& node : heap_) {
    Cell& cell = CellAt(node.cell);
    cell.op(cell.storage, /*run=*/false);
  }
  for (; !ReadyEmpty(); ++ready_head_) {
    Cell& cell = CellAt(ReadyFront().cell);
    cell.op(cell.storage, /*run=*/false);
  }
}

void Simulation::ReadyGrow() {
  // Unwrap the ring into a buffer twice the size, front at index 0.
  const std::size_t count = ready_tail_ - ready_head_;
  std::vector<HeapNode> grown(ready_.empty() ? 64 : ready_.size() * 2);
  for (std::size_t i = 0; i < count; ++i) {
    grown[i] = ready_[(ready_head_ + i) & (ready_.size() - 1)];
  }
  ready_ = std::move(grown);
  ready_head_ = 0;
  ready_tail_ = count;
}

void Simulation::HeapPush(HeapNode node) {
  // Sift-up in a 4-ary heap: parent of i is (i-1)/4.
  std::size_t i = heap_.size();
  heap_.push_back(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!NodeBefore(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Simulation::HeapNode Simulation::HeapPop() {
  assert(!heap_.empty());
  const HeapNode top = heap_.front();
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift-down: children of i are 4i+1 .. 4i+4.
    std::size_t i = 0;
    const std::size_t size = heap_.size();
    while (true) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= size) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + 4, size);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (NodeBefore(heap_[c], heap_[best])) best = c;
      }
      if (!NodeBefore(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

bool Simulation::Step() {
  HeapNode node;
  if (ReadyIsNext()) {
    node = ReadyFront();
    ++ready_head_;
  } else if (!heap_.empty()) {
    node = HeapPop();
  } else {
    return false;
  }
  // Tell the clock observer time is about to advance, before the event at
  // the new instant runs: observed state is exactly "everything up to the
  // old time", which is what makes window samples exact. Observers never
  // touch the queue, so the digest below is unaffected.
  if (clock_observer_ != nullptr && node.time > now_) {
    clock_observer_->OnClockAdvance(node.time);
  }
  now_ = node.time;
  ++events_processed_;
  digest_ = FnvMix(FnvMix(digest_, node.time), node.seq);
  Cell& cell = CellAt(node.cell);
  cell.op(cell.storage, /*run=*/true);
  // Recycle only after the callback finished: events it scheduled must not
  // reuse the cell whose storage is still live above.
  free_cells_.push_back(node.cell);
  return true;
}

SimTime Simulation::Run() {
  while (Step()) {
  }
  // The queue drained; any coroutine still registered as waiting can never
  // be resumed — report it as a lost wakeup.
  if (checker_ != nullptr) checker_->OnQueueDrained();
  return now_;
}

SimTime Simulation::RunUntil(SimTime deadline) {
  while (!empty()) {
    const HeapNode& next = ReadyIsNext() ? ReadyFront() : heap_.front();
    if (next.time > deadline) break;
    Step();
  }
  if (now_ < deadline) {
    if (clock_observer_ != nullptr) clock_observer_->OnClockAdvance(deadline);
    now_ = deadline;
  }
  return now_;
}

}  // namespace memfs::sim
