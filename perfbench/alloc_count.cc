// Global heap-allocation counter. Replacing operator new in the benchmark
// binary covers every allocation the simulator makes (replacement is a
// link-time property), so the library itself stays uninstrumented. The
// over-aligned forms matter: the simulator's event cells are alignas(64);
// so do the nothrow forms (std::inplace_merge's buffer), which must pair
// with the replaced deletes. Array forms forward to these by default.
// Kept in a translation unit of its own so no container code is inlined
// against the replaced operators.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace perfbench {

std::uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench
