// Size-class recycling allocator for high-churn simulation objects:
// coroutine frames (sim::Task promise frames via operator new overloads) and
// Future shared state. The simulator allocates millions of short-lived,
// identically-sized blocks per run; recycling them through per-thread free
// lists removes the dominant allocation cost without changing any observable
// behaviour — addresses never feed hashing, ordering or the event digest.
//
// Lifetime rules (see DESIGN.md §11):
//  * Blocks are recycled per size class, never returned to the OS until
//    thread exit; the pool's high-water mark is the peak concurrent count.
//  * A 16-byte header in front of every block records its size class, so
//    frees need no size (coroutine frames may be freed through the unsized
//    operator delete).
//  * Under AddressSanitizer / ThreadSanitizer the pool degrades to plain
//    new/delete so the sanitizers keep seeing every frame's true lifetime
//    (use-after-free on a recycled frame would otherwise go unnoticed).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEMFS_POOL_ALLOC_BYPASS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEMFS_POOL_ALLOC_BYPASS 1
#endif
#endif

namespace memfs::sim::detail {

inline constexpr std::size_t kPoolClassStep = 64;
inline constexpr std::size_t kPoolClasses = 64;  // up to 4 KiB payloads
inline constexpr std::size_t kPoolHeader = 16;   // keeps max_align_t alignment
inline constexpr std::uint64_t kPoolOversize = ~0ull;

struct PoolFreeLists {
  std::array<void*, kPoolClasses> heads{};
  ~PoolFreeLists() {
    for (void* head : heads) {
      while (head != nullptr) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
    }
  }
};

inline PoolFreeLists& PoolLists() {
  thread_local PoolFreeLists lists;
  return lists;
}

// Allocates `size` payload bytes from the recycling pool.
inline void* PoolAlloc(std::size_t size) {
#ifdef MEMFS_POOL_ALLOC_BYPASS
  return ::operator new(size);
#else
  const std::size_t need = size + kPoolHeader;
  const std::size_t cls = (need + kPoolClassStep - 1) / kPoolClassStep;
  if (cls > kPoolClasses) {
    void* raw = ::operator new(need);
    *static_cast<std::uint64_t*>(raw) = kPoolOversize;
    return static_cast<char*>(raw) + kPoolHeader;
  }
  auto& heads = PoolLists().heads;
  void* raw = heads[cls - 1];
  if (raw != nullptr) {
    heads[cls - 1] = *static_cast<void**>(raw);
  } else {
    raw = ::operator new(cls * kPoolClassStep);
  }
  *static_cast<std::uint64_t*>(raw) = cls;
  return static_cast<char*>(raw) + kPoolHeader;
#endif
}

inline void PoolFree(void* p) noexcept {
#ifdef MEMFS_POOL_ALLOC_BYPASS
  ::operator delete(p);
#else
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kPoolHeader;
  const std::uint64_t cls = *static_cast<std::uint64_t*>(raw);
  if (cls == kPoolOversize) {
    ::operator delete(raw);
    return;
  }
  auto& heads = PoolLists().heads;
  *static_cast<void**>(raw) = heads[cls - 1];
  heads[cls - 1] = raw;
#endif
}

// Minimal allocator over the pool for std::allocate_shared and node-based
// containers: single-object allocations recycle, arrays go to the heap.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(PoolAlloc(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      PoolFree(p);
      return;
    }
    ::operator delete(p);
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

// make_shared through the pool: object and control block share one recycled
// block, so per-operation shared state costs no heap traffic once warm.
template <typename T, typename... Args>
std::shared_ptr<T> MakePooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace memfs::sim::detail
