// An allocator for large typed buffers that are built, kept for a
// while and dropped whole — a phase grid's cells.
//
// Blocks of kMapBytes and up are mapped straight from the kernel and
// unmapped on release; smaller ones come from operator new. A mapped
// block never becomes a hole in malloc's heap that later allocations
// split, leaving the next buffer of the same size to grow the heap by
// one more block. Through malloc, building a grid while the previous one
// is still alive makes the process's peak RSS depend on how other
// threads' frees happen to interleave with the heap: one grid more or
// less resident from one run to the next.
//
// Every mapped block is advised MADV_HUGEPAGE (the advice is a hint: its
// result is ignored, and a kernel whose transparent huge pages are off
// simply keeps 4 KiB pages). Where the kernel honors it, the first write
// to each 2 MiB-aligned stretch of the block faults in one huge page
// instead of 512 small ones, which is most of the cost of filling a
// fresh multi-megabyte buffer. Pages that are reserved but never
// written stay non-resident, so an over-reserved capacity costs address
// space only — except that the huge page holding the last written byte
// is resident whole: up to 2 MiB of reserved-but-unwritten tail per
// block can count towards RSS.
//
// Unlike std::allocator, construct() with no arguments does nothing:
// resize() on a container of this allocator leaves the new elements
// unconstructed, and whoever fills them std::construct_at's each one —
// typically on the worker thread that computes it, so the pages are
// first touched there and not by a serial pass on the caller. Copies,
// moves and push_back construct as usual.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>
#include <utility>

namespace p2p::engine {

template <class T>
struct PageAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "PageAllocator serves default-aligned types only");
  using value_type = T;

  /// Smallest block that is mapped rather than taken from the heap.
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;

  PageAllocator() noexcept = default;
  template <class U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) return static_cast<T*>(::operator new(bytes));
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    (void)madvise(p, bytes, MADV_HUGEPAGE);
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) {
      ::operator delete(p, bytes);
    } else {
      munmap(p, bytes);
    }
  }

  /// Leaves the element unconstructed (see the header comment).
  template <class U>
  void construct(U*) noexcept {}
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

}  // namespace p2p::engine
