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
// less resident from one run to the next. Pages of a mapped block
// that are reserved but never written are not resident either, so an
// over-reserved capacity costs address space only.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>

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

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

}  // namespace p2p::engine
