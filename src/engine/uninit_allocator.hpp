// An allocator whose resize() leaves trivially constructible elements
// unwritten, for buffers that are filled in full right after they are
// sized — a refinement generation's scratch arrays, the CSV reader's
// read buffer — where zeroing them first would only be a memset that
// the fill then overwrites.
#pragma once

#include <memory>
#include <new>
#include <utility>

namespace p2p::engine {

template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace p2p::engine
