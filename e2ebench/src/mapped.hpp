// Storage for the benchmark's own run-wide records, mapped from the kernel
// instead of taken from malloc.
//
// At its defaults glibc's malloc serves blocks over 128 KiB with mmap, and
// when it frees such a block it raises its mmap and trim thresholds to fit
// that block: from then on the heap is trimmed less and big allocations
// come from the heap. A record buffer that outgrew 128 KiB and was
// reallocated mid-run would do exactly that, so the allocator the library
// is measured on would change at a moment set by the run's rate and
// length. Every buffer that grows with the run is a MappedVector, so the
// benchmark leaves malloc's state to the library (README.md, "Allocator").
// Mapped memory is not seen by the traced binary's counting allocator
// either.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <vector>

namespace e2e {

template <class T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <class U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept { munmap(p, n * sizeof(T)); }

  template <class U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace e2e
