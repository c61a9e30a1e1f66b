#ifndef QVT_UTIL_ALIGNED_H_
#define QVT_UTIL_ALIGNED_H_

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace qvt {

/// Alignment of buffers fed to the batched distance kernels
/// (geometry/kernels.h). 32 bytes covers AVX2 loads; SSE2 needs less.
inline constexpr size_t kKernelAlignment = 32;

/// Minimal std::allocator replacement that over-aligns every allocation.
/// Used for the flat descriptor buffers the SIMD scan kernels read, so a
/// chunk whose row stride is a multiple of the alignment keeps every row
/// aligned as well (dim 24 -> 96-byte rows -> 32-byte aligned rows).
template <typename T, size_t Alignment = kKernelAlignment>
class AlignedAllocator {
 public:
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "alignment must not weaken the type's natural alignment");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }
};

template <typename T, typename U, size_t A>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return true;
}
template <typename T, typename U, size_t A>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, A>&) {
  return false;
}

/// std::vector whose data() is kKernelAlignment-aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace qvt

#endif  // QVT_UTIL_ALIGNED_H_
