// 2 MiB pages for the count path's large random-access tables.
//
// The dedup live set (stream/dedup.h, 128 MiB on a 9 M-edge input) and the
// batch index's tables (core/bulk_engine.h, ~48 MiB at w = 2^20) are probed
// at random, so nearly every probe misses the TLB. On 4 KiB pages each miss
// walks the page tables (in a virtual machine, both the guest's and the
// host's), and a presized 128 MiB table takes 32,768 first-touch faults.
// One 2 MiB page covers 512 of those: a 2 MiB-aligned mapping that is
// advised MADV_HUGEPAGE before its first touch can be backed by huge pages
// wherever transparent huge pages run in "always" or "madvise" mode.
//
// HugePageAllocator gives each array of at least 2 MiB its own anonymous
// mapping of that kind, and munmaps it when the vector frees it, so the
// memory goes back to the kernel at once. Smaller arrays cannot fill a huge
// page and come from operator new, as with std::allocator; every table of
// a serve session at --batch 8192 is that small. Where the kernel refuses
// the advice, the mapping keeps 4 KiB pages. Nothing selects between the
// two paths but the array's size.
//
// Only those tables use it. The bulk counter's lane-indexed arrays are
// swept in lane order, where page walks are rare; at equal 2 MiB alignment
// their same-index entries would also share cache sets (w = 8192 batches
// measured ~6% slower). The closing-edge map Q gained nothing measurable.
// The mapped arrays must hold no pointers: LeakSanitizer does not scan
// mappings it did not allocate.
//
// Under AddressSanitizer a mapping reaches past its array's end, and that
// tail is poisoned, so an overrun reports as one past operator new's
// redzone would.

#ifndef TRISTREAM_UTIL_HUGE_PAGES_H_
#define TRISTREAM_UTIL_HUGE_PAGES_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

namespace tristream {

/// Size of one huge page, and the smallest array that gets its own mapping.
inline constexpr std::size_t kHugePageBytes = std::size_t{1} << 21;

namespace internal {

/// Maps `bytes` (at least kHugePageBytes) 2 MiB-aligned and advised
/// MADV_HUGEPAGE. Throws std::bad_alloc when the kernel refuses the map.
void* MapHugePages(std::size_t bytes);

/// Releases what MapHugePages(bytes) returned.
void UnmapHugePages(void* data, std::size_t bytes) noexcept;

}  // namespace internal

/// std::vector allocator: arrays of at least kHugePageBytes on their own
/// huge-page mapping, smaller ones from operator new.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  // std::vector never asks for more than max_size() elements, so the
  // products below cannot overflow.
  T* allocate(std::size_t n) {
    if (n * sizeof(T) < kHugePageBytes) return std::allocator<T>().allocate(n);
    return static_cast<T*>(internal::MapHugePages(n * sizeof(T)));
  }

  void deallocate(T* data, std::size_t n) noexcept {
    if (n * sizeof(T) < kHugePageBytes) {
      std::allocator<T>().deallocate(data, n);
    } else {
      internal::UnmapHugePages(data, n * sizeof(T));
    }
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) {
    return true;
  }
};

/// A vector whose storage goes on huge pages once it reaches 2 MiB.
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

/// Bytes of this process's anonymous memory that the kernel backs with
/// huge pages (AnonHugePages in /proc/self/smaps_rollup), or nullopt when
/// that file cannot be read.
std::optional<std::size_t> AnonHugePageBytes();

}  // namespace tristream

#endif  // TRISTREAM_UTIL_HUGE_PAGES_H_
