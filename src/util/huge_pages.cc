#include "util/huge_pages.h"

#include <sys/mman.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <new>
#include <string>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace tristream {
namespace internal {
namespace {

#if defined(__SANITIZE_ADDRESS__)
// At least one byte of mapping past the array, poisoned below.
constexpr std::size_t kRedzoneBytes = 1;
#else
constexpr std::size_t kRedzoneBytes = 0;
#endif

/// Whole huge pages covering `bytes` plus the redzone.
std::size_t MappedBytes(std::size_t bytes) {
  return (bytes + kRedzoneBytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

}  // namespace

void* MapHugePages(std::size_t bytes) {
  if (bytes > std::numeric_limits<std::size_t>::max() - 3 * kHugePageBytes) {
    throw std::bad_alloc();
  }
  const std::size_t length = MappedBytes(bytes);
  // Over-map by one huge page, then trim both ends to the aligned range.
  const std::size_t padded = length + kHugePageBytes;
  void* raw = ::mmap(nullptr, padded, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned =
      (start + kHugePageBytes - 1) & ~std::uintptr_t{kHugePageBytes - 1};
  if (aligned > start) ::munmap(raw, aligned - start);
  const std::uintptr_t end = aligned + length;
  if (start + padded > end) {
    ::munmap(reinterpret_cast<void*>(end), start + padded - end);
  }
  auto* data = reinterpret_cast<void*>(aligned);
  // Refused advice (THP off, or an old kernel) leaves 4 KiB pages.
  ::madvise(data, length, MADV_HUGEPAGE);
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(data) + bytes, length - bytes);
#endif
  return data;
}

void UnmapHugePages(void* data, std::size_t bytes) noexcept {
  const std::size_t length = MappedBytes(bytes);
#if defined(__SANITIZE_ADDRESS__)
  // The next mapping at this address must not inherit the poison.
  ASAN_UNPOISON_MEMORY_REGION(data, length);
#endif
  ::munmap(data, length);
}

}  // namespace internal

std::optional<std::size_t> AnonHugePageBytes() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "AnonHugePages: %llu kB", &kib) == 1) {
      return static_cast<std::size_t>(kib) * 1024;
    }
  }
  return std::nullopt;
}

}  // namespace tristream
