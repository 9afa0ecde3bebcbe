// Tests for util/huge_pages.h: arrays of at least 2 MiB get their own
// 2 MiB-aligned mapping, released on destruction; smaller ones come from
// operator new; and under AddressSanitizer a mapping's tail past the array
// stays poisoned, so an overrun still fails as it would past operator
// new's redzone.

#include "util/huge_pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <vector>

#include "gtest/gtest.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

// Every non-aligned operator new and delete of this binary goes through
// malloc and free, so the test can count calls. The aligned forms stay the
// runtime's; they pair only with each other.
namespace {
std::size_t g_new_calls = 0;
std::size_t g_new_bytes = 0;

void* CountedNew(std::size_t bytes) {
  ++g_new_calls;
  g_new_bytes += bytes;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t bytes) { return CountedNew(bytes); }
void* operator new[](std::size_t bytes) { return CountedNew(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return CountedNew(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  return operator new(bytes, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tristream {
namespace {

constexpr std::size_t kWordsPerHugePage =
    kHugePageBytes / sizeof(std::uint64_t);

bool HugeAligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

/// 0 when every page of [p, p + bytes) is mapped, else mincore's errno
/// (ENOMEM for an unmapped page).
int MincoreErrno(const void* p, std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> residency((bytes + page - 1) / page);
  return ::mincore(const_cast<void*>(p), bytes, residency.data()) == 0
             ? 0
             : errno;
}

TEST(HugePagesTest, LargeArrayIsAlignedZeroFilledAndKeepsItsContents) {
  HugePageVector<std::uint64_t> v(kWordsPerHugePage);
  ASSERT_TRUE(HugeAligned(v.data()));
  for (const std::uint64_t word : v) ASSERT_EQ(word, 0u);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i * 3 + 1;
  // Growth moves the array to a new mapping and copies it.
  v.push_back(7);
  ASSERT_GT(v.capacity(), kWordsPerHugePage);
  EXPECT_TRUE(HugeAligned(v.data()));
  for (std::size_t i = 0; i < kWordsPerHugePage; ++i) {
    ASSERT_EQ(v[i], i * 3 + 1) << i;
  }
  EXPECT_EQ(v.back(), 7u);
  // assign() past the capacity, and from another mapped array.
  v.assign(4 * kWordsPerHugePage, 5);
  EXPECT_TRUE(HugeAligned(v.data()));
  for (const std::uint64_t word : v) ASSERT_EQ(word, 5u);
  HugePageVector<std::uint64_t> copy(2 * kWordsPerHugePage);
  for (std::size_t i = 0; i < copy.size(); ++i) copy[i] = ~i;
  v.assign(copy.begin(), copy.end());
  ASSERT_EQ(v.size(), copy.size());
  EXPECT_EQ(v, copy);
}

TEST(HugePagesTest, ArrayGrowsFromOperatorNewOntoItsOwnMapping) {
  // Below 2 MiB, then past it: the contents follow the array across.
  HugePageVector<std::uint32_t> v;
  for (std::uint32_t i = 0; i < kHugePageBytes / sizeof(std::uint32_t) + 10;
       ++i) {
    v.push_back(i);
  }
  EXPECT_TRUE(HugeAligned(v.data()));
  for (std::uint32_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], i);
  v.resize(100);
  v.shrink_to_fit();
  for (std::uint32_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], i);
}

TEST(HugePagesTest, ArrayBelowTwoMiBComesFromOperatorNew) {
  const std::size_t calls = g_new_calls;
  const std::size_t bytes = g_new_bytes;
  {
    HugePageVector<std::uint64_t> small(kWordsPerHugePage - 1);
    EXPECT_EQ(g_new_calls, calls + 1);
    EXPECT_EQ(g_new_bytes, bytes + kHugePageBytes - sizeof(std::uint64_t));
  }
  {
    HugePageVector<std::uint64_t> large(kWordsPerHugePage);
    EXPECT_EQ(g_new_calls, calls + 1);  // mapped, not from operator new
  }
}

TEST(HugePagesTest, MappingIsReleasedOnDestruction) {
  const void* data = nullptr;
  const std::size_t bytes = 3 * kHugePageBytes;
  {
    HugePageVector<std::uint64_t> v(bytes / sizeof(std::uint64_t), 1);
    data = v.data();
    ASSERT_EQ(MincoreErrno(data, bytes), 0);
  }
  EXPECT_EQ(MincoreErrno(data, bytes), ENOMEM);
}

TEST(HugePagesTest, TailPastTheArrayIsPoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  // A power-of-two table of at least 2 MiB fills its huge pages exactly;
  // the mapping still reaches past it.
  HugePageVector<std::uint64_t> v(kWordsPerHugePage);
  const std::uint64_t* end = v.data() + v.size();
  EXPECT_FALSE(__asan_address_is_poisoned(end - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(end));
  v.resize(v.size() + 1);  // grows onto a new, longer mapping
  EXPECT_FALSE(__asan_address_is_poisoned(v.data() + v.size() - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(v.data() + v.capacity()));
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

TEST(HugePagesTest, AnonHugePagesIsReadWhereTheKernelReportsIt) {
  const bool readable = std::ifstream("/proc/self/smaps_rollup").good();
  EXPECT_EQ(AnonHugePageBytes().has_value(), readable);
}

}  // namespace
}  // namespace tristream
