#include "util/flat_hash_map.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace tristream {
namespace {

TEST(FlatHashMapTest, StartsEmpty) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(42), nullptr);
}

TEST(FlatHashMapTest, InsertAndFind) {
  FlatHashMap<int> map;
  map[7] = 99;
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 99);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, OperatorBracketDefaultConstructs) {
  FlatHashMap<int> map;
  EXPECT_EQ(map[5], 0);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, OverwriteKeepsSingleEntry) {
  FlatHashMap<int> map;
  map[3] = 1;
  map[3] = 2;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(3), 2);
}

TEST(FlatHashMapTest, ZeroKeyIsUsable) {
  FlatHashMap<int> map;
  map[0] = 17;
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 17);
}

TEST(FlatHashMapTest, MaxKeyIsUsable) {
  FlatHashMap<int> map;
  const std::uint64_t k = ~0ULL;
  map[k] = 5;
  EXPECT_EQ(*map.Find(k), 5);
}

TEST(FlatHashMapTest, ClearEmptiesInstantly) {
  FlatHashMap<int> map;
  for (std::uint64_t i = 0; i < 100; ++i) map[i] = static_cast<int>(i);
  map.Clear();
  EXPECT_TRUE(map.empty());
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(map.Find(i), nullptr);
}

TEST(FlatHashMapTest, ReusableAfterClear) {
  FlatHashMap<int> map;
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t i = 0; i < 50; ++i) map[i] = round;
    EXPECT_EQ(map.size(), 50u);
    EXPECT_EQ(*map.Find(7), round);
    map.Clear();
  }
}

TEST(FlatHashMapTest, ManyClearsDoNotLeakEntries) {
  FlatHashMap<int> map;
  for (int round = 0; round < 10000; ++round) {
    map[static_cast<std::uint64_t>(round)] = round;
    map.Clear();
  }
  EXPECT_TRUE(map.empty());
}

TEST(FlatHashMapTest, GrowsBeyondInitialCapacity) {
  FlatHashMap<std::uint64_t> map(4);
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t i = 0; i < kN; ++i) map[i * 31 + 7] = i;
  EXPECT_EQ(map.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_NE(map.Find(i * 31 + 7), nullptr);
    EXPECT_EQ(*map.Find(i * 31 + 7), i);
  }
}

TEST(FlatHashMapTest, ForEachVisitsAllEntriesOnce) {
  FlatHashMap<std::uint64_t> map;
  for (std::uint64_t i = 0; i < 500; ++i) map[i] = i * 2;
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  map.ForEach([&seen](std::uint64_t k, const std::uint64_t& v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate key " << k;
  });
  EXPECT_EQ(seen.size(), 500u);
  for (const auto& [k, v] : seen) EXPECT_EQ(v, k * 2);
}

TEST(FlatHashMapTest, AgreesWithUnorderedMapUnderRandomWorkload) {
  FlatHashMap<std::uint64_t> ours(8);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(314);
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng.UniformBelow(5000);
    switch (rng.UniformBelow(3)) {
      case 0: {
        const std::uint64_t val = rng.Next();
        ours[key] = val;
        ref[key] = val;
        break;
      }
      case 1: {
        auto* p = ours.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(p != nullptr, it != ref.end());
        if (p != nullptr) {
          ASSERT_EQ(*p, it->second);
        }
        break;
      }
      case 2: {
        if (rng.CoinOneIn(1000)) {
          ours.Clear();
          ref.clear();
        }
        break;
      }
    }
    ASSERT_EQ(ours.size(), ref.size());
  }
}

TEST(FlatHashMapTest, AdversarialCollidingKeys) {
  // Keys equal modulo table capacity exercise long probe chains.
  FlatHashMap<std::uint64_t> map(16);
  constexpr std::uint64_t kStride = 1 << 20;
  for (std::uint64_t i = 0; i < 300; ++i) map[i * kStride] = i;
  for (std::uint64_t i = 0; i < 300; ++i) {
    ASSERT_NE(map.Find(i * kStride), nullptr);
    EXPECT_EQ(*map.Find(i * kStride), i);
  }
  EXPECT_EQ(map.Find(301 * kStride), nullptr);
}

TEST(FlatHashMapTest, ReserveThenInsertDoesNotRehash) {
  // The bulk engine pre-sizes its scratch tables per batch; Reserve(n)
  // must guarantee n inserts without a capacity change (MemoryBytes is a
  // direct function of capacity, so it must stay frozen).
  constexpr std::size_t kN = 10000;
  FlatHashMap<std::uint64_t> map;
  map.Reserve(kN);
  const std::size_t bytes_before = map.MemoryBytes();
  for (std::uint64_t i = 0; i < kN; ++i) map[i * 2654435761u + 3] = i;
  EXPECT_EQ(map.size(), kN);
  EXPECT_EQ(map.MemoryBytes(), bytes_before);
  // Reserve for fewer entries than present must be a no-op, and the table
  // must still behave after a Clear() + refill cycle at that capacity.
  map.Reserve(kN / 2);
  EXPECT_EQ(map.MemoryBytes(), bytes_before);
  map.Clear();
  for (std::uint64_t i = 0; i < kN; ++i) map[i] = i;
  EXPECT_EQ(map.MemoryBytes(), bytes_before);
  EXPECT_EQ(*map.Find(kN - 1), kN - 1);
}

TEST(FlatHashMapTest, ReserveOnEmptyPreservesEntriesAcrossGrowth) {
  FlatHashMap<std::uint64_t> map(4);
  for (std::uint64_t i = 0; i < 8; ++i) map[i] = i + 100;
  map.Reserve(4096);  // grow with live entries: all must survive the rehash
  EXPECT_EQ(map.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_NE(map.Find(i), nullptr);
    EXPECT_EQ(*map.Find(i), i + 100);
  }
}

TEST(FlatHashMapTest, ClearEpochWrapResetsSlots) {
  // Clear() is O(1) epoch bumping until the 32-bit epoch wraps, at which
  // point every slot must be physically reset or entries from epoch 1
  // would spuriously resurrect. Jump to the last epoch and force the wrap.
  // Pre-size the table: a rehash would reset the epoch and dodge the wrap.
  FlatHashMap<int> map(256);
  map.SetEpochForTesting(0xffffffffu);
  const std::size_t bytes_before = map.MemoryBytes();
  for (std::uint64_t i = 0; i < 100; ++i) map[i] = static_cast<int>(i);
  EXPECT_EQ(map.size(), 100u);
  ASSERT_EQ(map.MemoryBytes(), bytes_before);  // no rehash: epoch still max
  map.Clear();  // wraps: must not leave any slot looking live
  EXPECT_TRUE(map.empty());
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(map.Find(i), nullptr);
  // The wrapped table must be fully usable again.
  for (std::uint64_t i = 50; i < 150; ++i) map[i] = static_cast<int>(i * 3);
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(*map.Find(149), 447);
  EXPECT_EQ(map.Find(0), nullptr);
  map.Clear();  // post-wrap clears take the cheap path again
  EXPECT_TRUE(map.empty());
}

TEST(FlatHashMapTest, ResetClearsAndNarrowsWithoutReallocating) {
  FlatHashMap<int> map(1 << 16);
  for (int k = 0; k < 1000; ++k) map[k] = k;
  const std::size_t bytes = map.MemoryBytes();
  map.Reset(100);  // probes a small prefix, keeps the allocation
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(map.MemoryBytes(), bytes);
  // Overflowing the prefix rehashes within the allocation's size.
  for (int k = 0; k < 5000; ++k) map[k] = 2 * k;
  EXPECT_EQ(map.size(), 5000u);
  for (int k = 0; k < 5000; ++k) ASSERT_EQ(*map.Find(k), 2 * k);
  EXPECT_EQ(map.MemoryBytes(), bytes);
  map.Reset(100);
  map.Reserve(3000);  // widens the prefix again
  for (int k = 0; k < 3000; ++k) map[k] = k;
  EXPECT_EQ(*map.Find(2999), 2999);
  EXPECT_EQ(map.MemoryBytes(), bytes);
  map.Reset(1 << 18);  // grows like Reserve
  EXPECT_TRUE(map.empty());
  EXPECT_GT(map.MemoryBytes(), bytes);
}

TEST(FlatHashMapTest, MemoryBytesGrowsWithCapacity) {
  FlatHashMap<std::uint64_t> small(4);
  FlatHashMap<std::uint64_t> big(1 << 16);
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(FlatHashSetTest, InsertReportsNovelty) {
  FlatHashSet set;
  EXPECT_TRUE(set.Insert(4));
  EXPECT_FALSE(set.Insert(4));
  EXPECT_TRUE(set.Insert(5));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatHashSetTest, ContainsAfterInsert) {
  FlatHashSet set;
  set.Insert(123);
  EXPECT_TRUE(set.Contains(123));
  EXPECT_FALSE(set.Contains(124));
}

TEST(FlatHashSetTest, ClearResets) {
  FlatHashSet set;
  for (std::uint64_t i = 0; i < 64; ++i) set.Insert(i);
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(1));
}

TEST(FlatHashSetTest, ForEachVisitsAll) {
  FlatHashSet set;
  for (std::uint64_t i = 100; i < 200; ++i) set.Insert(i);
  std::unordered_set<std::uint64_t> seen;
  set.ForEach([&seen](std::uint64_t k) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_TRUE(seen.count(150));
}

}  // namespace
}  // namespace tristream
