// Open-addressing hash map tuned for the bulk-processing tables.
//
// The paper's bulkTC implementation (Sec. 3.3 / Sec. 4) keeps hash tables
// per batch -- here Q (awaited closing edge -> subscriber list head) --
// which are (a) insert/lookup only, and (b) discarded wholesale after each
// batch. FlatHashMap is a linear-probing power-of-two table with
// epoch-based O(1) Clear(), so per-batch reuse costs nothing. The paper
// used GNU unordered_map; this is the production-quality equivalent (no
// per-node allocation, cache-friendly probing).
//
// Keys are 64-bit integers (vertex ids, packed edge keys). No erase
// support: none of the streaming tables delete entries.
//
// A slot is 16 bytes {key, value, epoch}. The two largest tables on the
// count path hold their keys in 8 bytes instead and keep their own
// arrays: the dedup live set (stream/dedup.h) and the batch index's
// vertex -> dense id table (core/bulk_engine.h). The users that remain
// need Clear() in O(1) or arbitrary 64-bit keys: Q, the samplers' and
// baselines' tables, the dynamic counter's groups, the generators' seen
// sets and graph::EdgeList's checks.

#ifndef TRISTREAM_UTIL_FLAT_HASH_MAP_H_
#define TRISTREAM_UTIL_FLAT_HASH_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace tristream {

/// Mixes a 64-bit key into a well-distributed hash (SplitMix64 finalizer).
struct U64Mixer {
  std::uint64_t operator()(std::uint64_t x) const {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }
};

/// Power-of-two slot count, at least 16, that holds `entries` below a 7/8
/// load: the sizing rule of the 8-byte-slot tables that keep their own
/// arrays (stream::DedupFilter, core::BatchIndex).
inline std::size_t ProbeTableCapacity(std::size_t entries) {
  std::size_t cap = 16;
  while (cap * 7 < entries * 8) cap *= 2;
  return cap;
}

/// Insert/lookup-only open-addressing map from uint64 keys to V.
template <typename V>
class FlatHashMap {
 public:
  /// Creates a table able to hold `expected_entries` before growing.
  explicit FlatHashMap(std::size_t expected_entries = 16) {
    Rehash(CapacityFor(expected_entries));
  }

  /// Number of live entries.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Removes all entries in O(1) by bumping the epoch.
  void Clear() {
    ++epoch_;
    size_ = 0;
    if (epoch_ == 0) {  // epoch wrapped: physically reset the slots
      epoch_ = 1;
      for (auto& slot : slots_) slot.epoch = 0;
    }
  }

  /// Clear() plus re-sizing for `expected_entries`: grows like Reserve();
  /// a larger allocation is kept but probed only over its first
  /// CapacityFor(expected_entries) slots, so a table reused across batches
  /// of varying size stays within cache without reallocating.
  void Reset(std::size_t expected_entries) {
    Clear();
    const std::size_t want = CapacityFor(expected_entries);
    if (want > slots_.size()) {
      Rehash(want);
    } else {
      mask_ = want - 1;
    }
  }

  /// Ensures capacity for `expected_entries` without rehashing later.
  void Reserve(std::size_t expected_entries) {
    const std::size_t want = CapacityFor(expected_entries);
    if (want > mask_ + 1) Rehash(std::max(want, slots_.size()));
  }

  /// Returns a reference to the value for `key`, default-constructing it on
  /// first access.
  V& operator[](std::uint64_t key) {
    if ((size_ + 1) * 8 > (mask_ + 1) * 7) {
      Rehash(std::max((mask_ + 1) * 2, slots_.size()));
    }
    std::size_t idx = Probe(key);
    Slot& slot = slots_[idx];
    if (slot.epoch != epoch_) {
      slot.epoch = epoch_;
      slot.key = key;
      slot.value = V();
      ++size_;
    }
    return slot.value;
  }

  /// Returns a pointer to the value for `key`, or nullptr when absent.
  V* Find(std::uint64_t key) {
    Slot& slot = slots_[Probe(key)];
    return slot.epoch == epoch_ ? &slot.value : nullptr;
  }
  const V* Find(std::uint64_t key) const {
    const Slot& slot = slots_[ProbeConst(key)];
    return slot.epoch == epoch_ ? &slot.value : nullptr;
  }

  /// True when `key` is present.
  bool Contains(std::uint64_t key) const { return Find(key) != nullptr; }

  /// Hints the slot a later lookup of `key` starts probing at into cache,
  /// so batch loops can overlap the miss with work on earlier keys.
  void Prefetch(std::uint64_t key) const {
    __builtin_prefetch(&slots_[U64Mixer()(key) & mask_]);
  }

  /// Calls fn(key, value) for every live entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.epoch == epoch_) fn(slot.key, slot.value);
    }
  }

  /// Bytes of heap memory held by the table.
  std::size_t MemoryBytes() const { return slots_.size() * sizeof(Slot); }

  /// Bytes a table sized for `entries` holds, by the same rule Reserve()
  /// and Reset() size it with.
  static std::size_t BytesFor(std::size_t entries) {
    return CapacityFor(entries) * sizeof(Slot);
  }

  /// Test-only: jumps the epoch counter so the wrap path of Clear() can be
  /// exercised without 2^32 real clears. Discards all live entries.
  void SetEpochForTesting(std::uint32_t epoch) {
    for (auto& slot : slots_) slot.epoch = 0;
    size_ = 0;
    epoch_ = epoch == 0 ? 1 : epoch;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    std::uint32_t epoch = 0;  // slot is live iff epoch == map epoch
  };

  static std::size_t CapacityFor(std::size_t entries) {
    std::size_t cap = 16;
    // Keep load factor below 7/8.
    while (cap * 7 < entries * 8) cap *= 2;
    return cap;
  }

  /// Index of the slot holding `key`, or of the empty slot where it would
  /// be inserted.
  std::size_t Probe(std::uint64_t key) const {
    std::size_t idx = U64Mixer()(key) & mask_;
    while (slots_[idx].epoch == epoch_ && slots_[idx].key != key) {
      idx = (idx + 1) & mask_;
    }
    return idx;
  }
  std::size_t ProbeConst(std::uint64_t key) const { return Probe(key); }

  void Rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t old_epoch = epoch_;
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    epoch_ = 1;
    const std::size_t previous_size = size_;
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.epoch == old_epoch) {
        std::size_t idx = U64Mixer()(slot.key) & mask_;
        while (slots_[idx].epoch == epoch_) idx = (idx + 1) & mask_;
        slots_[idx].key = slot.key;
        slots_[idx].value = std::move(slot.value);
        slots_[idx].epoch = epoch_;
        ++size_;
      }
    }
    TRISTREAM_DCHECK(size_ == previous_size);
    (void)previous_size;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

/// Insert/lookup-only set of uint64 keys.
class FlatHashSet {
 public:
  explicit FlatHashSet(std::size_t expected_entries = 16)
      : map_(expected_entries) {}

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.Clear(); }
  void Reserve(std::size_t expected_entries) { map_.Reserve(expected_entries); }

  /// Inserts `key`; returns true when it was newly added.
  bool Insert(std::uint64_t key) {
    const std::size_t before = map_.size();
    map_[key] = Empty{};
    return map_.size() != before;
  }

  bool Contains(std::uint64_t key) const { return map_.Contains(key); }

  /// Calls fn(key) for every element (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](std::uint64_t key, const Empty&) { fn(key); });
  }

  std::size_t MemoryBytes() const { return map_.MemoryBytes(); }

 private:
  struct Empty {};
  FlatHashMap<Empty> map_;
};

}  // namespace tristream

#endif  // TRISTREAM_UTIL_FLAT_HASH_MAP_H_
