// Internal building block of the bulk-processing algorithm (Sec. 3.3).
//
// Algorithm 2 of the paper is edgeIter, "a degree-keeping edge iterator":
// it sweeps a batch B once, maintaining the in-batch degree table deg[],
// and emits two event kinds:
//   EVENTA(i, {x,y}, deg)   -- after edge i, the degree table is deg;
//   EVENTB(i, {x,y}, v, a)  -- after edge i, vertex v's degree became a.
// Observation 3.6 turns these events into an implicit description of every
// estimator's level-2 candidate set N(r1) ∩ B, which is what lets bulkTC
// track r substreams simultaneously in O(r + w) time. BatchIndex stores
// the events instead of replaying them: EVENTA's β snapshot per edge, and
// EVENTB as per-vertex incidence lists, so Γ(r1)(x) = {EVENTB(x, d) :
// β(r1)(x) < d <= deg_B(x)} is a contiguous slice of x's list.
//
// The vertex -> dense id table is the index's own linear-probing array of
// 8-byte slots {u32 vertex, u32 tag}. The tag folds in an epoch, base: a
// slot is live iff tag > base, and then its vertex's id is tag - base - 1,
// so every u32 is a valid vertex (serve frames can carry 0xffffffff).
// Build() empties the table in O(1) by advancing base past the previous
// batch's tags. It overwrites the table only when this batch's tags could
// pass 2^32 - 1, which takes about 2^32 batch vertices. A probe stops at
// the first slot that is not live, so an earlier batch's slot is as good
// as empty. The table is sized for w vertices, doubles mid-build when a
// batch touches more, and never shrinks, so batches that each touch more
// than w vertices pay for the growth once, not per batch.
//
// The index's four arrays live on 2 MiB pages (util/huge_pages.h) once
// they reach 2 MiB: at w = 2^20 they hold ~48 MiB, and every batch edge
// probes the vertex table and bumps begin_ at random.
//
// This header is an implementation detail of core::TriangleCounter; it is
// exposed (and unit-tested against the paper's Figure 2 worked example)
// because the event algebra is the subtle part of the whole scheme.

#ifndef TRISTREAM_CORE_BULK_ENGINE_H_
#define TRISTREAM_CORE_BULK_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "util/flat_hash_map.h"
#include "util/huge_pages.h"
#include "util/logging.h"
#include "util/types.h"

namespace tristream {
namespace core {

/// Algorithm 2's events over one batch, built once and probed read-only.
/// Batch vertices get dense ids in order of first appearance.
class BatchIndex {
 public:
  /// Dense id of a vertex that does not occur in the batch.
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Batch edge j's endpoints (index 0 = e.u, 1 = e.v): their dense ids
  /// and β(e_j), their in-batch degrees right after edge j -- the
  /// snapshot EVENTA(j) exposes.
  struct Position {
    std::uint32_t id[2];
    std::uint32_t beta[2];
  };

  /// Rebuilds the index over `batch`: one hashing pass assigns ids and
  /// records the degree snapshots, then a counting-sort scatter lays out
  /// the incidence lists. Storage is reused across batches.
  void Build(std::span<const Edge> batch) {
    const std::size_t w = batch.size();
    // Incidence offsets are 32-bit and the lists hold 2w entries.
    TRISTREAM_CHECK(w <= 0x7fffffffu);
    // A batch touches at most 2w vertices but typically far fewer: size the
    // table for w and let it grow past that. The cap bounds eager memory
    // for pathologically large batches.
    constexpr std::size_t kMaxEagerReserve = std::size_t{1} << 22;
    EmptySlots(ProbeTableCapacity(std::min(w, kMaxEagerReserve)), w);
    begin_.clear();
    begin_.reserve(std::min(2 * w, kMaxEagerReserve) + 1);
    positions_.resize(w);
    // begin_ counts each id's incidences during the pass (the EVENTB
    // degrees) and becomes the exclusive prefix sum after it.
    const std::uint32_t base = base_;
    auto id_of = [this, base](VertexId x) {
      std::size_t idx = Probe(x);
      if (slots_[idx].tag <= base) {
        const std::size_t n = begin_.size();
        if ((n + 1) * 8 > (mask_ + 1) * 7) {
          Grow();
          idx = Probe(x);
        }
        slots_[idx] = {x, static_cast<std::uint32_t>(base + n + 1)};
        begin_.push_back(0);
      }
      return slots_[idx].tag - base - 1;
    };
    // Two stages kLag edges apart hide the misses of production batch
    // sizes: the first resolves an edge's ids (their table slots were
    // prefetched 2 * kLag edges earlier) and prefetches their counters,
    // the second bumps the counters in stream order, which fixes β.
    constexpr std::size_t kLag = 8;
    for (std::size_t j = 0; j < w + kLag; ++j) {
      if (j + 2 * kLag < w) {
        __builtin_prefetch(&slots_[Home(batch[j + 2 * kLag].u)]);
        __builtin_prefetch(&slots_[Home(batch[j + 2 * kLag].v)]);
      }
      if (j < w) {
        Position& p = positions_[j];
        p.id[0] = id_of(batch[j].u);
        p.id[1] = id_of(batch[j].v);
        __builtin_prefetch(&begin_[p.id[0]], 1);
        __builtin_prefetch(&begin_[p.id[1]], 1);
      }
      if (j >= kLag) {
        Position& p = positions_[j - kLag];
        const std::uint32_t du = ++begin_[p.id[0]];
        const std::uint32_t dv = ++begin_[p.id[1]];
        // β is the degree after the whole edge: a self-loop counts twice
        // before either snapshot is taken.
        p.beta[0] = p.id[0] == p.id[1] ? dv : du;
        p.beta[1] = dv;
      }
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& b : begin_) {
      const std::uint32_t count = b;
      b = sum;
      sum += count;
    }
    begin_.push_back(sum);
    // EVENTB(x, d) lands in slot d - 1 of x's list. For a self-loop the u
    // side fired EVENTB one degree below its β.
    incident_.resize(2 * w);
    for (std::size_t j = 0; j < w; ++j) {
      const Position& p = positions_[j];
      const auto pos = static_cast<std::uint32_t>(j);
      incident_[begin_[p.id[0]] + p.beta[0] - 1 - (p.id[0] == p.id[1])] = pos;
      incident_[begin_[p.id[1]] + p.beta[1] - 1] = pos;
    }
  }

  const Position& position(std::size_t j) const { return positions_[j]; }

  /// Dense id of `x`, or kAbsent when no batch edge touches it.
  std::uint32_t IdOf(VertexId x) const {
    const Slot& slot = slots_[Probe(x)];
    return slot.tag > base_ ? slot.tag - base_ - 1 : kAbsent;
  }

  /// deg_B of the vertex with dense id `id` (0 for kAbsent).
  std::uint32_t Degree(std::uint32_t id) const {
    return id == kAbsent ? 0 : begin_[id + 1] - begin_[id];
  }

  /// EVENTB(x, d): the batch position at which the in-batch degree of the
  /// vertex with dense id `id` reached d, for 1 <= d <= Degree(id).
  std::uint32_t EventB(std::uint32_t id, std::uint32_t d) const {
    return incident_[begin_[id] + d - 1];
  }

  /// Bytes Build() leaves allocated for a batch of `w` edges that touches
  /// 2w distinct vertices, the most a batch can.
  static std::size_t BytesFor(std::size_t w) {
    return ProbeTableCapacity(2 * w) * sizeof(Slot) +
           w * sizeof(Position) +
           (4 * w + 1) * sizeof(std::uint32_t);
  }

  /// Bytes of heap memory held by the index.
  std::size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           positions_.capacity() * sizeof(Position) +
           (begin_.capacity() + incident_.capacity()) * sizeof(std::uint32_t);
  }

  /// Test-only: empties the table and restarts the tag epoch at `base`, so
  /// the wrap path of Build() runs without 2^32 / 2w real batches.
  void SetBaseForTesting(std::uint32_t base) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    begin_.clear();
    base_ = base;
  }

 private:
  /// One vertex table entry, live iff tag > base_ (so 0 is always empty).
  struct Slot {
    std::uint32_t vertex = 0;
    std::uint32_t tag = 0;  // base_ + id + 1 while live
  };

  std::size_t Home(VertexId x) const { return U64Mixer()(x) & mask_; }

  /// Index of the live slot holding `x`, or of the first slot that is not
  /// live, where it would go.
  std::size_t Probe(VertexId x) const {
    std::size_t idx = Home(x);
    while (slots_[idx].tag > base_ && slots_[idx].vertex != x) {
      idx = (idx + 1) & mask_;
    }
    return idx;
  }

  /// Empties the table for a batch of `w` edges, first growing it to at
  /// least `capacity` slots. Otherwise it retires the previous batch's
  /// tags by advancing base_ past them, and overwrites the table only when
  /// this batch's tags, up to base_ + 2w, could pass 2^32 - 1. The table
  /// never shrinks: a batch probes as wide a table as the widest batch
  /// before it needed.
  void EmptySlots(std::size_t capacity, std::size_t w) {
    const std::size_t previous = begin_.empty() ? 0 : begin_.size() - 1;
    if (capacity > slots_.size()) {
      slots_.assign(capacity, Slot{});
      base_ = 0;
    } else if (base_ + previous + 2 * w + 1 > 0xffffffffu) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      base_ = 0;
    } else {
      base_ += static_cast<std::uint32_t>(previous);
    }
    mask_ = slots_.size() - 1;
  }

  /// Doubles the table mid-build and re-places this batch's entries.
  void Grow() {
    const HugePageVector<Slot> old = std::move(slots_);
    slots_.assign(2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.tag > base_) slots_[Probe(slot.vertex)] = slot;
    }
  }

  HugePageVector<Slot> slots_ = HugePageVector<Slot>(16);  // vertex -> tag
  std::size_t mask_ = 15;                   // slots_.size() - 1
  std::uint32_t base_ = 0;                  // tags at or below it are dead
  HugePageVector<Position> positions_;      // per batch position
  HugePageVector<std::uint32_t> begin_;     // id -> first list slot; [n] = 2w
  HugePageVector<std::uint32_t> incident_;  // incidence lists, stream order
};

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_BULK_ENGINE_H_
