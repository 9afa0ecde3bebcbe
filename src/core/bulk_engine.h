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
// the events instead of replaying them: EVENTA's β snapshot per incidence
// (an edge's endpoint), and EVENTB as per-vertex incidence lists, so
// Γ(r1)(x) = {EVENTB(x, d) : β(r1)(x) < d <= deg_B(x)} is a contiguous
// slice of x's list.
//
// Estimators read these events only at the endpoints of their r1 edges,
// so a build takes a vertex filter and indexes only the incidences whose
// vertex passes it. A vertex that passes keeps all its incidences, so its
// degree, its EVENTB list and its β values are those of the whole batch;
// a vertex that fails reads as absent. The filter's false positives only
// cost index space. The bulk counter filters by its lanes' r1 endpoints
// when batches are large against r, and passes kKeepAll otherwise
// (core/README.md).
//
// The vertex -> dense id table is the index's own linear-probing array of
// 8-byte slots {u32 vertex, u32 tag}. The tag folds in an epoch, base: a
// slot is live iff tag > base, and then its vertex's id is tag - base - 1,
// so every u32 is a valid vertex (serve frames can carry 0xffffffff).
// Build() empties the table in O(1) by advancing base past the previous
// batch's tags. It overwrites the table only when this batch's tags could
// pass 2^32 - 1, which takes about 2^32 batch vertices. A probe stops at
// the first slot that is not live, so an earlier batch's slot is as good
// as empty. The table is sized for half the kept incidences (w vertices
// when all 2w pass), doubles mid-build when a batch touches more, and
// never shrinks, so batches that each touch more pay for the growth once,
// not per batch.
//
// The index's large arrays live on 2 MiB pages (util/huge_pages.h) once
// they reach 2 MiB: with every incidence kept at w = 2^20 they hold
// ~48 MiB, and every kept incidence probes the vertex table and bumps
// begin_ at random. The per-incidence arrays are reserved for all 2w
// incidences, so a build touches only the pages its kept incidences fill.
//
// This header is an implementation detail of core::TriangleCounter; it is
// exposed (and unit-tested against the paper's Figure 2 worked example)
// because the event algebra is the subtle part of the whole scheme.

#ifndef TRISTREAM_CORE_BULK_ENGINE_H_
#define TRISTREAM_CORE_BULK_ENGINE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/estimator_kernels.h"
#include "util/flat_hash_map.h"
#include "util/huge_pages.h"
#include "util/logging.h"
#include "util/types.h"

namespace tristream {
namespace core {

/// Algorithm 2's events over one batch, built once and probed read-only.
/// Indexed vertices get dense ids in order of first appearance.
class BatchIndex {
 public:
  /// Dense id of a vertex that is not indexed.
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// An index for batches of up to `max_edges` edges. It reserves the kept
  /// bitmap here, next to its owner's other arrays: first allocated by a
  /// build on a serve worker thread, the bitmap left serve_mixed's peak
  /// RSS up to 3.7 MiB higher.
  explicit BatchIndex(std::size_t max_edges = 0) {
    blocks_.reserve((max_edges + 31) / 32);
  }

  /// Batch edge j's endpoints (index 0 = e.u, 1 = e.v): their dense ids
  /// and β(e_j), their in-batch degrees right after edge j -- the
  /// snapshot EVENTA(j) exposes.
  struct Position {
    std::uint32_t id[2];
    std::uint32_t beta[2];
  };

  /// The vertices a build indexes: a one-hash Bloom filter of 2^log2_bits
  /// bits (log2_bits >= 6), hashed by kernels::BloomBitIndex.
  struct VertexFilter {
    const std::uint64_t* bits;
    int log2_bits;

    std::uint64_t Passes(VertexId x) const {
      const std::uint64_t bit = kernels::BloomBitIndex(x, log2_bits);
      return bits[bit >> 6] >> (bit & 63) & 1;
    }
  };

  /// The filter that passes every vertex: one word of ones.
  static constexpr std::uint64_t kAllOnes[1] = {~std::uint64_t{0}};
  static constexpr VertexFilter kKeepAll = {kAllOnes, 6};

  /// Rebuilds the index over the incidences of `batch` whose vertex passes
  /// `filter`. A branch-free pass marks them in a bitmap of two bits per
  /// edge, with the count of kept incidences before each 32-edge block.
  /// One hashing pass over the kept incidences then assigns ids and
  /// records the degree snapshots, and a counting-sort scatter lays out
  /// the incidence lists. Storage is reused across batches.
  void Build(std::span<const Edge> batch, const VertexFilter& filter) {
    const std::size_t w = batch.size();
    // Incidence offsets are 32-bit and the lists hold up to 2w entries.
    TRISTREAM_CHECK(w <= 0x7fffffffu);
    blocks_.reserve((w + 31) / 32);
    blocks_.resize((w + 31) / 32);
    // kKeepAll's blocks are all ones and need no hashing: at w = 8192 the
    // hashing is ~1% of a batch.
    const bool keep_all = filter.bits == kAllOnes;
    std::uint32_t kept = 0;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::size_t end = std::min(w, 32 * b + 32);
      std::uint64_t bits = ~std::uint64_t{0} >> (64 - 2 * (end - 32 * b));
      if (!keep_all) {
        bits = 0;
        for (std::size_t j = 32 * b; j < end; ++j) {
          bits |= (filter.Passes(batch[j].u) | filter.Passes(batch[j].v) << 1)
                  << (2 * j & 63);
        }
      }
      blocks_[b] = {bits, kept};
      kept += static_cast<std::uint32_t>(std::popcount(bits));
    }
    Index(batch, kept);
  }

  /// Batch edge j's endpoint ids and β. Both of its endpoints must have
  /// passed the build's filter.
  Position position(std::size_t j) const {
    const std::size_t k = EntryOf(j);
    const Entry u = entries_[k];
    const Entry v = entries_[k + 1];
    // A self-loop bumps its vertex twice before either snapshot is taken.
    return {{u.id, v.id}, {u.id == v.id ? v.beta : u.beta, v.beta}};
  }

  /// Cache hints for a later position(j), in two steps some iterations
  /// apart: first the line of the kept bitmap that locates j's entries,
  /// then, once it has arrived, the entries.
  void PrefetchLocator(std::size_t j) const {
    __builtin_prefetch(&blocks_[j / 32]);
  }
  void PrefetchEntries(std::size_t j) const {
    __builtin_prefetch(&entries_[EntryOf(j)]);
  }

  /// Dense id of `x`, or kAbsent when it is not indexed: no batch edge
  /// touches it, or the build's filter rejected it.
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
  /// 2w distinct vertices, the most a batch can, all passing its filter.
  static std::size_t BytesFor(std::size_t w) {
    return ProbeTableCapacity(2 * w) * sizeof(Slot) +
           2 * w * sizeof(Entry) +
           (4 * w + 1) * sizeof(std::uint32_t) +
           (w + 31) / 32 * sizeof(Block);
  }

  /// Bytes of heap memory held by the index.
  std::size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           entries_.capacity() * sizeof(Entry) +
           (begin_.capacity() + incident_.capacity()) * sizeof(std::uint32_t) +
           blocks_.capacity() * sizeof(Block);
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

  /// An indexed incidence: its vertex's dense id and that vertex's
  /// in-batch degree right after it.
  struct Entry {
    std::uint32_t id;
    std::uint32_t beta;
  };

  /// 32 batch edges: bit 2i + s is set when endpoint s of the block's
  /// i-th edge passed the build's filter.
  struct Block {
    std::uint64_t kept;
    std::uint32_t before;  // kept incidences in earlier blocks
  };

  /// The entry of batch edge j's first endpoint: its rank among the
  /// indexed incidences.
  std::size_t EntryOf(std::size_t j) const {
    const Block& block = blocks_[j / 32];
    const std::uint64_t below = (std::uint64_t{1} << (2 * j & 63)) - 1;
    TRISTREAM_DCHECK((block.kept >> (2 * j & 63) & 3) == 3);
    return block.before + std::popcount(block.kept & below);
  }

  /// Incidence cursor: each Next() yields the next kept incidence 2j + s
  /// (endpoint s of batch edge j) in stream order.
  struct KeptIncidences {
    const Block* blocks;
    std::size_t b = ~std::size_t{0};
    std::uint64_t bits = 0;
    std::uint32_t Next() {
      while (bits == 0) bits = blocks[++b].kept;
      const auto i = static_cast<std::uint32_t>(64 * b) +
                     static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      return i;
    }
  };

  /// Indexes the `n` kept incidences: ids and β in one hashing pass, then
  /// the prefix sum and the scatter into incidence lists.
  void Index(std::span<const Edge> batch, std::size_t n) {
    const std::size_t w = batch.size();
    // n incidences touch at most n vertices but typically far fewer: size
    // the table for n / 2 and let it grow past that. The cap bounds eager
    // memory for pathologically large batches.
    constexpr std::size_t kMaxEagerReserve = std::size_t{1} << 22;
    EmptySlots(ProbeTableCapacity(std::min(n / 2, kMaxEagerReserve)), n);
    begin_.clear();
    begin_.reserve(std::min(n, kMaxEagerReserve) + 1);
    entries_.reserve(2 * w);
    entries_.resize(n);
    const auto vertex = [batch](std::uint32_t i) {
      const Edge& e = batch[i >> 1];
      return (i & 1) != 0 ? e.v : e.u;
    };
    // begin_ counts each id's incidences during the pass (the EVENTB
    // degrees) and becomes the exclusive prefix sum after it.
    const std::uint32_t base = base_;
    auto id_of = [this, base](VertexId x) {
      std::size_t idx = Probe(x);
      if (slots_[idx].tag <= base) {
        const std::size_t ids = begin_.size();
        if ((ids + 1) * 8 > (mask_ + 1) * 7) {
          Grow();
          idx = Probe(x);
        }
        slots_[idx] = {x, static_cast<std::uint32_t>(base + ids + 1)};
        begin_.push_back(0);
      }
      return slots_[idx].tag - base - 1;
    };
    // Three stages hide the misses of production batch sizes: kAhead
    // incidences early the vertex is read and its table slot prefetched;
    // then its id is resolved and its counter prefetched; kLag incidences
    // later the counter is bumped in stream order, which fixes β.
    constexpr std::size_t kLag = 16;
    constexpr std::size_t kAhead = 2 * kLag;  // also the ring's size
    VertexId ahead[kAhead];
    KeptIncidences cursor{blocks_.data()};
    const auto read_ahead = [&](std::size_t k) {
      const VertexId x = vertex(cursor.Next());
      ahead[k % kAhead] = x;
      __builtin_prefetch(&slots_[Home(x)]);
    };
    for (std::size_t k = 0; k < std::min(n, kAhead); ++k) read_ahead(k);
    for (std::size_t k = 0; k < n + kLag; ++k) {
      if (k < n) {
        const VertexId x = ahead[k % kAhead];
        if (k + kAhead < n) read_ahead(k + kAhead);
        const std::uint32_t id = id_of(x);
        entries_[k].id = id;
        __builtin_prefetch(&begin_[id], 1);
      }
      if (k >= kLag) {
        Entry& e = entries_[k - kLag];
        e.beta = ++begin_[e.id];
      }
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& b : begin_) {
      const std::uint32_t count = b;
      b = sum;
      sum += count;
    }
    begin_.push_back(sum);
    // EVENTB(x, d) lands in slot d - 1 of x's list.
    incident_.reserve(2 * w);
    incident_.resize(n);
    cursor = KeptIncidences{blocks_.data()};
    for (std::size_t k = 0; k < n; ++k) {
      const Entry& e = entries_[k];
      incident_[begin_[e.id] + e.beta - 1] = cursor.Next() >> 1;
    }
  }

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

  /// Empties the table for a build of `n` incidences, first growing it to
  /// at least `capacity` slots. Otherwise it retires the previous batch's
  /// tags by advancing base_ past them, and overwrites the table only when
  /// this batch's tags, up to base_ + n, could pass 2^32 - 1. The table
  /// never shrinks: a batch probes as wide a table as the widest batch
  /// before it needed.
  void EmptySlots(std::size_t capacity, std::size_t n) {
    const std::size_t previous = begin_.empty() ? 0 : begin_.size() - 1;
    if (capacity > slots_.size()) {
      slots_.assign(capacity, Slot{});
      base_ = 0;
    } else if (base_ + previous + n + 1 > 0xffffffffu) {
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
  HugePageVector<Entry> entries_;           // per indexed incidence
  HugePageVector<std::uint32_t> begin_;     // id -> first list slot; last
                                            //   = kept incidences
  HugePageVector<std::uint32_t> incident_;  // incidence lists, stream order
  std::vector<Block> blocks_;               // kept incidences, per 32 edges
};

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_BULK_ENGINE_H_
