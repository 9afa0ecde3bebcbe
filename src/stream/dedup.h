// Stream-side simplicity enforcement.
//
// The paper's algorithms assume a simple input graph. Real feeds (and
// SNAP text files, which list both edge directions) contain duplicates
// and self-loops; DedupFilter is the standard front-end that admits each
// undirected edge once, at O(#distinct edges) memory -- the unavoidable
// cost of exact online deduplication, paid by the ingest layer rather
// than the O(1)-per-estimator counters behind it.
//
// Turnstile semantics: the filter tracks the LIVE set, not the seen set.
// An insert passes iff the edge is not currently live (first insert, or
// re-insert after a delete); a delete passes iff the edge is live
// (deleting an absent or already-deleted edge is dropped, as is a delete
// of a self-loop). On an insert-only stream live == seen, so the filter
// behaves bit-identically to the historical seen-set version -- which is
// what keeps replay-after-resume exact for v1 streams.
//
// Slot layout: the table is a linear-probing power-of-two array of 8-byte
// slots that hold the edge key alone. Edge::Key() puts the smaller
// endpoint in the high word, and the filter never stores a self-loop, so
// a live key's high word is always below its low word. A deleted edge
// keeps its slot with the two words swapped (high word above low word),
// which marks it dead without an erase or a tombstone: the probe chains
// through it stay intact, and a re-insert finds and revives it. Neither
// form is ever 0 (that would take a self-loop at vertex 0), so 0 marks an
// empty slot. Every slot is hashed by its live form, on lookup and when
// the table doubles. A delete of an edge the filter has never seen
// inserts nothing.
//
// The slot array lives on 2 MiB pages (util/huge_pages.h) once it reaches
// 2 MiB. Every admission probes it at random, and on 4 KiB pages the
// presized 128 MiB table of a 9 M-edge file paid a page walk per probe and
// 32,768 first-touch faults.

#ifndef TRISTREAM_STREAM_DEDUP_H_
#define TRISTREAM_STREAM_DEDUP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/flat_hash_map.h"
#include "util/huge_pages.h"
#include "util/types.h"

namespace tristream {
namespace stream {

/// Admits each undirected edge once per live period; rejects self-loops,
/// repeats of live edges, and deletes of non-live edges.
class DedupFilter {
 public:
  explicit DedupFilter(std::size_t expected_edges = 1 << 12)
      : slots_(ProbeTableCapacity(expected_edges), kEmpty),
        mask_(slots_.size() - 1) {}

  /// Returns true when `e` is a new, valid simple edge (and records it).
  /// Equivalent to AdmitEvent(e, EdgeOp::kInsert).
  bool Admit(const Edge& e) { return AdmitEvent(e, EdgeOp::kInsert); }

  /// Turnstile admission: inserts pass iff the edge is not live, deletes
  /// pass iff it is. Self-loops and invalid edges never pass either way.
  bool AdmitEvent(const Edge& e, EdgeOp op) {
    ++offered_;
    if (e.self_loop() || !e.valid()) return false;
    const std::uint64_t key = e.Key();
    std::size_t idx = Probe(key);
    if (op == EdgeOp::kDelete) {
      if (slots_[idx] != key) return false;  // empty or dead: not live
      slots_[idx] = Swapped(key);
    } else {
      if (slots_[idx] == key) return false;  // already live
      if (slots_[idx] == kEmpty) {
        if ((used_ + 1) * 8 > slots_.size() * 7) {
          Grow();
          idx = Probe(key);
        }
        ++used_;
      }
      slots_[idx] = key;
    }
    ++admitted_;
    return true;
  }

  /// True when `e` is currently in the live set.
  bool IsLive(const Edge& e) const {
    if (e.self_loop() || !e.valid()) return false;
    return slots_[Probe(e.Key())] == e.Key();
  }

  /// Events offered so far (admitted + rejected).
  std::uint64_t offered() const { return offered_; }

  /// Events admitted (passed the filter). On an insert-only stream this
  /// equals the number of distinct simple edges seen.
  std::uint64_t admitted() const { return admitted_; }

  /// Memory held by the filter.
  std::size_t MemoryBytes() const {
    return slots_.size() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  /// The same edge with its two key words exchanged: a live key's dead
  /// form and back.
  static std::uint64_t Swapped(std::uint64_t key) {
    return std::rotl(key, 32);
  }

  /// The live form of an occupied slot, which is what it is hashed by.
  static std::uint64_t LiveForm(std::uint64_t slot) {
    return (slot >> 32) < (slot & 0xffffffffu) ? slot : Swapped(slot);
  }

  /// Index of the slot holding live `key` in either form, or of the empty
  /// slot where it would be inserted.
  std::size_t Probe(std::uint64_t key) const {
    const std::uint64_t dead = Swapped(key);
    std::size_t idx = U64Mixer()(key) & mask_;
    while (slots_[idx] != kEmpty && slots_[idx] != key &&
           slots_[idx] != dead) {
      idx = (idx + 1) & mask_;
    }
    return idx;
  }

  /// Doubles the table, re-placing every slot (live or dead) by its live
  /// form.
  void Grow() {
    const HugePageVector<std::uint64_t> old = std::move(slots_);
    slots_.assign(2 * old.size(), kEmpty);
    mask_ = slots_.size() - 1;
    for (const std::uint64_t slot : old) {
      if (slot == kEmpty) continue;
      std::size_t idx = U64Mixer()(LiveForm(slot)) & mask_;
      while (slots_[idx] != kEmpty) idx = (idx + 1) & mask_;
      slots_[idx] = slot;
    }
  }

  HugePageVector<std::uint64_t> slots_;  // live key, swapped dead key, or 0
  std::size_t mask_;
  std::size_t used_ = 0;  // non-empty slots, live or dead
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
};

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_DEDUP_H_
