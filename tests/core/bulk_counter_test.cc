// Tests for the bulk-processing engine (Sec. 3.3 / Theorem 3.5):
//   * the batch index against the paper's Figure 2 worked example (deg
//     tables, β values, EVENTB positions, Observation 3.6's Γ sets), on
//     multigraph input, and through vertex filters (a filtered build
//     against the keep-all one);
//   * deterministic estimator-state invariants across batch sizes,
//     including w = 1 (which must behave like the sequential algorithm);
//   * distributional equivalence with the naive engine;
//   * end-to-end accuracy, determinism, SIMD dispatch on/off, and memory
//     stats. (Deeper cross-ISA bit-identity lives in
//     simd_equivalence_test.cc.)

#include <cmath>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/bulk_engine.h"
#include "core/estimator_kernels.h"
#include "core/triangle_counter.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "tests/core/core_test_util.h"
#include "util/flat_hash_map.h"
#include "util/simd.h"
#include "util/types.h"

namespace tristream {
namespace core {
namespace {

// ------------------------------------------------ Figure 2 worked example

// The paper's Figure 2: batch B = <KL, JK, IK, IJ, IL> arriving after one
// earlier edge. Vertices: I=0, J=1, K=2, L=3.
constexpr VertexId kI = 0, kJ = 1, kK = 2, kL = 3;

std::vector<Edge> Figure2Batch() {
  return {Edge(kK, kL), Edge(kJ, kK), Edge(kI, kK), Edge(kI, kJ),
          Edge(kI, kL)};
}

// deg of the vertex with dense id `id` after batch edge `step`: the
// number of its EVENTB positions at or before `step`.
std::uint32_t DegreeAfter(const BatchIndex& index, std::uint32_t id,
                          std::size_t step) {
  std::uint32_t d = 0;
  while (d < index.Degree(id) && index.EventB(id, d + 1) <= step) ++d;
  return d;
}

TEST(BatchIndexTest, Figure2DegreeTable) {
  // Expected deg_B(i) snapshots per the figure:
  //        I  J  K  L
  // KL  :  -  -  1  1
  // JK  :  -  1  2  1
  // IK  :  1  1  3  1
  // IJ  :  2  2  3  1
  // IL  :  3  2  3  2
  const std::vector<std::vector<std::uint32_t>> expected = {
      {0, 0, 1, 1}, {0, 1, 2, 1}, {1, 1, 3, 1}, {2, 2, 3, 1}, {3, 2, 3, 2}};
  const auto batch = Figure2Batch();
  BatchIndex index;
  index.Build(batch, BatchIndex::kKeepAll);
  // Dense ids follow first appearance: K, L, J, I.
  EXPECT_EQ(index.IdOf(kK), 0u);
  EXPECT_EQ(index.IdOf(kL), 1u);
  EXPECT_EQ(index.IdOf(kJ), 2u);
  EXPECT_EQ(index.IdOf(kI), 3u);
  EXPECT_EQ(index.IdOf(7), BatchIndex::kAbsent);
  for (std::size_t step = 0; step < batch.size(); ++step) {
    // EVENTA's snapshot: each edge's endpoints, right after the edge.
    EXPECT_EQ(index.position(step).beta[0], expected[step][batch[step].u])
        << "step " << step;
    EXPECT_EQ(index.position(step).beta[1], expected[step][batch[step].v])
        << "step " << step;
    EXPECT_EQ(index.position(step).id[0], index.IdOf(batch[step].u));
    EXPECT_EQ(index.position(step).id[1], index.IdOf(batch[step].v));
    // The whole table row is recoverable from the incidence lists.
    for (VertexId v = 0; v < 4; ++v) {
      EXPECT_EQ(DegreeAfter(index, index.IdOf(v), step), expected[step][v])
          << "step " << step << " vertex " << v;
    }
  }
  // The list lengths are deg_B.
  EXPECT_EQ(index.Degree(index.IdOf(kI)), 3u);
  EXPECT_EQ(index.Degree(index.IdOf(kJ)), 2u);
  EXPECT_EQ(index.Degree(index.IdOf(kK)), 3u);
  EXPECT_EQ(index.Degree(index.IdOf(kL)), 2u);
}

TEST(BatchIndexTest, Figure2EventBSequence) {
  // Each edge fires EVENTB for both endpoints with the updated degree;
  // these are the circled entries of the figure, and each one is the
  // (d - 1)-th entry of its vertex's incidence list.
  struct EventB {
    std::size_t i;
    VertexId v;
    std::uint32_t d;
  };
  const auto batch = Figure2Batch();
  BatchIndex index;
  index.Build(batch, BatchIndex::kKeepAll);
  const std::vector<EventB> expected = {
      {0, kK, 1}, {0, kL, 1}, {1, kJ, 1}, {1, kK, 2}, {2, kI, 1},
      {2, kK, 3}, {3, kI, 2}, {3, kJ, 2}, {4, kI, 3}, {4, kL, 2}};
  std::uint32_t total = 0;
  for (VertexId v = 0; v < 4; ++v) total += index.Degree(index.IdOf(v));
  EXPECT_EQ(total, expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(index.EventB(index.IdOf(expected[k].v), expected[k].d),
              expected[k].i)
        << "event " << k;
  }
}

TEST(BatchIndexTest, Figure2Observation36) {
  // Observation 3.6 on the worked example:
  //   β(JK)(K) = 2, β(IK)(I) = 1, and for e ∉ B, β(e)(v) = 0.
  //   N(IK) ∩ B = Γ(IK)(I) ∪ Γ(IK)(K) = {IJ, IL} ∪ {} (no K-edge after IK).
  const auto batch = Figure2Batch();
  BatchIndex index;
  index.Build(batch, BatchIndex::kKeepAll);
  EXPECT_EQ(index.position(1).beta[1], 2u);  // β(JK)(K)
  // β(IK): at index 2, deg(I)=1, deg(K)=3.
  const std::uint32_t beta_i = index.position(2).beta[0];
  const std::uint32_t beta_k = index.position(2).beta[1];
  EXPECT_EQ(beta_i, 1u);
  EXPECT_EQ(beta_k, 3u);
  // Γ(IK)(I) by rank: EVENTB(I, β+1) .. EVENTB(I, deg_B) = IJ, IL.
  const std::uint32_t id_i = index.IdOf(kI);
  ASSERT_EQ(index.Degree(id_i) - beta_i, 2u);
  EXPECT_EQ(index.EventB(id_i, beta_i + 1), 3u);  // IJ at batch index 3
  EXPECT_EQ(index.EventB(id_i, beta_i + 2), 4u);  // IL at batch index 4
  // Γ(IK)(K) is empty.
  EXPECT_EQ(index.Degree(index.IdOf(kK)) - beta_k, 0u);
}

TEST(BatchIndexTest, SelfLoopsAndRepeatsFollowEdgeIter) {
  // Raw socket input is a multigraph. Algorithm 2 bumps a self-loop's
  // vertex twice before EVENTA, so both β entries read the doubled degree
  // and the vertex's list holds the position twice; a repeated edge is
  // just another incidence.
  const std::vector<Edge> batch = {Edge(5, 6), Edge(5, 5), Edge(6, 5),
                                   Edge(5, 9)};
  BatchIndex index;
  index.Build(batch, BatchIndex::kKeepAll);
  const std::uint32_t id5 = index.IdOf(5);
  EXPECT_EQ(index.position(1).beta[0], 3u);
  EXPECT_EQ(index.position(1).beta[1], 3u);
  EXPECT_EQ(index.position(2).beta[0], 2u);  // 6 after the repeat
  EXPECT_EQ(index.position(2).beta[1], 4u);  // 5 after the repeat
  ASSERT_EQ(index.Degree(id5), 5u);
  const std::vector<std::uint32_t> expected_list = {0, 1, 1, 2, 3};
  for (std::uint32_t d = 1; d <= 5; ++d) {
    EXPECT_EQ(index.EventB(id5, d), expected_list[d - 1]) << "d " << d;
  }
  EXPECT_EQ(index.Degree(index.IdOf(6)), 2u);
  EXPECT_EQ(index.Degree(index.IdOf(9)), 1u);
}

TEST(BatchIndexTest, SecondBuildForgetsTheFirstBatch) {
  // The vertex table is reused across batches: a vertex seen only in an
  // earlier batch must read as absent, including after a large batch is
  // followed by a small one.
  std::vector<Edge> first;
  for (VertexId i = 0; i < 1000; ++i) first.emplace_back(i, 1000 + i % 37);
  BatchIndex index;
  index.Build(first, BatchIndex::kKeepAll);
  ASSERT_NE(index.IdOf(999), BatchIndex::kAbsent);
  const std::vector<Edge> second = {Edge(5000, 6000), Edge(3, 5000)};
  index.Build(second, BatchIndex::kKeepAll);
  EXPECT_EQ(index.IdOf(5000), 0u);
  EXPECT_EQ(index.IdOf(6000), 1u);
  EXPECT_EQ(index.IdOf(3), 2u);
  EXPECT_EQ(index.Degree(index.IdOf(5000)), 2u);
  EXPECT_EQ(index.Degree(index.IdOf(3)), 1u);
  for (VertexId v = 0; v < 1037; ++v) {
    if (v == 3) continue;
    EXPECT_EQ(index.IdOf(v), BatchIndex::kAbsent) << "vertex " << v;
  }
}

TEST(BatchIndexTest, VertexDisjointBatchGrowsTheTableMidBuild) {
  // w disjoint edges touch 2w vertices, the most a batch can: the table,
  // sized for w, grows during the pass and ends at BytesFor's bound. A
  // second such batch over other vertices reuses the grown table. At
  // w = 10^5 the growth takes the table from 1 MiB on operator new to
  // 2 MiB on its own huge-page mapping.
  for (const std::size_t w : {std::size_t{1000}, std::size_t{100000}}) {
    BatchIndex index;
    for (VertexId base : {VertexId{0}, VertexId{1} << 20}) {
      std::vector<Edge> batch;
      for (VertexId i = 0; i < w; ++i) {
        batch.emplace_back(base + 2 * i, base + 2 * i + 1);
      }
      index.Build(batch, BatchIndex::kKeepAll);
      EXPECT_EQ(index.MemoryBytes(), BatchIndex::BytesFor(w));
      for (VertexId i = 0; i < w; ++i) {
        for (const VertexId end : {0u, 1u}) {
          const std::uint32_t id = index.IdOf(base + 2 * i + end);
          ASSERT_EQ(id, 2 * i + end)
              << "w " << w << " base " << base << " edge " << i;
          ASSERT_EQ(index.Degree(id), 1u);
          ASSERT_EQ(index.EventB(id, 1), i);
          ASSERT_EQ(index.position(i).id[end], id);
          ASSERT_EQ(index.position(i).beta[end], 1u);
        }
      }
      EXPECT_EQ(index.IdOf(base + 2 * w), BatchIndex::kAbsent);
    }
    EXPECT_EQ(index.IdOf(0), BatchIndex::kAbsent);
  }
}

TEST(BatchIndexTest, StaleSlotInAProbeChainStaysDeadThroughGrowth) {
  // An earlier batch's slots stay in the table, dead. Here vertex x's stale
  // slot sits one step down the probe chain from the slot x takes in the
  // next batch, and that batch doubles the table mid-build: re-placing the
  // stale copy too would overwrite x's live entry. The vertices are picked
  // by the table's hash at its first size, 16 slots.
  const auto home = [](VertexId v) { return U64Mixer()(v) & 15; };
  VertexId a = 1;
  while (home(a) == 15) ++a;  // keeps home(a) + 1 from wrapping to slot 0
  VertexId x = a + 1;
  while (home(x) != home(a)) ++x;
  // 13 fillers, one per home other than a's and the next one, so none of
  // them probes onto x's stale slot before the table grows.
  std::vector<VertexId> fillers;
  std::vector<bool> taken(16, false);
  taken[home(a)] = taken[home(a) + 1] = true;
  for (VertexId v = 1000; fillers.size() < 13; ++v) {
    if (!taken[home(v)]) {
      taken[home(v)] = true;
      fillers.push_back(v);
    }
  }
  BatchIndex index;
  // a at home(a), x behind it.
  index.Build(std::vector<Edge>{Edge(a, x)}, BatchIndex::kKeepAll);
  // x and the 13 fillers fill the 16 slots to 7/8; the 15th vertex grows
  // the table. 9 edges keep the initial size at 16 slots.
  std::vector<Edge> batch = {Edge(x, fillers[0])};
  for (std::size_t k = 1; k < 13; k += 2) {
    batch.emplace_back(fillers[k], fillers[k + 1]);
  }
  batch.emplace_back(5000, 5001);
  batch.emplace_back(5002, x);
  ASSERT_EQ(batch.size(), 9u);
  index.Build(batch, BatchIndex::kKeepAll);
  EXPECT_EQ(index.IdOf(x), 0u);
  EXPECT_EQ(index.Degree(0), 2u);
  EXPECT_EQ(index.EventB(0, 2), 8u);
  EXPECT_EQ(index.position(8).id[1], 0u);
  EXPECT_EQ(index.position(8).beta[1], 2u);
  for (std::size_t k = 0; k < fillers.size(); ++k) {
    EXPECT_EQ(index.IdOf(fillers[k]), k + 1) << "filler " << k;
  }
  EXPECT_EQ(index.IdOf(5002), 16u);
  EXPECT_EQ(index.IdOf(a), BatchIndex::kAbsent);
}

TEST(BatchIndexTest, TagsWrapWithOneFullClear) {
  // Slot tags are base + id + 1 in 32 bits. A batch whose 2w + 1 tags past
  // base could pass 2^32 - 1 clears the table and restarts base at 0;
  // short of that, base only advances.
  const std::vector<Edge> triangle = {Edge(1, 2), Edge(2, 3), Edge(3, 1)};
  // Six vertices, the 2w that three edges can touch.
  const std::vector<Edge> spread = {Edge(4, 5), Edge(6, 7), Edge(8, 1)};
  BatchIndex index;
  index.SetBaseForTesting(0xffffffffu - 7);  // base + 2w + 1 == 2^32 - 1
  index.Build(triangle, BatchIndex::kKeepAll);
  for (VertexId v = 1; v <= 3; ++v) {
    EXPECT_EQ(index.IdOf(v), v - 1);
    EXPECT_EQ(index.Degree(v - 1), 2u);
  }
  index.Build(spread, BatchIndex::kKeepAll);  // base + 3 + 7 > 2^32 - 1
  const std::vector<VertexId> order = {4, 5, 6, 7, 8, 1};
  for (std::uint32_t id = 0; id < order.size(); ++id) {
    EXPECT_EQ(index.IdOf(order[id]), id) << "vertex " << order[id];
    EXPECT_EQ(index.Degree(id), 1u);
  }
  EXPECT_EQ(index.IdOf(2), BatchIndex::kAbsent);
  EXPECT_EQ(index.IdOf(3), BatchIndex::kAbsent);
  index.Build(triangle, BatchIndex::kKeepAll);
  for (VertexId v = 1; v <= 3; ++v) EXPECT_EQ(index.IdOf(v), v - 1);
  for (const VertexId v : {4u, 5u, 6u, 7u, 8u}) {
    EXPECT_EQ(index.IdOf(v), BatchIndex::kAbsent) << "vertex " << v;
  }
}

TEST(BatchIndexTest, VertexZeroAndAllOnesGetIds) {
  // Every u32 is a vertex id: serve frames can carry 0xffffffff, and 0
  // must not read as an empty slot.
  constexpr VertexId kTop = 0xffffffffu;
  const std::vector<Edge> batch = {Edge(0, kTop), Edge(kTop, 5),
                                   Edge(5, 0)};
  BatchIndex index;
  index.Build(batch, BatchIndex::kKeepAll);
  EXPECT_EQ(index.IdOf(0), 0u);
  EXPECT_EQ(index.IdOf(kTop), 1u);
  EXPECT_EQ(index.IdOf(5), 2u);
  EXPECT_EQ(index.IdOf(1), BatchIndex::kAbsent);
  for (const VertexId v : {VertexId{0}, kTop, VertexId{5}}) {
    EXPECT_EQ(index.Degree(index.IdOf(v)), 2u) << "vertex " << v;
  }
  EXPECT_EQ(index.EventB(index.IdOf(kTop), 2), 1u);
  EXPECT_EQ(index.EventB(index.IdOf(0), 2), 2u);
}

// ---------------------------------------------------- filtered builds

// A one-hash vertex filter of 2^log2_bits bits holding `vertices`.
struct FilterBits {
  std::vector<std::uint64_t> bits;
  int log2_bits;

  FilterBits(const std::vector<VertexId>& vertices, int log2)
      : bits(std::size_t{1} << (log2 - 6), 0), log2_bits(log2) {
    for (const VertexId x : vertices) {
      const std::uint64_t bit = kernels::BloomBitIndex(x, log2_bits);
      bits[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    }
  }
  BatchIndex::VertexFilter filter() const { return {bits.data(), log2_bits}; }
};

// Every vertex of `batch`, once, in order of first appearance.
std::vector<VertexId> BatchVertices(std::span<const Edge> batch) {
  std::vector<VertexId> vertices;
  FlatHashMap<std::uint8_t> seen;
  for (const Edge& e : batch) {
    for (const VertexId x : {e.u, e.v}) {
      if (seen.Find(x) == nullptr) {
        seen[x] = 1;
        vertices.push_back(x);
      }
    }
  }
  return vertices;
}

// Expects `got` and `want`, built over `batch`, to index the same vertices
// among `vertices` with the same ids, degrees and EVENTB lists, and to give
// every position whose endpoints both have ids the same ids and β.
void ExpectSameEvents(const BatchIndex& got, const BatchIndex& want,
                      std::span<const VertexId> vertices,
                      std::span<const Edge> batch) {
  for (const VertexId x : vertices) {
    const std::uint32_t id = got.IdOf(x);
    ASSERT_EQ(id, want.IdOf(x)) << "vertex " << x;
    ASSERT_EQ(got.Degree(id), want.Degree(id)) << "vertex " << x;
    for (std::uint32_t d = 1; d <= got.Degree(id); ++d) {
      ASSERT_EQ(got.EventB(id, d), want.EventB(id, d))
          << "vertex " << x << " d " << d;
    }
  }
  for (std::size_t j = 0; j < batch.size(); ++j) {
    if (got.IdOf(batch[j].u) == BatchIndex::kAbsent ||
        got.IdOf(batch[j].v) == BatchIndex::kAbsent) {
      continue;
    }
    const BatchIndex::Position p = got.position(j);
    const BatchIndex::Position q = want.position(j);
    for (const int s : {0, 1}) {
      ASSERT_EQ(p.id[s], q.id[s]) << "position " << j;
      ASSERT_EQ(p.beta[s], q.beta[s]) << "position " << j;
    }
  }
}

TEST(BatchIndexTest, FilteredBuildKeepsTheFullEventsOfKeptVertices) {
  // A Holme-Kim batch of ~10^5 edges (hubs give long incidence lists),
  // with repeated edges and self-loops, filtered to a random third of its
  // vertices. A vertex that passes the filter (the third and its false
  // positives) keeps all its incidences, so its degree, EVENTB list and
  // the β of each of its positions are those of the keep-all build; ids
  // differ, since only kept incidences take them. Any other vertex reads
  // as absent, with degree 0.
  std::vector<Edge> batch;
  const auto graph = gen::HolmeKim(34000, 3, 0.5, 7);
  for (const Edge& e : graph.edges()) {
    batch.push_back(e);
    if (batch.size() % 50 == 0) batch.emplace_back(e.u, e.u);
    if (batch.size() % 70 == 0) batch.emplace_back(e.v, e.u);
  }
  ASSERT_GT(batch.size(), 100000u);
  const std::vector<VertexId> vertices = BatchVertices(batch);
  std::vector<VertexId> third;
  for (const VertexId x : vertices) {
    if (U64Mixer()(x ^ 0x5eed) % 3 == 0) third.push_back(x);
  }
  const FilterBits bits(third, 17);  // ~11 bits per kept vertex
  const BatchIndex::VertexFilter filter = bits.filter();
  BatchIndex full;
  BatchIndex filtered;
  full.Build(batch, BatchIndex::kKeepAll);
  filtered.Build(batch, filter);
  std::size_t rejected = 0;
  for (const VertexId x : vertices) {
    const std::uint32_t id = filtered.IdOf(x);
    if (filter.Passes(x) == 0) {
      ++rejected;
      ASSERT_EQ(id, BatchIndex::kAbsent) << "vertex " << x;
      ASSERT_EQ(filtered.Degree(id), 0u) << "vertex " << x;
      continue;
    }
    const std::uint32_t full_id = full.IdOf(x);
    ASSERT_NE(id, BatchIndex::kAbsent) << "vertex " << x;
    ASSERT_EQ(filtered.Degree(id), full.Degree(full_id)) << "vertex " << x;
    for (std::uint32_t d = 1; d <= filtered.Degree(id); ++d) {
      ASSERT_EQ(filtered.EventB(id, d), full.EventB(full_id, d))
          << "vertex " << x << " d " << d;
    }
  }
  EXPECT_GT(rejected, vertices.size() / 2);
  std::size_t both_kept = 0;
  std::size_t self_loops = 0;
  for (std::size_t j = 0; j < batch.size(); ++j) {
    if (filter.Passes(batch[j].u) == 0 || filter.Passes(batch[j].v) == 0) {
      continue;
    }
    ++both_kept;
    self_loops += batch[j].self_loop() ? 1 : 0;
    const BatchIndex::Position p = filtered.position(j);
    const BatchIndex::Position q = full.position(j);
    ASSERT_EQ(p.id[0], filtered.IdOf(batch[j].u)) << "position " << j;
    ASSERT_EQ(p.id[1], filtered.IdOf(batch[j].v)) << "position " << j;
    ASSERT_EQ(p.beta[0], q.beta[0]) << "position " << j;
    ASSERT_EQ(p.beta[1], q.beta[1]) << "position " << j;
  }
  EXPECT_GT(both_kept, 5000u);
  EXPECT_GT(self_loops, 100u);
}

TEST(BatchIndexTest, FilteredBuildStepsOverBlocksWithNothingKept) {
  // The kept bitmap holds 32 edges per word. Only the first and the last
  // 10 edges of this 200-edge batch touch kept vertices, so the build
  // must step over the four words between them with no bit set.
  const std::vector<VertexId> kept = {1, 2, 3};
  const FilterBits bits(kept, 10);
  std::vector<VertexId> rejected;
  for (VertexId x = 100; rejected.size() < 20; ++x) {
    if (bits.filter().Passes(x) == 0) rejected.push_back(x);
  }
  std::vector<Edge> batch;
  for (std::size_t j = 0; j < 200; ++j) {
    if (j < 10 || j >= 190) {
      batch.emplace_back(kept[j % 3], kept[(j + 1) % 3]);
    } else {
      batch.emplace_back(rejected[j % 20], rejected[(j + 7) % 20]);
    }
  }
  BatchIndex full;
  BatchIndex filtered;
  full.Build(batch, BatchIndex::kKeepAll);
  filtered.Build(batch, bits.filter());
  // 1, 2 and 3 come first in both builds, so they get the same ids.
  ExpectSameEvents(filtered, full, kept, batch);
  EXPECT_EQ(filtered.EventB(filtered.IdOf(kept[190 % 3]), 8), 190u);
  for (const VertexId x : rejected) {
    EXPECT_EQ(filtered.IdOf(x), BatchIndex::kAbsent) << "vertex " << x;
  }
}

TEST(BatchIndexTest, FilteredAndFullBuildsAlternateOnOneIndex) {
  // At w > r/8 the bulk counter filters its index by the lanes, and a
  // stream's short last batch may take the keep-all filter on the same
  // index. Here one index alternates the two over overlapping vertices, so
  // every build probes past the other kind's stale slots. The first build sizes
  // the table at 4096 slots; the third puts 4000 vertices, most of them
  // stale in it, into those slots and grows the table mid-pass. Each
  // build must read exactly like a fresh index's build of its batch.
  struct Round {
    std::size_t w;
    bool filtered;
  };
  const Round rounds[] = {{3000, false}, {40, true}, {2000, true},
                          {1500, false}, {2500, true}, {3, false}};
  std::vector<VertexId> seen;
  BatchIndex index;
  for (std::size_t round = 0; round < std::size(rounds); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t w = rounds[round].w;
    std::vector<Edge> batch;
    for (std::size_t j = 0; j < w; ++j) {
      if (round == 2) {  // 2w vertices, all kept
        batch.emplace_back(2 * j, 2 * j + 1);
      } else {
        const std::uint64_t h = U64Mixer()(round << 32 | j);
        batch.emplace_back(h % 5000, (h >> 32) % 5000);
      }
    }
    const std::vector<VertexId> vertices = BatchVertices(batch);
    seen.insert(seen.end(), vertices.begin(), vertices.end());
    std::vector<VertexId> kept;
    for (const VertexId x : vertices) {
      if (round == 2 || U64Mixer()(x + round) % 2 == 0) kept.push_back(x);
    }
    const FilterBits bits(kept, 14);
    const BatchIndex::VertexFilter filter =
        rounds[round].filtered ? bits.filter() : BatchIndex::kKeepAll;
    const std::size_t before = index.MemoryBytes();
    BatchIndex fresh;
    index.Build(batch, filter);
    fresh.Build(batch, filter);
    if (round == 2) {
      EXPECT_GT(index.MemoryBytes(), before) << "the table did not grow";
    }
    if (round == 0) {
      // 4096 slots, half the worst case that 6000 vertices would take.
      EXPECT_EQ(index.MemoryBytes(), BatchIndex::BytesFor(w) - 4096 * 8);
    }
    ExpectSameEvents(index, fresh, seen, batch);
  }
}

// --------------------------------------------------- invariants per batch

TriangleCounterOptions BulkOptions(std::uint64_t r, std::uint64_t seed,
                                   std::size_t batch,
                                   SimdMode simd = SimdMode::kAuto) {
  TriangleCounterOptions opt;
  opt.num_estimators = r;
  opt.seed = seed;
  opt.batch_size = batch;
  opt.simd = simd;
  return opt;
}

class BulkInvariantSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, SimdMode>> {};

TEST_P(BulkInvariantSweep, StateInvariantsAcrossBatchSizes) {
  const auto [batch_size, simd] = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto graph_edges = gen::GnmRandom(40, 220, seed + 40);
    const auto stream = stream::ShuffleStreamOrder(graph_edges, seed);
    const auto stats = graph::ComputeStreamOrderStats(stream);
    TriangleCounter counter(BulkOptions(300, seed * 17 + 1, batch_size,
                                        simd));
    counter.ProcessEdges(stream.edges());
    for (const EstimatorState& st : counter.estimators()) {
      ExpectStateInvariants(
          stream, stats.c, StreamEdge(st.r1, st.r1_pos),
          st.has_r2() ? StreamEdge(st.r2, st.r2_pos) : StreamEdge(), st.c,
          st.has_triangle);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchSizes, BulkInvariantSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 64, 219,
                                                      220, 1024),
                       ::testing::Values(SimdMode::kOff, SimdMode::kAuto)));

TEST(BulkCounterTest, InvariantsWithPerEdgePushesAndInterleavedFlushes) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(30, 150, 3), 9);
  const auto stats = graph::ComputeStreamOrderStats(stream);
  TriangleCounter counter(BulkOptions(200, 5, 16));
  std::size_t fed = 0;
  for (const Edge& e : stream.edges()) {
    counter.ProcessEdge(e);
    if (++fed % 37 == 0) counter.Flush();  // odd interleavings
  }
  for (const EstimatorState& st : counter.estimators()) {
    ExpectStateInvariants(
        stream, stats.c, StreamEdge(st.r1, st.r1_pos),
        st.has_r2() ? StreamEdge(st.r2, st.r2_pos) : StreamEdge(), st.c,
        st.has_triangle);
  }
}

// ------------------------------------------- joint law matches Lemma 3.1

TEST(BulkCounterTest, JointLawMatchesLemma31AcrossBatches) {
  // Same joint-distribution test as the sequential engine, but through the
  // bulk path with a batch size that splits the 9-edge canonical stream
  // into three batches (4+4+1).
  const auto stream = CanonicalStream();
  const auto c_exact = CanonicalC();
  const std::size_t m = stream.size();
  constexpr std::uint64_t kEstimators = 120000;
  TriangleCounter counter(BulkOptions(kEstimators, 314, 4));
  counter.ProcessEdges(stream.edges());

  std::map<std::pair<EdgeIndex, EdgeIndex>, int> counts;
  for (const EstimatorState& st : counter.estimators()) {
    ++counts[{st.r1_pos, st.has_r2() ? st.r2_pos : kInvalidEdgeIndex}];
  }
  double chi2 = 0.0;
  int cells = 0;
  int covered = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (c_exact[i] == 0) {
      const double expected = static_cast<double>(kEstimators) / m;
      const double diff = counts[{i, kInvalidEdgeIndex}] - expected;
      chi2 += diff * diff / expected;
      covered += counts[{i, kInvalidEdgeIndex}];
      ++cells;
      continue;
    }
    for (std::size_t j = i + 1; j < m; ++j) {
      if (!stream[j].Adjacent(stream[i])) continue;
      const double expected =
          static_cast<double>(kEstimators) /
          (static_cast<double>(m) * static_cast<double>(c_exact[i]));
      const double diff = counts[{i, j}] - expected;
      chi2 += diff * diff / expected;
      covered += counts[{i, j}];
      ++cells;
    }
  }
  EXPECT_EQ(covered, static_cast<int>(kEstimators))
      << "bulk engine produced states outside the legal support";
  EXPECT_GT(cells, 10);
  EXPECT_LT(chi2, 65.0);
}

// -------------------------------------------------- naive vs bulk parity

TEST(BulkCounterTest, MatchesNaiveEngineDistribution) {
  // Same stream, independent seeds: per-estimator mean of c and triangle
  // hit-rate must agree between engines within sampling error.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(50, 400, 21), 13);
  constexpr std::uint64_t r = 60000;

  NaiveTriangleCounter naive(BulkOptions(r, 1001, 128));
  naive.ProcessEdges(stream.edges());
  TriangleCounter bulk(BulkOptions(r, 2002, 128));
  bulk.ProcessEdges(stream.edges());

  double naive_c = 0.0, bulk_c = 0.0;
  double naive_hits = 0.0, bulk_hits = 0.0;
  for (const auto& est : naive.estimators()) {
    naive_c += static_cast<double>(est.c());
    naive_hits += est.has_triangle() ? 1.0 : 0.0;
  }
  for (const auto& st : bulk.estimators()) {
    bulk_c += static_cast<double>(st.c);
    bulk_hits += st.has_triangle ? 1.0 : 0.0;
  }
  naive_c /= r;
  bulk_c /= r;
  naive_hits /= r;
  bulk_hits /= r;
  // c <= 2Δ ~ 60; se of mean ~ 60/sqrt(r) ~ 0.25. Allow 6 se.
  EXPECT_NEAR(naive_c, bulk_c, 1.0);
  EXPECT_NEAR(naive_hits, bulk_hits, 0.02);
  EXPECT_NEAR(naive.EstimateTriangles(), bulk.EstimateTriangles(),
              0.25 * naive.EstimateTriangles() + 10.0);
}

// ------------------------------------------------------------- estimates

TEST(BulkCounterTest, AccurateOnRandomGraph) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 5), 55);
  const auto csr = graph::Csr::FromEdgeList(stream);
  const auto tau = graph::CountTriangles(csr);
  const auto zeta = graph::CountWedges(csr);
  ASSERT_GT(tau, 0u);
  TriangleCounter counter(BulkOptions(40000, 6, 0));  // default w = 8r
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTriangles(), static_cast<double>(tau),
              0.15 * static_cast<double>(tau));
  EXPECT_NEAR(counter.EstimateWedges(), static_cast<double>(zeta),
              0.10 * static_cast<double>(zeta));
}

TEST(BulkCounterTest, EmptyStreamEstimatesZero) {
  TriangleCounter counter(BulkOptions(100, 1, 64));
  EXPECT_EQ(counter.EstimateTriangles(), 0.0);
  EXPECT_EQ(counter.EstimateWedges(), 0.0);
  EXPECT_EQ(counter.EstimateTransitivity(), 0.0);
  EXPECT_EQ(counter.edges_processed(), 0u);
}

TEST(BulkCounterTest, SingleEdgeStream) {
  TriangleCounter counter(BulkOptions(50, 2, 64));
  counter.ProcessEdge(Edge(1, 2));
  EXPECT_EQ(counter.edges_processed(), 1u);
  EXPECT_EQ(counter.EstimateTriangles(), 0.0);
  for (const EstimatorState& st : counter.estimators()) {
    EXPECT_EQ(st.r1, Edge(1, 2));
    EXPECT_EQ(st.c, 0u);
  }
}

TEST(BulkCounterTest, DeterministicPerSeed) {
  const auto stream = CanonicalStream();
  TriangleCounter a(BulkOptions(2000, 99, 4));
  TriangleCounter b(BulkOptions(2000, 99, 4));
  a.ProcessEdges(stream.edges());
  b.ProcessEdges(stream.edges());
  EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles());
  EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges());
}

TEST(BulkCounterTest, SimdOffAndAutoBitIdentical) {
  // Whatever ISA `auto` resolves to must produce exactly the scalar
  // fallback's bits -- not just statistically equivalent estimates.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(50, 350, 31), 17);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(stream)));
  ASSERT_GT(tau, 0.0);
  TriangleCounter scalar(BulkOptions(30000, 7, 128, SimdMode::kOff));
  TriangleCounter vector(BulkOptions(30000, 7, 128, SimdMode::kAuto));
  scalar.ProcessEdges(stream.edges());
  vector.ProcessEdges(stream.edges());
  EXPECT_EQ(scalar.EstimateTriangles(), vector.EstimateTriangles());
  EXPECT_EQ(scalar.EstimateWedges(), vector.EstimateWedges());
  EXPECT_NEAR(scalar.EstimateTriangles(), tau, 0.2 * tau);
}

TEST(BulkCounterTest, DefaultBatchSizeIsEightR) {
  TriangleCounter counter(BulkOptions(500, 1, 0));
  EXPECT_EQ(counter.batch_size(), 4000u);
}

TEST(BulkCounterTest, TransitivityMatchesExact) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(40, 0.4, 61), 2);
  const double kappa =
      graph::Transitivity(graph::Csr::FromEdgeList(stream));
  TriangleCounter counter(BulkOptions(30000, 8, 256));
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTransitivity(), kappa, 0.15 * kappa);
}

TEST(BulkCounterTest, MemoryStatsAreSane) {
  TriangleCounter counter(BulkOptions(1000, 1, 512));
  counter.ProcessEdges(CanonicalStream().edges());
  const auto stats = counter.ApproxMemoryUsage();
  EXPECT_EQ(stats.per_estimator_bytes, sizeof(EstimatorState));
  EXPECT_GE(stats.estimator_bytes, 1000 * sizeof(EstimatorState));
  EXPECT_GT(stats.batch_scratch_bytes, 0u);
  // The paper highlights constant space per estimator; the struct should
  // stay compact (their implementation used 36 bytes; ours uses 64-bit
  // positions).
  EXPECT_LE(sizeof(EstimatorState), 48u);
}

TEST(BulkCounterTest, ManySmallBatchesEqualOneBigStreamStatistically) {
  // Feeding edge-by-edge (w=1) must remain unbiased: compare against τ.
  const auto stream = CanonicalStream();
  TriangleCounter counter(BulkOptions(60000, 123, 1));
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTriangles(), 5.0, 0.35);
}

}  // namespace
}  // namespace core
}  // namespace tristream
