// Tests for the simplicity-enforcing stream front-end.

#include "stream/dedup.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/triangle_counter.h"
#include "gen/erdos_renyi.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace tristream {
namespace stream {
namespace {

TEST(DedupFilterTest, AdmitsFirstOccurrenceOnly) {
  DedupFilter filter;
  EXPECT_TRUE(filter.Admit(Edge(1, 2)));
  EXPECT_FALSE(filter.Admit(Edge(1, 2)));
  EXPECT_FALSE(filter.Admit(Edge(2, 1)));  // reversed orientation
  EXPECT_TRUE(filter.Admit(Edge(1, 3)));
  EXPECT_EQ(filter.admitted(), 2u);
  EXPECT_EQ(filter.offered(), 4u);
}

TEST(DedupFilterTest, RejectsSelfLoopsAndInvalid) {
  DedupFilter filter;
  EXPECT_FALSE(filter.Admit(Edge(5, 5)));
  EXPECT_FALSE(filter.Admit(Edge()));
  EXPECT_EQ(filter.admitted(), 0u);
}

TEST(DedupFilterTest, MemoryGrowsWithDistinctEdges) {
  DedupFilter filter(16);
  const std::size_t before = filter.MemoryBytes();
  for (VertexId i = 0; i < 10000; ++i) filter.Admit(Edge(i, i + 1));
  EXPECT_GT(filter.MemoryBytes(), before);
  EXPECT_EQ(filter.admitted(), 10000u);
}

TEST(DedupFilterTest, DeleteOfLiveEdgePassesAndClearsLiveness) {
  DedupFilter filter;
  EXPECT_TRUE(filter.AdmitEvent(Edge(1, 2), EdgeOp::kInsert));
  EXPECT_TRUE(filter.IsLive(Edge(1, 2)));
  EXPECT_TRUE(filter.AdmitEvent(Edge(2, 1), EdgeOp::kDelete));  // reversed
  EXPECT_FALSE(filter.IsLive(Edge(1, 2)));
  EXPECT_EQ(filter.admitted(), 2u);
}

TEST(DedupFilterTest, DeleteOfDedupedDuplicateStillTargetsTheLiveEdge) {
  // The duplicate insert was rejected, but the edge is live -- a delete
  // must still pass (it names the live edge, not the rejected event).
  DedupFilter filter;
  EXPECT_TRUE(filter.AdmitEvent(Edge(3, 4), EdgeOp::kInsert));
  EXPECT_FALSE(filter.AdmitEvent(Edge(3, 4), EdgeOp::kInsert));  // deduped
  EXPECT_TRUE(filter.AdmitEvent(Edge(3, 4), EdgeOp::kDelete));
  // A second delete has nothing live to remove.
  EXPECT_FALSE(filter.AdmitEvent(Edge(3, 4), EdgeOp::kDelete));
  EXPECT_EQ(filter.admitted(), 2u);
  EXPECT_EQ(filter.offered(), 4u);
}

TEST(DedupFilterTest, ReinsertAfterDeleteIsAdmitted) {
  DedupFilter filter;
  EXPECT_TRUE(filter.AdmitEvent(Edge(7, 8), EdgeOp::kInsert));
  EXPECT_TRUE(filter.AdmitEvent(Edge(7, 8), EdgeOp::kDelete));
  EXPECT_TRUE(filter.AdmitEvent(Edge(7, 8), EdgeOp::kInsert));
  EXPECT_TRUE(filter.IsLive(Edge(7, 8)));
  // ... and the re-inserted edge dedups again.
  EXPECT_FALSE(filter.AdmitEvent(Edge(8, 7), EdgeOp::kInsert));
  EXPECT_EQ(filter.admitted(), 3u);
}

TEST(DedupFilterTest, DeleteOfNeverInsertedOrSelfLoopIsDropped) {
  DedupFilter filter;
  EXPECT_FALSE(filter.AdmitEvent(Edge(1, 2), EdgeOp::kDelete));
  EXPECT_FALSE(filter.AdmitEvent(Edge(5, 5), EdgeOp::kDelete));
  EXPECT_FALSE(filter.AdmitEvent(Edge(), EdgeOp::kDelete));
  EXPECT_EQ(filter.admitted(), 0u);
}

TEST(DedupFilterTest, InsertOnlyStreamMatchesHistoricalSeenSet) {
  // On an insert-only stream the live map must behave exactly like the
  // old seen-set: first occurrence passes, every repeat is rejected
  // forever (nothing ever leaves the live set).
  DedupFilter filter;
  const auto graph = gen::GnmRandom(30, 120, 9);
  std::size_t admitted = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Edge& e : graph.edges()) {
      if (filter.AdmitEvent(e, EdgeOp::kInsert)) ++admitted;
    }
  }
  EXPECT_EQ(admitted, graph.size());
  EXPECT_EQ(filter.admitted(), graph.size());
}

TEST(DedupFilterTest, ProtectsCounterFromDirtyFeed) {
  // A doubled + looped feed through the filter must give the same
  // estimate quality as the clean stream (the counter itself assumes
  // simple input).
  const auto clean = gen::GnmRandom(50, 400, 3);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(clean)));
  ASSERT_GT(tau, 0.0);

  core::TriangleCounterOptions options;
  options.num_estimators = 40000;
  options.seed = 4;
  core::TriangleCounter counter(options);
  DedupFilter filter;
  Rng rng(5);
  for (const Edge& e : clean.edges()) {
    // Dirty feed: each edge delivered twice (both orientations), with
    // occasional self-loops sprinkled in.
    for (const Edge& attempt :
         {e, Edge(e.v, e.u), Edge(e.u, e.u)}) {
      if (filter.Admit(attempt)) counter.ProcessEdge(attempt);
    }
    (void)rng;
  }
  EXPECT_EQ(counter.edges_processed(), clean.size());
  EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.2 * tau);
}

// The live set against an exact model: one seeded turnstile stream over a
// few hundred vertices, fed to the filter and to an unordered_map of
// key -> live side by side. The filter starts at 16 entries, so it doubles
// many times while dead (swapped) slots sit in its probe chains.
TEST(DedupFilterModelTest, TurnstileStreamMatchesLiveSetModel) {
  constexpr VertexId kVertices = 300;
  constexpr int kEvents = 200000;
  DedupFilter filter(16);
  std::unordered_map<std::uint64_t, bool> live;  // model: key -> live
  std::vector<Edge> inserted;  // delete targets, so deletes often hit
  std::uint64_t admitted = 0;
  Rng rng(21);
  for (int i = 0; i < kEvents; ++i) {
    Edge e(static_cast<VertexId>(rng.UniformBelow(kVertices)),
           static_cast<VertexId>(rng.UniformBelow(kVertices)));
    const std::uint64_t kind = rng.UniformBelow(100);
    if (kind < 2) e.v = e.u;              // self-loop
    if (kind == 2) e.u = kInvalidVertex;  // invalid
    const EdgeOp op = rng.UniformBelow(100) < 40 ? EdgeOp::kDelete
                                                 : EdgeOp::kInsert;
    if (op == EdgeOp::kDelete && kind >= 3 && !inserted.empty() &&
        rng.CoinOneIn(2)) {
      // Name a previously inserted edge, in either orientation.
      const Edge& past = inserted[rng.UniformBelow(inserted.size())];
      e = rng.CoinOneIn(2) ? past : Edge(past.v, past.u);
    }
    bool expect = false;
    if (!e.self_loop() && e.valid()) {
      const auto it = live.find(e.Key());
      const bool was_live = it != live.end() && it->second;
      expect = (op == EdgeOp::kInsert) != was_live;
      if (expect) {
        live[e.Key()] = !was_live;
        ++admitted;
        if (op == EdgeOp::kInsert) inserted.push_back(e);
      }
    }
    ASSERT_EQ(filter.AdmitEvent(e, op), expect)
        << "event " << i << " " << e << " " << EdgeOpName(op);
    const auto it = live.find(e.Key());
    const bool model_live = !e.self_loop() && e.valid() &&
                            it != live.end() && it->second;
    ASSERT_EQ(filter.IsLive(e), model_live) << "event " << i << " " << e;
  }
  EXPECT_EQ(filter.admitted(), admitted);
  EXPECT_EQ(filter.offered(), static_cast<std::uint64_t>(kEvents));
  // The stream exercised every path: many edges died, and many live.
  std::size_t dead = 0;
  for (const auto& [key, is_live] : live) dead += is_live ? 0 : 1;
  EXPECT_GT(dead, 1000u);
  EXPECT_GT(live.size() - dead, 1000u);
}

TEST(DedupFilterModelTest, DeletesOfUnseenEdgesAllocateNothing) {
  // A delete of an edge the filter has never seen is dropped without
  // taking a slot, however many arrive.
  DedupFilter filter;
  const std::size_t initial = filter.MemoryBytes();
  for (VertexId i = 0; i < 100000; ++i) {
    EXPECT_FALSE(filter.AdmitEvent(Edge(i, i + 1), EdgeOp::kDelete));
  }
  EXPECT_EQ(filter.MemoryBytes(), initial);
  EXPECT_EQ(filter.admitted(), 0u);
  EXPECT_EQ(filter.offered(), 100000u);
  // The filter still admits normally afterwards.
  EXPECT_TRUE(filter.Admit(Edge(1, 2)));
  EXPECT_TRUE(filter.AdmitEvent(Edge(2, 1), EdgeOp::kDelete));
  EXPECT_FALSE(filter.IsLive(Edge(1, 2)));
}

TEST(DedupFilterModelTest, ReinsertRevivesTheDeadSlotAfterGrowth) {
  // A deleted edge keeps its slot, and the table's doublings re-place it
  // where its live key probes: re-inserting it takes no new slot. Both
  // filters end with the same 896 keys, 7/8 of 1024 slots, so one extra
  // slot would double `churned`.
  std::vector<Edge> early, late;
  for (VertexId i = 0; i < 8; ++i) early.emplace_back(i, 5000 + i);
  for (VertexId i = 0; i < 888; ++i) late.emplace_back(100 + i, 7000 + i);
  DedupFilter churned(16), plain(16);
  for (const Edge& e : early) ASSERT_TRUE(churned.Admit(e));
  for (const Edge& e : early) {
    ASSERT_TRUE(churned.AdmitEvent(e, EdgeOp::kDelete));
  }
  for (const Edge& e : late) ASSERT_TRUE(churned.Admit(e));  // grows 5x
  for (const Edge& e : early) ASSERT_TRUE(churned.Admit(Edge(e.v, e.u)));
  for (const Edge& e : early) plain.Admit(e);
  for (const Edge& e : late) plain.Admit(e);
  EXPECT_EQ(plain.MemoryBytes(), 1024 * sizeof(std::uint64_t));
  EXPECT_EQ(churned.MemoryBytes(), plain.MemoryBytes());
  for (const Edge& e : early) EXPECT_TRUE(churned.IsLive(e)) << e;
}

TEST(DedupFilterModelTest, TableCrossesTwoMiBByGrowth) {
  // 2^17 distinct edges, every third one deleted again, double the table
  // from 16 slots to 2 MiB, moving it off operator new onto its own
  // huge-page mapping. Every live and dead slot survives the moves.
  constexpr VertexId kEdges = VertexId{1} << 17;
  const auto edge = [](VertexId i) { return Edge(i, i + kEdges); };
  DedupFilter filter(16);
  for (VertexId i = 0; i < kEdges; ++i) {
    ASSERT_TRUE(filter.Admit(edge(i))) << i;
    if (i % 3 == 0) {
      ASSERT_TRUE(filter.AdmitEvent(edge(i), EdgeOp::kDelete));
    }
  }
  EXPECT_EQ(filter.MemoryBytes(), std::size_t{2} << 20);
  for (VertexId i = 0; i < kEdges; ++i) {
    ASSERT_EQ(filter.IsLive(edge(i)), i % 3 != 0) << i;
    // A live edge dedups; a deleted one revives in its old slot.
    ASSERT_EQ(filter.Admit(Edge(i + kEdges, i)), i % 3 == 0) << i;
  }
  EXPECT_EQ(filter.MemoryBytes(), std::size_t{2} << 20);
}

TEST(DedupFilterModelTest, VertexZeroAndTopIdsAreStored) {
  // Key 0 would be a self-loop at vertex 0, which is never stored; edges
  // at vertex 0 and at the largest valid id are ordinary keys.
  DedupFilter filter(16);
  const VertexId top = kInvalidVertex - 1;
  EXPECT_FALSE(filter.IsLive(Edge(0, 0)));
  EXPECT_FALSE(filter.Admit(Edge(0, 0)));
  EXPECT_TRUE(filter.Admit(Edge(0, 1)));
  EXPECT_TRUE(filter.Admit(Edge(top, 0)));
  EXPECT_TRUE(filter.Admit(Edge(top - 1, top)));
  EXPECT_FALSE(filter.IsLive(Edge(0, 0)));
  EXPECT_TRUE(filter.IsLive(Edge(1, 0)));
  EXPECT_TRUE(filter.AdmitEvent(Edge(0, top), EdgeOp::kDelete));
  EXPECT_FALSE(filter.IsLive(Edge(0, top)));
  EXPECT_TRUE(filter.IsLive(Edge(top, top - 1)));
  EXPECT_TRUE(filter.Admit(Edge(0, top)));
  EXPECT_EQ(filter.admitted(), 5u);
}

}  // namespace
}  // namespace stream
}  // namespace tristream
