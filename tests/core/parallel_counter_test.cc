// Tests for the estimator-sharded parallel counter: bit-identity with its
// shards run serially (SerialShards), the same accuracy as the serial
// engine, determinism per (seed, threads), and thread-count robustness.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/parallel_counter.h"
#include "core/triangle_counter.h"
#include "gen/erdos_renyi.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "tests/core/core_test_util.h"

namespace tristream {
namespace core {
namespace {

ParallelCounterOptions POptions(std::uint64_t r, std::uint32_t threads,
                                std::uint64_t seed) {
  ParallelCounterOptions opt;
  opt.num_estimators = r;
  opt.num_threads = threads;
  opt.seed = seed;
  return opt;
}

TEST(ParallelCounterTest, SingleThreadMatchesAccuracy) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 5), 55);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(stream)));
  ParallelTriangleCounter counter(POptions(40000, 1, 3));
  counter.ProcessEdges(stream.edges());
  EXPECT_EQ(counter.num_shards(), 1u);
  EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.15 * tau);
}

TEST(ParallelCounterTest, MultiThreadAccuracy) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 7), 57);
  const auto csr = graph::Csr::FromEdgeList(stream);
  const auto tau = static_cast<double>(graph::CountTriangles(csr));
  const auto zeta = static_cast<double>(graph::CountWedges(csr));
  for (std::uint32_t threads : {2u, 3u, 4u}) {
    ParallelTriangleCounter counter(POptions(42000, threads, 9));
    counter.ProcessEdges(stream.edges());
    EXPECT_EQ(counter.num_shards(), threads);
    EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.15 * tau)
        << threads << " threads";
    EXPECT_NEAR(counter.EstimateWedges(), zeta, 0.10 * zeta);
  }
}

TEST(ParallelCounterTest, DeterministicPerSeedAndThreads) {
  const auto stream = CanonicalStream();
  ParallelTriangleCounter a(POptions(4000, 3, 77));
  ParallelTriangleCounter b(POptions(4000, 3, 77));
  a.ProcessEdges(stream.edges());
  b.ProcessEdges(stream.edges());
  EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles());
  EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges());
}

TEST(ParallelCounterTest, EstimatorsSplitAcrossShards) {
  // Total estimator count must be preserved across uneven splits.
  ParallelTriangleCounter counter(POptions(1001, 4, 5));
  const auto stream = CanonicalStream();
  counter.ProcessEdges(stream.edges());
  // 1001 estimators -> values vector length via the wedge gather:
  // estimate != 0 proves all shards flushed; exact count checked through
  // the mean: Σ c·m / 1001.
  EXPECT_GT(counter.EstimateWedges(), 0.0);
}

TEST(ParallelCounterTest, MoreThreadsThanEstimatorsClamps) {
  ParallelTriangleCounter counter(POptions(3, 16, 5));
  EXPECT_LE(counter.num_shards(), 3u);
  const auto stream = CanonicalStream();
  counter.ProcessEdges(stream.edges());
  EXPECT_GE(counter.EstimateWedges(), 0.0);
}

TEST(ParallelCounterTest, EmptyStreamSafe) {
  ParallelTriangleCounter counter(POptions(100, 2, 1));
  EXPECT_EQ(counter.EstimateTriangles(), 0.0);
  EXPECT_EQ(counter.EstimateTransitivity(), 0.0);
  EXPECT_EQ(counter.edges_processed(), 0u);
}

TEST(ParallelCounterTest, PerEdgePushWithFlushes) {
  const auto stream = CanonicalStream();
  ParallelTriangleCounter counter(POptions(30000, 2, 13));
  for (const Edge& e : stream.edges()) counter.ProcessEdge(e);
  counter.Flush();
  EXPECT_EQ(counter.edges_processed(), stream.size());
  EXPECT_NEAR(counter.EstimateTriangles(), 5.0, 0.6);
}

TEST(ParallelCounterTest, TransitivityMatchesSerial) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(40, 0.4, 61), 2);
  const double kappa =
      graph::Transitivity(graph::Csr::FromEdgeList(stream));
  ParallelTriangleCounter counter(POptions(30000, 2, 8));
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTransitivity(), kappa, 0.15 * kappa);
}

TEST(ParallelCounterTest, PipelinedBitIdenticalToSerialShards) {
  // The pooled pipeline must be a pure scheduling change: for a fixed
  // (seed, num_threads) the estimates are bit-identical to the shards run
  // one after another on this thread, across thread counts (including
  // more threads than this machine has cores).
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(70, 600, 11), 31);
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    ParallelCounterOptions opt = POptions(12000, threads, 424242);
    opt.batch_size = 500;  // several batches plus a partial tail
    ParallelTriangleCounter pooled(opt);
    SerialShards serial(opt);
    pooled.ProcessEdges(stream.edges());
    serial.Absorb(stream.edges());
    EXPECT_EQ(pooled.EstimateTriangles(), serial.EstimateTriangles())
        << threads << " threads";
    EXPECT_EQ(pooled.EstimateWedges(), serial.EstimateWedges())
        << threads << " threads";
    EXPECT_EQ(pooled.EstimateTransitivity(), serial.EstimateTransitivity());
    EXPECT_EQ(pooled.edges_processed(), stream.size());
  }
}

TEST(ParallelCounterTest, PipelinedDeterministicAcrossRunsAndPushShapes) {
  // Same (seed, threads) twice -> bit-identical, and single-edge pushes
  // must land on the same batch boundaries as span pushes.
  const auto stream = CanonicalStream();
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    ParallelCounterOptions opt = POptions(4096, threads, 99);
    opt.batch_size = 3;
    ParallelTriangleCounter a(opt);
    ParallelTriangleCounter b(opt);
    ParallelTriangleCounter c(opt);
    a.ProcessEdges(stream.edges());
    b.ProcessEdges(stream.edges());
    for (const Edge& e : stream.edges()) c.ProcessEdge(e);
    EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles());
    EXPECT_EQ(a.EstimateTriangles(), c.EstimateTriangles());
    EXPECT_EQ(a.EstimateWedges(), c.EstimateWedges());
  }
}

TEST(ParallelCounterTest, FlushIsAFullBarrierMidStream) {
  // An estimate read mid-stream flushes the partial batch as a batch of
  // its own; the serial shards see the same boundaries, before and after
  // the stream continues.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(40, 300, 3), 17);
  ParallelCounterOptions opt = POptions(6000, 2, 7);
  opt.batch_size = 128;
  ParallelTriangleCounter pooled(opt);
  SerialShards serial(opt);
  const std::span<const Edge> edges(stream.edges());
  const std::size_t half = edges.size() / 2;  // not a batch multiple
  pooled.ProcessEdges(edges.subspan(0, half));
  serial.Absorb(edges.subspan(0, half));
  EXPECT_EQ(pooled.EstimateTriangles(), serial.EstimateTriangles());
  pooled.ProcessEdges(edges.subspan(half));
  serial.Absorb(edges.subspan(half));
  EXPECT_EQ(pooled.EstimateTriangles(), serial.EstimateTriangles());
  EXPECT_EQ(pooled.EstimateWedges(), serial.EstimateWedges());
}

/// A fake two-node topology on whatever cpus this machine has, so the
/// multi-node staging and pinning paths run (and run under TSan) even on
/// single-node CI hosts.
Topology FakeTwoNodeTopology() {
  std::vector<NumaNode> nodes(2);
  nodes[0].id = 0;
  nodes[0].cpus = {0};
  nodes[1].id = 1;
  nodes[1].cpus = {0};
  return Topology::FromNodes(std::move(nodes));
}

TEST(ParallelCounterTest, PinnedBitIdenticalToUnpinned) {
  // Pinning is placement only: for a fixed (seed, num_threads) the
  // estimates must match the unpinned pipeline to the last bit, on any
  // topology.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(70, 600, 11), 31);
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    ParallelCounterOptions unpinned = POptions(12000, threads, 424242);
    unpinned.batch_size = 500;
    ParallelCounterOptions pinned = unpinned;
    pinned.topology.pin_threads = true;
    ParallelTriangleCounter a(unpinned);
    ParallelTriangleCounter b(pinned);
    a.ProcessEdges(stream.edges());
    b.ProcessEdges(stream.edges());
    EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles())
        << threads << " threads";
    EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges()) << threads
                                                      << " threads";
  }
}

TEST(ParallelCounterTest, MultiNodeStagingBitIdentical) {
  // With >1 node the dispatched batches are staged once per node and each
  // worker absorbs its node's replica; the estimates must still be
  // bit-identical to the single-node broadcast (staging copies content,
  // never changes it). The fake topology makes this path run on a
  // single-node machine -- and under TSan in CI.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 5), 55);
  for (std::uint32_t threads : {2u, 4u}) {
    ParallelCounterOptions plain = POptions(8000, threads, 777);
    plain.batch_size = 256;
    ParallelCounterOptions staged = plain;
    staged.topology.override_topology = FakeTwoNodeTopology();
    staged.topology.pin_threads = true;
    ParallelTriangleCounter a(plain);
    ParallelTriangleCounter b(staged);
    EXPECT_EQ(a.num_nodes(), 1u);
    EXPECT_EQ(b.num_nodes(), 2u);
    a.ProcessEdges(stream.edges());
    b.ProcessEdges(stream.edges());
    EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles())
        << threads << " threads";
    EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges());
    EXPECT_EQ(a.EstimateTransitivity(), b.EstimateTransitivity());
    EXPECT_EQ(a.edges_processed(), b.edges_processed());
  }
}

TEST(ParallelCounterTest, StableViewReplicationOptInBitIdentical) {
  // The AbsorbBatchView staging policy: stable views broadcast by
  // default, replicate per node on opt-in; either way the estimates match
  // the plain ProcessEdges path for equal batch boundaries.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(50, 400, 21), 13);
  const std::span<const Edge> edges(stream.edges());
  ParallelCounterOptions opt = POptions(6000, 3, 99);
  opt.batch_size = 200;
  ParallelCounterOptions staged = opt;
  staged.topology.override_topology = FakeTwoNodeTopology();
  ParallelTriangleCounter plain(opt);
  ParallelTriangleCounter broadcast(staged);
  ParallelTriangleCounter replicated(staged);
  broadcast.SetSourceTraits(/*stable_views=*/true,
                            /*replicate_stable_views=*/false);
  replicated.SetSourceTraits(/*stable_views=*/true,
                             /*replicate_stable_views=*/true);
  plain.ProcessEdges(edges);
  for (std::size_t off = 0; off < edges.size(); off += opt.batch_size) {
    const auto view =
        edges.subspan(off, std::min(opt.batch_size, edges.size() - off));
    broadcast.AbsorbBatchView(view);
    replicated.AbsorbBatchView(view);
  }
  broadcast.Flush();
  replicated.Flush();
  EXPECT_EQ(plain.EstimateTriangles(), broadcast.EstimateTriangles());
  EXPECT_EQ(plain.EstimateTriangles(), replicated.EstimateTriangles());
  EXPECT_EQ(plain.EstimateWedges(), replicated.EstimateWedges());
}

TEST(ParallelCounterTest, OversizedViewGrowsStagingBitIdentical) {
  // A view larger than the pre-touched staging capacity (an engine batch
  // size above the counter's own w) triggers the on-node growth
  // generation; content and batch boundaries must be preserved exactly.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 7), 57);
  const std::span<const Edge> edges(stream.edges());
  ParallelCounterOptions opt = POptions(6000, 2, 321);
  opt.batch_size = 64;  // staging pre-touched to 64 edges
  ParallelCounterOptions staged = opt;
  staged.topology.override_topology = FakeTwoNodeTopology();
  ParallelTriangleCounter broadcast(opt);
  ParallelTriangleCounter replicated(staged);
  // One whole-stream view (~500 edges) = one batch on every shard, far
  // above the staging capacity in the replicated counter.
  broadcast.AbsorbBatchView(edges);
  replicated.AbsorbBatchView(edges);
  broadcast.Flush();
  replicated.Flush();
  EXPECT_EQ(broadcast.EstimateTriangles(), replicated.EstimateTriangles());
  EXPECT_EQ(broadcast.EstimateWedges(), replicated.EstimateWedges());
  // And the pool keeps working afterwards (the growth generation swapped
  // the published task out and back).
  broadcast.ProcessEdges(edges);
  replicated.ProcessEdges(edges);
  EXPECT_EQ(broadcast.EstimateTriangles(), replicated.EstimateTriangles());
}

TEST(ParallelCounterTest, NumaOffMatchesAuto) {
  // numa=kOff forces the single-node substrate; results never depend on
  // the detected topology either way.
  const auto stream = CanonicalStream();
  ParallelCounterOptions auto_opt = POptions(4000, 3, 77);
  ParallelCounterOptions off_opt = auto_opt;
  off_opt.topology.numa = TopologyOptions::Numa::kOff;
  off_opt.topology.pin_threads = true;
  ParallelTriangleCounter a(auto_opt);
  ParallelTriangleCounter b(off_opt);
  EXPECT_EQ(b.num_nodes(), 1u);
  a.ProcessEdges(stream.edges());
  b.ProcessEdges(stream.edges());
  EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles());
  EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges());
}

TEST(ParallelCounterTest, ShardDistributionMatchesSerialEngine) {
  // Mean per-estimator c and triangle rate must agree with a serial
  // counter at the same total r (independent seeds; statistical bound).
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(50, 400, 21), 13);
  constexpr std::uint64_t r = 60000;
  ParallelTriangleCounter parallel(POptions(r, 4, 1001));
  parallel.ProcessEdges(stream.edges());
  TriangleCounterOptions sopt;
  sopt.num_estimators = r;
  sopt.seed = 2002;
  TriangleCounter serial(sopt);
  serial.ProcessEdges(stream.edges());
  EXPECT_NEAR(parallel.EstimateTriangles(), serial.EstimateTriangles(),
              0.25 * serial.EstimateTriangles() + 10.0);
  EXPECT_NEAR(parallel.EstimateWedges(), serial.EstimateWedges(),
              0.10 * serial.EstimateWedges() + 10.0);
}

}  // namespace
}  // namespace core
}  // namespace tristream
