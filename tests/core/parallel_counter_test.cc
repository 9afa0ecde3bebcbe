// Tests for TriangleCounter on worker threads: every thread count is
// bit-identical to the inline counter (estimates, estimator states and
// snapshots), through every push shape and both AbsorbBatchView paths,
// pinned or not; uneven lane ranges cover every lane; and the memory
// footprint does not grow with the thread count.

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ckpt/serial.h"
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

TriangleCounterOptions Options(std::uint64_t r, std::uint32_t threads,
                               std::uint64_t seed, std::size_t batch = 0) {
  TriangleCounterOptions opt;
  opt.num_estimators = r;
  opt.num_threads = threads;
  opt.seed = seed;
  opt.batch_size = batch;
  return opt;
}

/// Everything a run leaves behind that the thread count must not change.
struct Outcome {
  double triangles = 0.0;
  double wedges = 0.0;
  double transitivity = 0.0;
  std::uint64_t edges = 0;
  std::string state;  // SaveState bytes

  bool operator==(const Outcome&) const = default;
};

Outcome Read(TriangleCounter& counter) {
  Outcome out;
  ckpt::ByteSink sink;
  counter.SaveState(sink);  // before the reads flush a partial batch
  out.state = sink.data();
  out.triangles = counter.EstimateTriangles();
  out.wedges = counter.EstimateWedges();
  out.transitivity = counter.EstimateTransitivity();
  out.edges = counter.edges_processed();
  return out;
}

Outcome RunSpan(const TriangleCounterOptions& opt,
                std::span<const Edge> edges) {
  TriangleCounter counter(opt);
  counter.ProcessEdges(edges);
  return Read(counter);
}

TEST(ParallelCounterTest, OneWorkerMatchesAccuracy) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 5), 55);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(stream)));
  TriangleCounter counter(Options(40000, 1, 3));
  counter.ProcessEdges(stream.edges());
  EXPECT_EQ(counter.num_threads(), 1u);
  EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.15 * tau);
}

TEST(ParallelCounterTest, MultiThreadAccuracy) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 7), 57);
  const auto csr = graph::Csr::FromEdgeList(stream);
  const auto tau = static_cast<double>(graph::CountTriangles(csr));
  const auto zeta = static_cast<double>(graph::CountWedges(csr));
  for (std::uint32_t threads : {2u, 3u, 4u}) {
    TriangleCounter counter(Options(42000, threads, 9));
    counter.ProcessEdges(stream.edges());
    EXPECT_EQ(counter.num_threads(), threads);
    EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.15 * tau)
        << threads << " threads";
    EXPECT_NEAR(counter.EstimateWedges(), zeta, 0.10 * zeta);
  }
}

TEST(ParallelCounterTest, BitIdenticalToInlineAtEveryThreadCount) {
  // Lanes draw from their global streams whichever worker runs them, so
  // the thread count is a pure scheduling change -- including more
  // threads than this machine has cores.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(70, 600, 11), 31);
  const std::span<const Edge> edges(stream.edges());
  // Several batches plus a partial tail, filtered and filterless.
  for (const std::size_t batch : {500, 4000}) {
    const Outcome inline_run = RunSpan(Options(12000, 0, 424242, batch),
                                       edges);
    EXPECT_EQ(inline_run.edges, edges.size());
    for (std::uint32_t threads : {1u, 2u, 3u, 8u}) {
      EXPECT_TRUE(RunSpan(Options(12000, threads, 424242, batch), edges) ==
                  inline_run)
          << threads << " threads, batch " << batch;
    }
  }
}

TEST(ParallelCounterTest, UnevenLaneRangesCoverEveryLane) {
  // 1001 lanes over 4 workers: ranges of 251, 250, 250, 250 lanes.
  const auto stream = CanonicalStream();
  TriangleCounter inline_counter(Options(1001, 0, 5));
  TriangleCounter threaded(Options(1001, 4, 5));
  inline_counter.ProcessEdges(stream.edges());
  threaded.ProcessEdges(stream.edges());
  const std::vector<double> want = inline_counter.PerEstimatorWedgeEstimates();
  const std::vector<double> got = threaded.PerEstimatorWedgeEstimates();
  ASSERT_EQ(got.size(), 1001u);
  EXPECT_EQ(got, want);
  EXPECT_EQ(threaded.PerEstimatorTriangleEstimates(),
            inline_counter.PerEstimatorTriangleEstimates());
}

TEST(ParallelCounterTest, MoreThreadsThanEstimatorsClamps) {
  const auto stream = CanonicalStream();
  TriangleCounter counter(Options(3, 16, 5));
  EXPECT_EQ(counter.num_threads(), 3u);
  counter.ProcessEdges(stream.edges());
  TriangleCounter inline_counter(Options(3, 0, 5));
  inline_counter.ProcessEdges(stream.edges());
  EXPECT_EQ(counter.EstimateWedges(), inline_counter.EstimateWedges());
}

TEST(ParallelCounterTest, EmptyStreamSafe) {
  TriangleCounter counter(Options(100, 2, 1));
  EXPECT_EQ(counter.EstimateTriangles(), 0.0);
  EXPECT_EQ(counter.EstimateTransitivity(), 0.0);
  EXPECT_EQ(counter.edges_processed(), 0u);
}

TEST(ParallelCounterTest, PerEdgePushWithFlushes) {
  const auto stream = CanonicalStream();
  TriangleCounter counter(Options(30000, 2, 13));
  for (const Edge& e : stream.edges()) counter.ProcessEdge(e);
  counter.Flush();
  EXPECT_EQ(counter.edges_processed(), stream.size());
  EXPECT_NEAR(counter.EstimateTriangles(), 5.0, 0.6);
}

TEST(ParallelCounterTest, PushShapesLandOnTheSameBatches) {
  // Single-edge pushes, one span push and a mid-stream Flush() (which
  // absorbs the partial batch as a batch of its own) must each match the
  // inline counter fed the same way.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(40, 300, 3), 17);
  const std::span<const Edge> edges(stream.edges());
  const std::size_t half = edges.size() / 2;  // not a batch multiple
  for (std::uint32_t threads : {0u, 2u, 8u}) {
    TriangleCounter per_edge(Options(6000, threads, 7, 128));
    for (const Edge& e : edges) per_edge.ProcessEdge(e);
    TriangleCounter flushed(Options(6000, threads, 7, 128));
    flushed.ProcessEdges(edges.subspan(0, half));
    const double mid = flushed.EstimateTriangles();
    flushed.ProcessEdges(edges.subspan(half));
    TriangleCounter inline_flushed(Options(6000, 0, 7, 128));
    inline_flushed.ProcessEdges(edges.subspan(0, half));
    EXPECT_EQ(mid, inline_flushed.EstimateTriangles()) << threads;
    inline_flushed.ProcessEdges(edges.subspan(half));
    EXPECT_TRUE(Read(per_edge) == RunSpan(Options(6000, 0, 7, 128), edges))
        << threads << " threads";
    EXPECT_TRUE(Read(flushed) == Read(inline_flushed))
        << threads << " threads";
  }
}

TEST(ParallelCounterTest, PinnedBitIdenticalToUnpinned) {
  // Pinning is placement only: the estimates match the unpinned counter
  // to the last bit. The pin plan must also take effect wherever the
  // platform has an affinity API.
  const bool has_affinity = ::sched_getcpu() >= 0;
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(70, 600, 11), 31);
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    const TriangleCounterOptions unpinned =
        Options(12000, threads, 424242, 500);
    TriangleCounterOptions pinned = unpinned;
    pinned.pin_threads = true;
    TriangleCounter a(unpinned);
    TriangleCounter b(pinned);
    EXPECT_FALSE(a.pinned());
    if (has_affinity) {
      EXPECT_TRUE(b.pinned()) << threads << " threads";
    }
    a.ProcessEdges(stream.edges());
    b.ProcessEdges(stream.edges());
    EXPECT_TRUE(Read(a) == Read(b)) << threads << " threads";
  }
}

TEST(ParallelCounterTest, BatchViewsMatchProcessEdges) {
  // AbsorbBatchView absorbs a whole batch at a batch boundary in place and
  // buffers any other view, so batch boundaries fall every w edges
  // whatever the view sizes: aligned views, ragged views, and a view
  // followed by ProcessEdges all reproduce ProcessEdges.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(50, 400, 21), 13);
  const std::span<const Edge> edges(stream.edges());
  constexpr std::size_t kBatch = 100;
  for (std::uint32_t threads : {0u, 3u}) {
    const TriangleCounterOptions opt = Options(6000, threads, 99, kBatch);
    const Outcome plain = RunSpan(opt, edges);
    for (const std::size_t view : {kBatch, std::size_t{77}, 3 * kBatch + 1}) {
      TriangleCounter viewed(opt);
      for (std::size_t off = 0; off < edges.size(); off += view) {
        viewed.AbsorbBatchView(
            edges.subspan(off, std::min(view, edges.size() - off)));
      }
      EXPECT_TRUE(Read(viewed) == plain)
          << threads << " threads, views of " << view;
    }
    ASSERT_GT(edges.size(), 3 * kBatch);
    TriangleCounter mixed(opt);
    mixed.AbsorbBatchView(edges.subspan(0, kBatch));   // in place
    mixed.AbsorbBatchView(edges.subspan(kBatch, 30));  // buffered
    mixed.ProcessEdges(edges.subspan(kBatch + 30, kBatch - 30));
    mixed.AbsorbBatchView(edges.subspan(2 * kBatch, kBatch));  // in place
    mixed.ProcessEdges(edges.subspan(3 * kBatch));
    EXPECT_TRUE(Read(mixed) == plain) << threads << " threads, mixed";
  }
}

TEST(ParallelCounterTest, MemoryBytesFlatInThreadCount) {
  // One index and one set of lane-sized arrays at every T; only the Q
  // tables split by lane range. At the production operating point
  // (r = 2^17, w = 8r) T = 1 and T = 4 stay within 5% of each other.
  constexpr std::uint64_t kR = std::uint64_t{1} << 17;
  const std::size_t one = TriangleCounter(Options(kR, 1, 1)).MemoryBytes();
  const std::size_t four = TriangleCounter(Options(kR, 4, 1)).MemoryBytes();
  EXPECT_LE(std::max(one, four), std::min(one, four) * 105 / 100)
      << one << " vs " << four;
  // The inline counter holds one batch buffer fewer.
  const std::size_t inline_bytes =
      TriangleCounter(Options(kR, 0, 1)).MemoryBytes();
  EXPECT_EQ(one - inline_bytes, 8 * kR * sizeof(Edge));
}

}  // namespace
}  // namespace core
}  // namespace tristream
