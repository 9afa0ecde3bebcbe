// Engine parity suite: every estimator the engine drives must be
// bit-identical to the same estimator fed by a manual ProcessEdges loop
// over the same batches, across Memory, Mmap, and Queue sources. This is
// the contract that made deleting the per-counter ProcessStream drivers
// safe: the engine is a pure driver -- it changes *when* fetch and absorb
// happen, never *what* any estimator computes.

#include "engine/stream_engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/estimators.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_stream.h"
#include "stream/mmap_io.h"
#include "stream/queue_stream.h"

namespace tristream {
namespace engine {
namespace {

constexpr std::size_t kBatch = 256;  // several batches plus a partial tail

/// One estimate triple; wedge fields are 0 for triangles-only algorithms.
struct Estimates {
  std::uint64_t edges = 0;
  double triangles = 0.0;
  double wedges = 0.0;
  double transitivity = 0.0;

  bool operator==(const Estimates&) const = default;
};

Estimates Read(StreamingEstimator& est) {
  Estimates out;
  out.edges = est.edges_processed();
  out.triangles = est.EstimateTriangles();
  if (est.has_wedge_estimates()) {
    out.wedges = est.EstimateWedges();
    out.transitivity = est.EstimateTransitivity();
  }
  return out;
}

/// The reference: a hand-rolled ProcessEdges loop over kBatch-sized spans
/// -- exactly the batches the engine will fetch from any healthy source.
Estimates RunManual(const std::string& algo, const EstimatorConfig& config,
                    const graph::EdgeList& el) {
  auto est = MakeEstimator(algo, config);
  EXPECT_TRUE(est.ok()) << est.status();
  const std::span<const Edge> edges(el.edges());
  for (std::size_t offset = 0; offset < edges.size(); offset += kBatch) {
    (*est)->ProcessEdges(
        edges.subspan(offset, std::min(kBatch, edges.size() - offset)));
  }
  (*est)->Flush();
  return Read(**est);
}

Estimates RunEngine(const std::string& algo, const EstimatorConfig& config,
                    stream::EdgeStream& source) {
  auto est = MakeEstimator(algo, config);
  EXPECT_TRUE(est.ok()) << est.status();
  StreamEngineOptions options;
  options.batch_size = kBatch;
  StreamEngine eng(options);
  EXPECT_TRUE(eng.Run(**est, source).ok());
  EXPECT_EQ(eng.metrics().edges, source.edges_delivered());
  EXPECT_EQ(eng.metrics().batch_size, kBatch);
  return Read(**est);
}

/// Shared fixture data: one seeded graph, binary file, and per-algo
/// configuration.
class EngineParityTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    el_ = new graph::EdgeList(gen::GnmRandom(200, 3000, 97));
    path_ = new std::string(std::string(::testing::TempDir()) +
                            "/engine_parity.tris");
    ASSERT_TRUE(stream::WriteBinaryEdges(*path_, *el_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete el_;
    delete path_;
    el_ = nullptr;
    path_ = nullptr;
  }

  static EstimatorConfig Config() {
    EstimatorConfig config;
    config.num_estimators = 1024;
    config.seed = 20260726;
    config.num_threads = 3;
    config.batch_size = kBatch;  // tsb: shard batches = engine batches
    config.window_size = 800;
    config.num_vertices = 200;
    config.max_degree_bound = 128;
    config.num_colors = 4;
    return config;
  }

  static graph::EdgeList* el_;
  static std::string* path_;
};

graph::EdgeList* EngineParityTest::el_ = nullptr;
std::string* EngineParityTest::path_ = nullptr;

TEST_P(EngineParityTest, EngineMatchesManualLoopAcrossSources) {
  const std::string algo = GetParam();
  const EstimatorConfig config = Config();
  const Estimates manual = RunManual(algo, config, *el_);

  {
    stream::MemoryEdgeStream memory(*el_);
    EXPECT_EQ(RunEngine(algo, config, memory), manual) << algo << " memory";
  }
  {
    auto mapped = stream::MmapEdgeStream::Open(*path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    EXPECT_EQ(RunEngine(algo, config, **mapped), manual) << algo << " mmap";
  }
  {
    // Pre-filled and closed: every pop returns a full kBatch run, so the
    // queue feeds exactly the manual loop's batches, deterministically.
    stream::QueueEdgeStream queue(el_->size() + 1);
    ASSERT_EQ(queue.Push(std::span<const Edge>(el_->edges())), el_->size());
    queue.Close();
    EXPECT_EQ(RunEngine(algo, config, queue), manual) << algo << " queue";
  }
}

TEST_P(EngineParityTest, ResetReplaysToIdenticalEstimates) {
  const std::string algo = GetParam();
  auto est = MakeEstimator(algo, Config());
  ASSERT_TRUE(est.ok()) << est.status();
  StreamEngine eng;
  stream::MemoryEdgeStream first(*el_);
  ASSERT_TRUE(eng.Run(**est, first).ok());
  const Estimates before = Read(**est);
  (*est)->Reset();
  EXPECT_EQ((*est)->edges_processed(), 0u);
  stream::MemoryEdgeStream second(*el_);
  ASSERT_TRUE(eng.Run(**est, second).ok());
  EXPECT_EQ(Read(**est), before) << algo;
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, EngineParityTest,
                         ::testing::Values("tsb", "bulk", "window", "buriol",
                                           "colorful", "jg", "first-edge"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(StreamEngineTest, MetricsCountEdgesAndBatches) {
  const auto el = gen::GnmRandom(100, 1000, 5);
  ColorfulStreamEstimator est({.num_colors = 4, .seed = 9});
  stream::MemoryEdgeStream source(el);
  StreamEngineOptions options;
  options.batch_size = 300;
  StreamEngine eng(options);
  ASSERT_TRUE(eng.Run(est, source).ok());
  EXPECT_EQ(eng.metrics().edges, el.size());
  EXPECT_EQ(eng.metrics().batches, (el.size() + 299) / 300);
  EXPECT_EQ(eng.metrics().batch_size, 300u);
  EXPECT_GT(eng.metrics().total_seconds, 0.0);
}

TEST(StreamEngineTest, ReportHookFiresOnEdgeMultiples) {
  const auto el = gen::GnmRandom(100, 2000, 7);
  SlidingWindowEstimator est({.window_size = 500, .num_estimators = 64,
                              .seed = 3});
  stream::MemoryEdgeStream source(el);
  StreamEngineOptions options;
  options.batch_size = 128;
  options.report_every_edges = 500;
  std::vector<std::uint64_t> reported_at;
  options.on_report = [&reported_at](StreamingEstimator& e,
                                     const StreamEngineMetrics& m) {
    reported_at.push_back(e.edges_processed());
    EXPECT_EQ(m.edges, e.edges_processed());
  };
  StreamEngine eng(options);
  ASSERT_TRUE(eng.Run(est, source).ok());
  // 2000 edges / report every 500 = a report after crossing each multiple.
  ASSERT_EQ(reported_at.size(), 4u);
  for (std::size_t i = 0; i < reported_at.size(); ++i) {
    EXPECT_GE(reported_at[i], (i + 1) * 500);
  }
}

}  // namespace
}  // namespace engine
}  // namespace tristream
