// Engine-level turnstile contract: the session delete gate (insert-only
// estimators refuse delete batches with a diagnostic naming the
// estimator), the dynamic estimator end-to-end through StreamEngine::Run
// on churned streams, its factory validation, and checkpoint/resume.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "engine/estimators.h"
#include "engine/session.h"
#include "engine/stream_engine.h"
#include "gen/churn.h"
#include "gen/erdos_renyi.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "stream/queue_stream.h"
#include "util/types.h"

namespace tristream {
namespace engine {
namespace {

EdgeEventList ChurnedStream(double delete_fraction, std::uint64_t seed) {
  const auto graph = gen::GnmRandom(60, 600, seed);
  gen::ChurnOptions churn;
  churn.schedule = gen::ChurnSchedule::kMixed;
  churn.delete_fraction = delete_fraction;
  churn.seed = seed;
  return gen::MakeChurnStream(graph, churn);
}

/// Exact triangle count of the live graph left behind by `events`.
double LiveTriangles(const EdgeEventList& events) {
  std::vector<Edge> live;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.op(i) == EdgeOp::kInsert) {
      live.push_back(events.edges[i]);
    } else {
      for (std::size_t j = 0; j < live.size(); ++j) {
        if (live[j].Key() == events.edges[i].Key()) {
          live[j] = live.back();
          live.pop_back();
          break;
        }
      }
    }
  }
  graph::EdgeList el;
  for (const Edge& e : live) el.Add(e);
  return static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(el)));
}

EstimatorConfig ExactDynamicConfig() {
  EstimatorConfig config;
  config.dynamic_groups = 1;
  config.sample_probability = 1.0;
  return config;
}

// ------------------------------------------------------- the delete gate

TEST(TurnstileEngineTest, InsertOnlyEstimatorRefusesDeletesNamingItself) {
  const EdgeEventList events = ChurnedStream(0.3, 5);
  ASSERT_TRUE(events.has_deletes());
  for (const std::string algo : {"tsb", "bulk", "buriol"}) {
    EstimatorConfig config;
    config.num_vertices = 64;  // buriol needs the universe in advance
    auto est = MakeEstimator(algo, config);
    ASSERT_TRUE(est.ok()) << est.status();
    stream::MemoryEdgeStream source(events);
    StreamEngine eng;
    const Status streamed = eng.Run(**est, source);
    ASSERT_FALSE(streamed.ok()) << algo;
    EXPECT_EQ(streamed.code(), StatusCode::kInvalidArgument) << algo;
    // The diagnostic names the refusing estimator and points at the fix.
    EXPECT_NE(streamed.message().find("'" + algo + "'"), std::string::npos)
        << streamed.ToString();
    EXPECT_NE(streamed.message().find("dynamic"), std::string::npos)
        << streamed.ToString();
  }
}

TEST(TurnstileEngineTest, SessionFailsStickyOnDeleteBatch) {
  const EdgeEventList events = ChurnedStream(0.5, 6);
  auto est = MakeEstimator("tsb", EstimatorConfig{});
  ASSERT_TRUE(est.ok());
  stream::MemoryEdgeStream source(events);
  Session session(**est, source, SessionOptions{});
  while (!session.done()) session.Step();
  EXPECT_EQ(session.state(), SessionState::kFailed);
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(TurnstileEngineTest, InsertOnlyEstimatorStillRunsOnInsertOnlyEvents) {
  // The gate keys on actual deletes, not on the source being event-shaped.
  EdgeEventList events;
  const auto graph = gen::GnmRandom(60, 600, 7);
  for (const Edge& e : graph.edges()) events.Add(e);
  ASSERT_FALSE(events.has_deletes());
  auto est = MakeEstimator("bulk", EstimatorConfig{});
  ASSERT_TRUE(est.ok());
  stream::MemoryEdgeStream source(events);
  StreamEngine eng;
  EXPECT_TRUE(eng.Run(**est, source).ok());
  EXPECT_EQ((*est)->edges_processed(), graph.size());
}

// -------------------------------------------- dynamic estimator end-to-end

TEST(TurnstileEngineTest, DynamicEstimatorAbsorbsChurnExactly) {
  const EdgeEventList events = ChurnedStream(0.4, 8);
  auto est = MakeEstimator("dynamic", ExactDynamicConfig());
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_TRUE((*est)->supports_deletions());
  stream::MemoryEdgeStream source(events);
  StreamEngine eng;
  ASSERT_TRUE(eng.Run(**est, source).ok());
  EXPECT_EQ((*est)->edges_processed(), events.size());
  EXPECT_DOUBLE_EQ((*est)->EstimateTriangles(), LiveTriangles(events));
}

TEST(TurnstileEngineTest, DynamicEstimatorDrainsChurnedQueue) {
  const EdgeEventList events = ChurnedStream(0.3, 9);
  stream::QueueEdgeStream queue(1 << 12);
  ASSERT_EQ(queue.PushEvents(events.edges, events.ops), events.size());
  queue.Close();
  auto est = MakeEstimator("dynamic", ExactDynamicConfig());
  ASSERT_TRUE(est.ok());
  StreamEngine eng;
  ASSERT_TRUE(eng.Run(**est, queue).ok());
  EXPECT_DOUBLE_EQ((*est)->EstimateTriangles(), LiveTriangles(events));
}

TEST(TurnstileEngineTest, DynamicCheckpointResumeIsBitIdentical) {
  const EdgeEventList events = ChurnedStream(0.3, 10);
  ASSERT_TRUE(events.has_deletes());
  const std::size_t cut = events.size() / 2;
  EstimatorConfig config;
  config.dynamic_groups = 6;
  config.sample_probability = 0.5;

  auto original = MakeEstimator("dynamic", config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE((*original)->checkpointable());
  EventBatchView full = events.view();
  (*original)->ProcessEvents(
      {full.edges.subspan(0, cut), full.ops.subspan(0, cut)});

  ckpt::ByteSink sink;
  ASSERT_TRUE((*original)->SaveState(sink).ok());
  auto resumed = MakeEstimator("dynamic", config);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)->config_fingerprint(),
            (*original)->config_fingerprint());
  ckpt::ByteSource source(sink.data());
  ASSERT_TRUE((*resumed)->RestoreState(source).ok());

  const EventBatchView tail{full.edges.subspan(cut), full.ops.subspan(cut)};
  (*original)->ProcessEvents(tail);
  (*resumed)->ProcessEvents(tail);
  EXPECT_DOUBLE_EQ((*resumed)->EstimateTriangles(),
                   (*original)->EstimateTriangles());
  EXPECT_EQ((*resumed)->edges_processed(), (*original)->edges_processed());
}

// ------------------------------------------------------ factory validation

TEST(TurnstileEngineTest, FactoryValidatesDynamicConfig) {
  EstimatorConfig config;
  config.sample_probability = 0.0;
  EXPECT_EQ(MakeEstimator("dynamic", config).status().code(),
            StatusCode::kInvalidArgument);
  config.sample_probability = 1.5;
  EXPECT_EQ(MakeEstimator("dynamic", config).status().code(),
            StatusCode::kInvalidArgument);
  config = EstimatorConfig{};
  config.dynamic_groups = 0;
  EXPECT_EQ(MakeEstimator("dynamic", config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(MakeEstimator("dynamic", EstimatorConfig{}).ok());
}

TEST(TurnstileEngineTest, DynamicFingerprintTracksConfig) {
  auto base = MakeEstimator("dynamic", EstimatorConfig{});
  ASSERT_TRUE(base.ok());
  EstimatorConfig other;
  other.sample_probability = 0.25;
  auto changed = MakeEstimator("dynamic", other);
  ASSERT_TRUE(changed.ok());
  EXPECT_NE((*base)->config_fingerprint(), (*changed)->config_fingerprint());
}

}  // namespace
}  // namespace engine
}  // namespace tristream
