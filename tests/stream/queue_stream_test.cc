// Tests for the live bounded-queue edge source: ordering, backpressure,
// close semantics (clean EOF vs producer failure), multi-producer
// interleaving (exercised under TSan in CI), and end-to-end failure
// propagation through the engine::StreamEngine driver.

#include "stream/queue_stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/triangle_counter.h"
#include "core/sliding_window.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"

namespace tristream {
namespace stream {
namespace {

std::vector<Edge> Drain(EdgeStream& s, std::size_t batch_size = 64) {
  std::vector<Edge> all;
  std::vector<Edge> batch;
  while (s.NextBatch(batch_size, &batch) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

TEST(QueueEdgeStreamTest, DeliversPushedEdgesInOrder) {
  QueueEdgeStream queue(8);  // smaller than the stream: forces wraparound
  std::thread producer([&queue] {
    for (VertexId i = 0; i < 1000; ++i) {
      ASSERT_TRUE(queue.Push(Edge(i, i + 1)));
    }
    queue.Close();
  });
  const auto all = Drain(queue, 13);
  producer.join();
  ASSERT_EQ(all.size(), 1000u);
  for (VertexId i = 0; i < 1000; ++i) EXPECT_EQ(all[i], Edge(i, i + 1));
  EXPECT_TRUE(queue.status().ok());
  EXPECT_EQ(queue.edges_delivered(), 1000u);
}

TEST(QueueEdgeStreamTest, SpanPushKeepsRunsInOrder) {
  QueueEdgeStream queue(32);
  std::thread producer([&queue] {
    std::vector<Edge> run;
    VertexId next = 0;
    // Runs both smaller and larger than the capacity.
    for (const std::size_t len : {3u, 50u, 1u, 80u, 7u}) {
      run.clear();
      for (std::size_t i = 0; i < len; ++i, ++next) {
        run.push_back(Edge(next, next + 1));
      }
      ASSERT_EQ(queue.Push(std::span<const Edge>(run)), len);
    }
    queue.Close();
  });
  const auto all = Drain(queue);
  producer.join();
  ASSERT_EQ(all.size(), 141u);
  for (VertexId i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], Edge(i, i + 1));
}

TEST(QueueEdgeStreamTest, CloseWithOkIsCleanEndOfStream) {
  QueueEdgeStream queue(16);
  queue.Push(Edge(1, 2));
  queue.Push(Edge(2, 3));
  queue.Close();
  std::vector<Edge> batch;
  EXPECT_EQ(queue.NextBatch(10, &batch), 2u);  // buffered edges still drain
  EXPECT_EQ(queue.NextBatch(10, &batch), 0u);
  EXPECT_TRUE(queue.status().ok());
  EXPECT_TRUE(queue.closed());
}

TEST(QueueEdgeStreamTest, CloseWithErrorIsStickyAndRefusesPushes) {
  QueueEdgeStream queue(16);
  queue.Push(Edge(1, 2));
  queue.Close(Status::IoError("producer disconnected"));
  EXPECT_FALSE(queue.Push(Edge(3, 4)));  // dropped, not buffered
  std::vector<Edge> batch;
  EXPECT_EQ(queue.NextBatch(10, &batch), 1u);  // the prefix still drains...
  EXPECT_EQ(queue.NextBatch(10, &batch), 0u);
  // ...but the stream never reads as cleanly ended.
  EXPECT_EQ(queue.status().code(), StatusCode::kIoError);
  EXPECT_EQ(queue.status().message(), "producer disconnected");
}

TEST(QueueEdgeStreamTest, LateErrorUpgradesCleanCloseButFirstErrorWins) {
  QueueEdgeStream queue(4);
  queue.Close();  // a clean close won the race...
  EXPECT_TRUE(queue.status().ok());
  queue.Close(Status::IoError("straggler failed"));  // ...then one failed
  EXPECT_EQ(queue.status().code(), StatusCode::kIoError);
  queue.Close(Status::CorruptData("second failure"));
  EXPECT_EQ(queue.status().code(), StatusCode::kIoError);  // first error wins
}

TEST(QueueEdgeStreamTest, BackpressureBoundsTheProducer) {
  constexpr std::size_t kCapacity = 16;
  QueueEdgeStream queue(kCapacity);
  std::atomic<std::size_t> pushed{0};
  std::thread producer([&] {
    for (VertexId i = 0; i < 500; ++i) {
      ASSERT_TRUE(queue.Push(Edge(i, i + 1)));
      pushed.fetch_add(1, std::memory_order_relaxed);
    }
    queue.Close();
  });
  // With no consumer popping, the producer must block at the bound -- the
  // whole point of a *bounded* live buffer.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(pushed.load(), kCapacity);
  const auto all = Drain(queue);
  producer.join();
  EXPECT_EQ(all.size(), 500u);
  EXPECT_EQ(pushed.load(), 500u);
}

TEST(QueueEdgeStreamTest, ConsumerWaitIsReportedAsIoTime) {
  QueueEdgeStream queue(16);
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queue.Push(Edge(1, 2));
    queue.Close();
  });
  const auto all = Drain(queue);
  producer.join();
  ASSERT_EQ(all.size(), 1u);
  // The consumer sat blocked for ~50ms; that is live I/O time.
  EXPECT_GT(queue.io_seconds(), 0.02);
}

TEST(QueueEdgeStreamTest, MultiProducerInterleavingDeliversEveryEdge) {
  constexpr int kProducers = 4;
  constexpr VertexId kPerProducer = 2000;
  QueueEdgeStream queue(64);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      const auto base = static_cast<VertexId>(p) * 1000000;
      for (VertexId i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(Edge(base + i, base + i + 1)));
      }
    });
  }
  // Closing is its own role: whoever joins the producers reports EOF.
  std::thread closer([&] {
    for (std::thread& t : producers) t.join();
    queue.Close();
  });
  auto all = Drain(queue, 97);
  closer.join();
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  // Interleaving across producers is arbitrary; the union must be exact.
  std::sort(all.begin(), all.end(),
            [](const Edge& a, const Edge& b) { return a.Key() < b.Key(); });
  std::size_t idx = 0;
  for (int p = 0; p < kProducers; ++p) {
    const auto base = static_cast<VertexId>(p) * 1000000;
    for (VertexId i = 0; i < kPerProducer; ++i, ++idx) {
      EXPECT_EQ(all[idx], Edge(base + i, base + i + 1));
    }
  }
  EXPECT_TRUE(queue.status().ok());
}

TEST(QueueEdgeStreamTest, ResetReopensAnEmptiedQueue) {
  QueueEdgeStream queue(8);
  queue.Push(Edge(1, 2));
  queue.Close(Status::IoError("first run failed"));
  (void)Drain(queue);
  EXPECT_FALSE(queue.status().ok());
  queue.Reset();
  EXPECT_TRUE(queue.status().ok());
  EXPECT_FALSE(queue.closed());
  EXPECT_EQ(queue.edges_delivered(), 0u);
  EXPECT_TRUE(queue.Push(Edge(7, 8)));
  queue.Close();
  const auto all = Drain(queue);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], Edge(7, 8));
}

TEST(QueueEdgeStreamTest, EngineRunBitIdenticalToMemoryStream) {
  // The loopback acceptance contract: edges pushed through the live queue
  // must produce exactly the estimates of the same edges served from
  // memory, for a fixed (seed, threads).
  const auto el = gen::GnmRandom(200, 3000, 31);
  for (const std::uint32_t threads : {1u, 3u}) {
    core::TriangleCounterOptions options;
    options.num_estimators = 4096;
    options.num_threads = threads;
    options.seed = 20260726;
    options.batch_size = 256;

    engine::TsbEstimator from_memory(options);
    MemoryEdgeStream memory(el);
    engine::StreamEngine memory_engine;
    ASSERT_TRUE(memory_engine.Run(from_memory, memory).ok());

    engine::TsbEstimator from_queue(options);
    QueueEdgeStream queue(512);
    std::thread producer([&queue, &el] {
      // Push in ragged runs to decouple producer chunking from the
      // counter's batch size.
      const std::span<const Edge> edges(el.edges());
      std::size_t offset = 0;
      std::size_t len = 1;
      while (offset < edges.size()) {
        const std::size_t take = std::min(len, edges.size() - offset);
        ASSERT_EQ(queue.Push(edges.subspan(offset, take)), take);
        offset += take;
        len = len % 700 + 13;
      }
      queue.Close();
    });
    engine::StreamEngine queue_engine;
    ASSERT_TRUE(queue_engine.Run(from_queue, queue).ok());
    producer.join();

    EXPECT_EQ(from_queue.EstimateTriangles(), from_memory.EstimateTriangles())
        << threads << " threads";
    EXPECT_EQ(from_queue.EstimateWedges(), from_memory.EstimateWedges())
        << threads << " threads";
  }
}

TEST(QueueEdgeStreamTest, ProducerFailureSurfacesThroughEngineRun) {
  const auto el = gen::GnmRandom(120, 2000, 32);
  core::TriangleCounterOptions options;
  options.num_estimators = 1024;
  options.num_threads = 2;
  options.seed = 7;
  options.batch_size = 128;
  engine::TsbEstimator estimator(options);

  QueueEdgeStream queue(256);
  std::thread producer([&queue, &el] {
    const std::span<const Edge> edges(el.edges());
    queue.Push(edges.subspan(0, edges.size() / 2));
    // The feed dies mid-stream: this must never read as a clean EOF.
    queue.Close(Status::IoError("upstream collector died"));
  });
  engine::StreamEngine eng;
  const Status streamed = eng.Run(estimator, queue);
  producer.join();
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.code(), StatusCode::kIoError);
  EXPECT_EQ(estimator.edges_processed(), el.size() / 2);  // a prefix only
}

TEST(QueueEdgeStreamTest, SlidingWindowDriverMatchesInlineProcessing) {
  const auto el = gen::GnmRandom(120, 4000, 33);
  core::SlidingWindowOptions options;
  options.window_size = 1000;
  options.num_estimators = 512;
  options.seed = 11;

  core::SlidingWindowTriangleCounter inline_counter(options);
  inline_counter.ProcessEdges(el.edges());

  engine::SlidingWindowEstimator live_counter(options);
  QueueEdgeStream queue(128);
  std::thread producer([&queue, &el] {
    queue.Push(std::span<const Edge>(el.edges()));
    queue.Close();
  });
  engine::StreamEngine eng;
  ASSERT_TRUE(eng.Run(live_counter, queue).ok());
  producer.join();
  EXPECT_EQ(live_counter.edges_processed(), el.size());
  EXPECT_EQ(live_counter.EstimateTriangles(),
            inline_counter.EstimateTriangles());
  EXPECT_EQ(live_counter.EstimateWedges(), inline_counter.EstimateWedges());
}

}  // namespace
}  // namespace stream
}  // namespace tristream
