// Tests for the TRIS-framed socket edge source: frame parsing and batch
// granularity over socketpair(2), clean-EOF vs mid-frame-failure
// semantics, producer-side framing errors, and the loopback-TCP
// acceptance contract -- edges sent over a socket must produce estimates
// bit-identical to the same edges served from memory, and a producer
// death mid-frame must surface as a non-OK engine::StreamEngine::Run
// return.

#include "stream/socket_stream.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_stream.h"

namespace tristream {
namespace stream {
namespace {

/// A connected AF_UNIX stream pair: fds[0] = producer, fds[1] = consumer.
struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    // fds[1] is normally owned (and closed) by a SocketEdgeStream.
  }
  void CloseProducer() {
    ::close(fds[0]);
    fds[0] = -1;
  }
  int fds[2] = {-1, -1};
};

std::vector<Edge> MakeEdges(VertexId count) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < count; ++i) edges.push_back(Edge(i, i + 1));
  return edges;
}

std::vector<Edge> Drain(EdgeStream& s, std::size_t batch_size) {
  std::vector<Edge> all;
  std::vector<Edge> batch;
  while (s.NextBatch(batch_size, &batch) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

TEST(SocketEdgeStreamTest, DeliversFramedEdgesAcrossFrames) {
  SocketPair pair;
  const auto edges = MakeEdges(900);
  const std::span<const Edge> all(edges);
  // Three ragged frames, written whole while the socket buffer is empty.
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], all.subspan(0, 100)).ok());
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], all.subspan(100, 650)).ok());
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], all.subspan(750)).ok());
  pair.CloseProducer();

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok()) << source.status();
  const auto got = Drain(**source, 128);
  ASSERT_EQ(got.size(), edges.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], edges[i]);
  EXPECT_TRUE((*source)->status().ok());  // shutdown at a frame boundary
  EXPECT_EQ((*source)->edges_delivered(), edges.size());
}

TEST(SocketEdgeStreamTest, PopsAreBatchGranularWithinAFrame) {
  SocketPair pair;
  const auto edges = MakeEdges(100);
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], edges).ok());
  pair.CloseProducer();
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  std::vector<Edge> batch;
  // A 100-edge frame never forces a 100-edge batch.
  EXPECT_EQ((*source)->NextBatch(7, &batch), 7u);
  EXPECT_EQ((*source)->frame_remaining(), 93u);
  std::size_t total = 7;
  while ((*source)->NextBatch(7, &batch) > 0) total += batch.size();
  EXPECT_EQ(total, 100u);
  EXPECT_TRUE((*source)->status().ok());
}

TEST(SocketEdgeStreamTest, EmptyFramesAreKeepAlives) {
  SocketPair pair;
  const auto edges = MakeEdges(5);
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], {}).ok());
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], edges).ok());
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], {}).ok());
  pair.CloseProducer();
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  const auto got = Drain(**source, 64);
  EXPECT_EQ(got.size(), 5u);
  EXPECT_TRUE((*source)->status().ok());
}

TEST(SocketEdgeStreamTest, MidFramePayloadTruncationIsCorruptData) {
  SocketPair pair;
  // Promise 100 edges, deliver 40, vanish.
  const auto edges = MakeEdges(40);
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion, sizeof(kTrisVersion));
  const std::uint64_t promised = 100;
  std::memcpy(header + 8, &promised, sizeof(promised));
  ASSERT_EQ(::send(pair.fds[0], header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(pair.fds[0], edges.data(), 40 * sizeof(Edge), 0),
            static_cast<ssize_t>(40 * sizeof(Edge)));
  pair.CloseProducer();

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  const auto got = Drain(**source, 16);
  // Whole 16-edge pops drain; the ragged tail dies with the frame.
  EXPECT_EQ(got.size(), 32u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kCorruptData);
}

TEST(SocketEdgeStreamTest, DisconnectBeforeHandshakeIsIoError) {
  // A peer that dies before completing even one frame header never spoke
  // the protocol at all: that is a transport failure (retryable), not a
  // framing violation -- a retrying feeder must be allowed to reconnect.
  SocketPair pair;
  ASSERT_EQ(::send(pair.fds[0], "TRIS\1", 5, 0), 5);
  pair.CloseProducer();
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  std::vector<Edge> batch;
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kIoError);
  EXPECT_NE((*source)->status().message().find("before handshake"),
            std::string::npos)
      << (*source)->status();
}

TEST(SocketEdgeStreamTest, TruncatedHeaderAfterHandshakeIsCorruptData) {
  // Once one complete header has arrived the peer has proven it speaks
  // TRIS; a later ragged header is mid-stream truncation, still
  // CorruptData.
  SocketPair pair;
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], {}).ok());  // keep-alive
  ASSERT_EQ(::send(pair.fds[0], "TRIS\1", 5, 0), 5);
  pair.CloseProducer();
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  std::vector<Edge> batch;
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kCorruptData);
}

TEST(SocketEdgeStreamTest, BadMagicIsCorruptData) {
  SocketPair pair;
  ASSERT_EQ(::send(pair.fds[0], "JUNKJUNKJUNKJUNK", 16, 0), 16);
  pair.CloseProducer();
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  std::vector<Edge> batch;
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kCorruptData);
}

TEST(SocketEdgeStreamTest, UnsupportedVersionIsCorruptData) {
  SocketPair pair;
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  const std::uint32_t version = kTrisVersion + 9;
  std::memcpy(header + 4, &version, sizeof(version));
  const std::uint64_t count = 0;
  std::memcpy(header + 8, &count, sizeof(count));
  ASSERT_EQ(::send(pair.fds[0], header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  pair.CloseProducer();
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  std::vector<Edge> batch;
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kCorruptData);
}

TEST(SocketEdgeStreamTest, StatusStaysStickyAfterFailure) {
  SocketPair pair;
  ASSERT_EQ(::send(pair.fds[0], "JUNKJUNKJUNKJUNK", 16, 0), 16);
  pair.CloseProducer();
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  std::vector<Edge> batch;
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);  // no further reads
  EXPECT_EQ((*source)->status().code(), StatusCode::kCorruptData);
}

TEST(SocketEdgeStreamTest, FromFdRejectsNegativeFd) {
  auto source = SocketEdgeStream::FromFd(-1);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
}

TEST(SocketEdgeStreamTest, WriteFrameToDeadPeerIsIoErrorNotSigpipe) {
  SocketPair pair;
  ::close(pair.fds[1]);  // consumer gone before the producer writes
  pair.fds[1] = -1;
  const auto edges = MakeEdges(1000);
  Status s = WriteEdgeFrame(pair.fds[0], edges);
  // The first write may land in the kernel buffer of a half-closed pair;
  // the second cannot keep succeeding.
  if (s.ok()) s = WriteEdgeFrame(pair.fds[0], edges);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(SocketEdgeStreamTest, LoopbackEngineRunBitIdenticalToMemory) {
  const auto el = gen::GnmRandom(250, 4000, 41);
  core::TriangleCounterOptions options;
  options.num_estimators = 4096;
  options.num_threads = 2;
  options.seed = 20260726;
  options.batch_size = 300;

  engine::TsbEstimator from_memory(options);
  MemoryEdgeStream memory(el);
  engine::StreamEngine memory_engine;
  ASSERT_TRUE(memory_engine.Run(from_memory, memory).ok());

  auto listener = ListenOnLoopback(0);  // ephemeral port
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread producer([port = listener->port, &el] {
    auto fd = ConnectToLoopback(port);
    ASSERT_TRUE(fd.ok()) << fd.status();
    // Ragged frames; the total outruns the socket buffer, so the sender
    // blocks until the consumer drains -- genuine streaming, not replay.
    const std::span<const Edge> edges(el.edges());
    std::size_t offset = 0;
    std::size_t len = 1;
    while (offset < edges.size()) {
      const std::size_t take = std::min(len, edges.size() - offset);
      ASSERT_TRUE(WriteEdgeFrame(*fd, edges.subspan(offset, take)).ok());
      offset += take;
      len = len % 1500 + 77;
    }
    ::close(*fd);
  });
  auto accepted = AcceptOne(listener->fd);
  ::close(listener->fd);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  auto source = SocketEdgeStream::FromFd(*accepted);
  ASSERT_TRUE(source.ok());

  engine::TsbEstimator from_socket(options);
  engine::StreamEngine socket_engine;
  const Status streamed = socket_engine.Run(from_socket, **source);
  producer.join();
  ASSERT_TRUE(streamed.ok()) << streamed;
  EXPECT_EQ(from_socket.EstimateTriangles(), from_memory.EstimateTriangles());
  EXPECT_EQ(from_socket.EstimateWedges(), from_memory.EstimateWedges());
  EXPECT_EQ((*source)->edges_delivered(), el.size());
}

TEST(SocketEdgeStreamTest, IdleTimeoutOnHalfOpenSocketIsDeadlineExceeded) {
  SocketPair pair;
  // Half-open peer: the producer fd stays open but never sends a byte --
  // without the timeout the consumer would block in recv forever.
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  (*source)->set_receive_idle_timeout_millis(50);
  std::vector<Edge> batch;
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kDeadlineExceeded);
  // Sticky: further pops do not re-arm the wait.
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketEdgeStreamTest, IdleTimeoutMidPayloadIsDeadlineExceeded) {
  SocketPair pair;
  // A started-then-stalled frame: header promising 100 edges, 2 delivered,
  // then silence with the socket still open. The *idle* clock fires (the
  // peer is stalled), distinct from CorruptData (the peer is gone).
  const auto edges = MakeEdges(2);
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion, sizeof(kTrisVersion));
  const std::uint64_t promised = 100;
  std::memcpy(header + 8, &promised, sizeof(promised));
  ASSERT_EQ(::send(pair.fds[0], header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(pair.fds[0], edges.data(), 2 * sizeof(Edge), 0),
            static_cast<ssize_t>(2 * sizeof(Edge)));

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  (*source)->set_receive_idle_timeout_millis(50);
  std::vector<Edge> batch;
  EXPECT_EQ((*source)->NextBatch(8, &batch), 0u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketEdgeStreamTest, IdleTimeoutIsIdleNotTotal) {
  SocketPair pair;
  // Five frames spaced 100 ms apart: total elapsed (~400 ms) exceeds the
  // 250 ms timeout, but no single gap does -- a trickling producer is
  // healthy, only a silent one trips the deadline.
  std::thread producer([&pair] {
    const auto edges = MakeEdges(10);
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], edges).ok());
    }
    pair.CloseProducer();  // clean EOF before the idle clock can fire
  });
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  (*source)->set_receive_idle_timeout_millis(250);
  const auto got = Drain(**source, 64);
  producer.join();
  EXPECT_EQ(got.size(), 50u);
  EXPECT_TRUE((*source)->status().ok());
}

TEST(SocketEdgeStreamTest, IdleTimeoutOffByDefault) {
  SocketPair pair;
  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->receive_idle_timeout_millis(), 0);
  // With the timeout off, a delayed producer just blocks the pop -- the
  // stream still drains cleanly (no deadline machinery on the path).
  std::thread producer([&pair] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], MakeEdges(7)).ok());
    pair.CloseProducer();
  });
  const auto got = Drain(**source, 16);
  producer.join();
  EXPECT_EQ(got.size(), 7u);
  EXPECT_TRUE((*source)->status().ok());
}

TEST(SocketEdgeStreamTest, ProducerDeathMidFrameFailsEngineRun) {
  SocketPair pair;
  const auto edges = MakeEdges(500);
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion, sizeof(kTrisVersion));
  const std::uint64_t promised = 100000;  // far more than will arrive
  std::memcpy(header + 8, &promised, sizeof(promised));
  ASSERT_EQ(::send(pair.fds[0], header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(pair.fds[0], edges.data(), edges.size() * sizeof(Edge), 0),
            static_cast<ssize_t>(edges.size() * sizeof(Edge)));
  pair.CloseProducer();  // died mid-frame

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  core::TriangleCounterOptions options;
  options.num_estimators = 512;
  options.num_threads = 2;
  options.seed = 3;
  options.batch_size = 100;
  engine::TsbEstimator estimator(options);
  engine::StreamEngine eng;
  const Status streamed = eng.Run(estimator, **source);
  ASSERT_FALSE(streamed.ok());  // never a silent prefix estimate
  EXPECT_EQ(streamed.code(), StatusCode::kCorruptData);
  EXPECT_EQ(estimator.edges_processed(), 500u);
}

// ------------------------------------------------------- turnstile frames

/// Drains the event API into an owning list.
EdgeEventList DrainEvents(EdgeStream& s, std::size_t batch_size) {
  EdgeEventList all;
  EventScratch scratch;
  for (;;) {
    const EventBatchView view = s.NextEventBatchView(batch_size, &scratch);
    if (view.empty()) break;
    for (std::size_t i = 0; i < view.size(); ++i) {
      all.Add(view.edges[i], view.op(i));
    }
  }
  return all;
}

TEST(SocketEdgeStreamTest, DeliversV2EventFrames) {
  SocketPair pair;
  EdgeEventList events;
  events.Add(Edge(0, 1));
  events.Add(Edge(1, 2));
  events.Add(Edge(0, 1), EdgeOp::kDelete);
  events.Add(Edge(2, 3));
  ASSERT_TRUE(WriteEventFrame(pair.fds[0], events.edges, events.ops).ok());
  pair.CloseProducer();

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok()) << source.status();
  const EdgeEventList got = DrainEvents(**source, 3);
  ASSERT_EQ(got.size(), events.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.edges[i], events.edges[i]);
    EXPECT_EQ(got.op(i), events.op(i));
  }
  EXPECT_TRUE((*source)->status().ok());
}

TEST(SocketEdgeStreamTest, V1AndV2FramesInterleaveOnOneConnection) {
  SocketPair pair;
  const auto v1_edges = MakeEdges(5);
  EdgeEventList v2_events;
  v2_events.Add(Edge(100, 101));
  v2_events.Add(Edge(100, 101), EdgeOp::kDelete);
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], v1_edges).ok());
  ASSERT_TRUE(
      WriteEventFrame(pair.fds[0], v2_events.edges, v2_events.ops).ok());
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], v1_edges).ok());
  pair.CloseProducer();

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  const EdgeEventList got = DrainEvents(**source, 4);
  ASSERT_EQ(got.size(), 2 * v1_edges.size() + v2_events.size());
  EXPECT_EQ(got.op(v1_edges.size() + 1), EdgeOp::kDelete);
  EXPECT_TRUE((*source)->status().ok());
}

TEST(SocketEdgeStreamTest, InsertOnlyEventFrameIsByteIdenticalToV1) {
  // The passthrough contract on the wire: an insert-only WriteEventFrame
  // and a WriteEdgeFrame of the same edges produce identical bytes.
  const auto edges = MakeEdges(20);
  SocketPair a, b;
  ASSERT_TRUE(WriteEdgeFrame(a.fds[0], edges).ok());
  ASSERT_TRUE(WriteEventFrame(b.fds[0], edges, {}).ok());
  a.CloseProducer();
  b.CloseProducer();
  const std::size_t frame_bytes = kTrisHeaderBytes + edges.size() * sizeof(Edge);
  std::vector<char> from_a(frame_bytes + 1), from_b(frame_bytes + 1);
  const ssize_t got_a = ::recv(a.fds[1], from_a.data(), from_a.size(), 0);
  const ssize_t got_b = ::recv(b.fds[1], from_b.data(), from_b.size(), 0);
  ASSERT_EQ(got_a, static_cast<ssize_t>(frame_bytes));
  ASSERT_EQ(got_b, got_a);
  EXPECT_EQ(std::memcmp(from_a.data(), from_b.data(), frame_bytes), 0);
  ::close(a.fds[1]);
  ::close(b.fds[1]);
}

TEST(SocketEdgeStreamTest, BadOpByteInV2FrameIsCorruptData) {
  SocketPair pair;
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion2, sizeof(kTrisVersion2));
  const std::uint64_t count = 1;
  std::memcpy(header + 8, &count, sizeof(count));
  char record[kTrisEventBytes] = {0};
  record[8] = 9;  // neither insert nor delete
  ASSERT_EQ(::send(pair.fds[0], header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(pair.fds[0], record, sizeof(record), 0),
            static_cast<ssize_t>(sizeof(record)));
  pair.CloseProducer();

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  EventScratch scratch;
  const EventBatchView view = (*source)->NextEventBatchView(8, &scratch);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ((*source)->status().code(), StatusCode::kCorruptData);
}

TEST(SocketEdgeStreamTest, EdgeOnlyReadOfDeleteFrameIsInvalidArgument) {
  SocketPair pair;
  EdgeEventList events;
  events.Add(Edge(0, 1));
  events.Add(Edge(0, 1), EdgeOp::kDelete);
  ASSERT_TRUE(WriteEventFrame(pair.fds[0], events.edges, events.ops).ok());
  pair.CloseProducer();

  auto source = SocketEdgeStream::FromFd(pair.fds[1]);
  ASSERT_TRUE(source.ok());
  std::vector<Edge> batch;
  std::size_t delivered = 0;
  while ((*source)->NextBatch(8, &batch) > 0) delivered += batch.size();
  EXPECT_LE(delivered, 1u);
  EXPECT_EQ((*source)->status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace stream
}  // namespace tristream
