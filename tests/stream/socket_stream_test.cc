// Tests for the socket-side helpers of the TRIS frame format: the frame
// writers, read back off the socket as raw bytes, producer-side failure
// on a dead peer, and a loopback listen/connect round trip. Frames are
// decoded by serve (engine::Server::ParseIngest); its suite covers the
// decoder.

#include "stream/socket_stream.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "stream/binary_io.h"

namespace tristream {
namespace stream {
namespace {

/// A connected AF_UNIX stream pair: fds[0] = producer, fds[1] = consumer.
struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  int fds[2] = {-1, -1};
};

std::vector<Edge> MakeEdges(VertexId count) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < count; ++i) edges.push_back(Edge(i, i + 1));
  return edges;
}

/// Reads exactly `size` bytes off `fd`; fails the test on a short read.
std::vector<char> RecvBytes(int fd, std::size_t size) {
  std::vector<char> bytes(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, bytes.data() + got, size - got, 0);
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0) << "short read: " << got << " of " << size << " bytes";
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  bytes.resize(got);
  return bytes;
}

/// The 16-byte header a frame of `count` records of `version` starts with.
std::vector<char> FrameHeader(std::uint32_t version, std::uint64_t count) {
  std::vector<char> header(kTrisHeaderBytes);
  std::memcpy(header.data(), kTrisMagic, 4);
  std::memcpy(header.data() + 4, &version, sizeof(version));
  std::memcpy(header.data() + 8, &count, sizeof(count));
  return header;
}

TEST(SocketFrameTest, EdgeFrameIsHeaderThenPairs) {
  SocketPair pair;
  const auto edges = MakeEdges(30);
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], edges).ok());
  const std::vector<char> bytes =
      RecvBytes(pair.fds[1], kTrisHeaderBytes + edges.size() * sizeof(Edge));
  ASSERT_EQ(bytes.size(), kTrisHeaderBytes + edges.size() * sizeof(Edge));
  EXPECT_EQ(std::vector<char>(bytes.begin(), bytes.begin() + kTrisHeaderBytes),
            FrameHeader(kTrisVersion, edges.size()));
  EXPECT_EQ(std::memcmp(bytes.data() + kTrisHeaderBytes, edges.data(),
                        edges.size() * sizeof(Edge)),
            0);
}

TEST(SocketFrameTest, EmptySpanIsKeepAliveHeader) {
  SocketPair pair;
  ASSERT_TRUE(WriteEdgeFrame(pair.fds[0], {}).ok());
  EXPECT_EQ(RecvBytes(pair.fds[1], kTrisHeaderBytes),
            FrameHeader(kTrisVersion, 0));
}

TEST(SocketFrameTest, DeleteCarryingEventFrameInterleavesOpBytes) {
  SocketPair pair;
  EdgeEventList events;
  events.Add(Edge(0, 1));
  events.Add(Edge(1, 2));
  events.Add(Edge(0, 1), EdgeOp::kDelete);
  ASSERT_TRUE(WriteEventFrame(pair.fds[0], events.edges, events.ops).ok());
  const std::size_t frame_bytes =
      kTrisHeaderBytes + events.size() * kTrisEventBytes;
  const std::vector<char> bytes = RecvBytes(pair.fds[1], frame_bytes);
  ASSERT_EQ(bytes.size(), frame_bytes);
  EXPECT_EQ(std::vector<char>(bytes.begin(), bytes.begin() + kTrisHeaderBytes),
            FrameHeader(kTrisVersion2, events.size()));
  for (std::size_t i = 0; i < events.size(); ++i) {
    const char* record = bytes.data() + kTrisHeaderBytes + i * kTrisEventBytes;
    Edge e;
    std::memcpy(&e, record, sizeof(Edge));
    EXPECT_EQ(e, events.edges[i]) << "record " << i;
    EXPECT_EQ(static_cast<std::uint8_t>(record[sizeof(Edge)]),
              static_cast<std::uint8_t>(events.op(i)))
        << "record " << i;
  }
}

TEST(SocketFrameTest, MismatchedOpsAreInvalidArgument) {
  SocketPair pair;
  const auto edges = MakeEdges(3);
  const std::vector<EdgeOp> ops = {EdgeOp::kInsert, EdgeOp::kDelete};
  const Status s = WriteEventFrame(pair.fds[0], edges, ops);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
}

TEST(SocketFrameTest, WriteFrameToDeadPeerIsIoErrorNotSigpipe) {
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

TEST(SocketFrameTest, InsertOnlyEventFrameIsByteIdenticalToV1) {
  // The passthrough contract on the wire: an insert-only WriteEventFrame
  // and a WriteEdgeFrame of the same edges produce identical bytes.
  const auto edges = MakeEdges(20);
  SocketPair a, b;
  ASSERT_TRUE(WriteEdgeFrame(a.fds[0], edges).ok());
  ASSERT_TRUE(WriteEventFrame(b.fds[0], edges, {}).ok());
  ::close(a.fds[0]);
  ::close(b.fds[0]);
  a.fds[0] = b.fds[0] = -1;
  const std::size_t frame_bytes =
      kTrisHeaderBytes + edges.size() * sizeof(Edge);
  std::vector<char> from_a(frame_bytes + 1), from_b(frame_bytes + 1);
  const ssize_t got_a = ::recv(a.fds[1], from_a.data(), from_a.size(), 0);
  const ssize_t got_b = ::recv(b.fds[1], from_b.data(), from_b.size(), 0);
  ASSERT_EQ(got_a, static_cast<ssize_t>(frame_bytes));
  ASSERT_EQ(got_b, got_a);
  EXPECT_EQ(std::memcmp(from_a.data(), from_b.data(), frame_bytes), 0);
}

TEST(SocketFrameTest, LoopbackListenConnectRoundTrip) {
  auto listener = ListenOnLoopback(0);  // ephemeral port
  ASSERT_TRUE(listener.ok()) << listener.status();
  EXPECT_NE(listener->port, 0);
  // Enough edges to outrun the socket buffer, so the writer blocks until
  // the reader drains.
  const auto edges = MakeEdges(200000);
  std::thread producer([port = listener->port, &edges] {
    auto fd = ConnectToLoopback(port);
    ASSERT_TRUE(fd.ok()) << fd.status();
    EXPECT_TRUE(WriteEdgeFrame(*fd, edges).ok());
    ::close(*fd);
  });
  int accepted = -1;
  do {
    accepted = ::accept(listener->fd, nullptr, nullptr);
  } while (accepted < 0 && errno == EINTR);
  ::close(listener->fd);  // a failed accept resets the producer too
  const std::size_t frame_bytes =
      kTrisHeaderBytes + edges.size() * sizeof(Edge);
  std::vector<char> bytes;
  if (accepted >= 0) {
    bytes = RecvBytes(accepted, frame_bytes);
    char past_end = 0;
    EXPECT_EQ(::recv(accepted, &past_end, 1, 0), 0);  // clean EOF after
    ::close(accepted);
  }
  producer.join();
  ASSERT_GE(accepted, 0) << "accept failed";
  ASSERT_EQ(bytes.size(), frame_bytes);
  EXPECT_EQ(std::vector<char>(bytes.begin(), bytes.begin() + kTrisHeaderBytes),
            FrameHeader(kTrisVersion, edges.size()));
  EXPECT_EQ(std::memcmp(bytes.data() + kTrisHeaderBytes, edges.data(),
                        edges.size() * sizeof(Edge)),
            0);
}

}  // namespace
}  // namespace stream
}  // namespace tristream
