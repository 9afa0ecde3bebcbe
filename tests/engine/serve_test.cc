// Serve-mode suite: the multi-tenant TCP front end over Session +
// Scheduler. Locks the acceptance contracts: N concurrent connections
// produce estimates bit-identical to isolated single-session runs over
// the same edges; mid-ingest TRIQ queries answer without stalling ingest;
// admission control refuses (TRIE) instead of OOMing; connect/disconnect
// churn storms leave no leaked sessions, no held memory charge, and a
// scheduler that still serves; per-session failures stay per-session.

#include "engine/serve.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/churn.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_stream.h"
#include "stream/socket_stream.h"

namespace tristream {
namespace engine {
namespace {

constexpr std::size_t kBatch = 256;

EstimatorConfig TestConfig() {
  EstimatorConfig config;
  config.num_estimators = 1024;
  config.seed = 12345;
  // Align the bulk counter's self-batching with the session pump batch:
  // snapshots are only refreshed when no partial counter batch is
  // pending, so alignment is what makes mid-ingest queries answerable at
  // every quantum boundary instead of every 8*num_estimators edges.
  config.batch_size = kBatch;
  return config;
}

ServeOptions BaseOptions() {
  ServeOptions options;
  options.algo = "bulk";
  options.config = TestConfig();
  options.batch_size = kBatch;
  options.num_workers = 2;
  return options;
}

/// The reference estimates: one dedicated StreamEngine::Run with the same
/// (algo, config, batch size) every serve session uses.
struct Estimates {
  double triangles = 0.0;
  double wedges = 0.0;
  double transitivity = 0.0;
};

Estimates IsolatedRun(const graph::EdgeList& el) {
  auto est = MakeEstimator("bulk", TestConfig());
  EXPECT_TRUE(est.ok());
  stream::MemoryEdgeStream source(el);
  StreamEngineOptions options;
  options.batch_size = kBatch;
  StreamEngine eng(options);
  EXPECT_TRUE(eng.Run(**est, source).ok());
  return {(*est)->EstimateTriangles(), (*est)->EstimateWedges(),
          (*est)->EstimateTransitivity()};
}

double IsolatedTriangles(const graph::EdgeList& el) {
  return IsolatedRun(el).triangles;
}

Status RecvAll(int fd, void* out, std::size_t size) {
  char* p = static_cast<char*>(out);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n == 0) return Status::CorruptData("peer closed mid-reply");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("recv failed");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

struct Reply {
  bool is_error = false;
  SnapshotWire snapshot;
  std::string error;
};

Result<Reply> ReadReply(int fd) {
  char header[stream::kTrisHeaderBytes];
  if (Status s = RecvAll(fd, header, sizeof(header)); !s.ok()) return s;
  std::uint64_t count = 0;
  std::memcpy(&count, header + 8, sizeof(count));
  Reply reply;
  if (std::memcmp(header, kServeSnapshotMagic, 4) == 0) {
    char body[kSnapshotBodyBytes];
    if (count != kSnapshotBodyBytes) {
      return Status::CorruptData("bad TRIR body size");
    }
    if (Status s = RecvAll(fd, body, sizeof(body)); !s.ok()) return s;
    auto wire = DecodeSnapshotBody(body, sizeof(body));
    if (!wire.ok()) return wire.status();
    reply.snapshot = *wire;
    return reply;
  }
  if (std::memcmp(header, kServeErrorMagic, 4) == 0) {
    reply.is_error = true;
    reply.error.resize(static_cast<std::size_t>(count));
    if (count > 0) {
      if (Status s = RecvAll(fd, reply.error.data(), reply.error.size());
          !s.ok()) {
        return s;
      }
    }
    return reply;
  }
  return Status::CorruptData("unknown reply magic");
}

void SendQuery(int fd) {
  char header[stream::kTrisHeaderBytes];
  std::memcpy(header, kServeQueryMagic, 4);
  std::memcpy(header + 4, &stream::kTrisVersion,
              sizeof(stream::kTrisVersion));
  const std::uint64_t zero = 0;
  std::memcpy(header + 8, &zero, sizeof(zero));
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
}

/// Streams `el` in ragged frames (stride varies by salt), half-closes,
/// and returns the final TRIR. Asserts on transport or TRIE failure.
SnapshotWire FeedAndFinish(std::uint16_t port, const graph::EdgeList& el,
                           std::size_t salt) {
  auto fd = stream::ConnectToLoopback(port);
  EXPECT_TRUE(fd.ok()) << fd.status();
  const std::span<const Edge> edges(el.edges());
  const std::size_t stride = 61 + 17 * (salt % 23);
  std::size_t offset = 0;
  while (offset < edges.size()) {
    const std::size_t take = std::min(stride, edges.size() - offset);
    EXPECT_TRUE(
        stream::WriteEdgeFrame(*fd, edges.subspan(offset, take)).ok());
    offset += take;
  }
  ::shutdown(*fd, SHUT_WR);
  SnapshotWire final_snap;
  while (true) {
    auto reply = ReadReply(*fd);
    EXPECT_TRUE(reply.ok()) << reply.status();
    if (!reply.ok()) break;
    EXPECT_FALSE(reply->is_error) << reply->error;
    if (reply->is_error) break;
    if (reply->snapshot.final_result) {
      final_snap = reply->snapshot;
      break;
    }
  }
  ::close(*fd);
  return final_snap;
}

/// Polls server stats until `pred` holds or the deadline passes.
template <typename Pred>
bool WaitForStats(Server& server, Pred pred, int seconds = 30) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred(server.stats());
}

TEST(ServeWireTest, SnapshotBodyRoundTrips) {
  SessionSnapshot snap;
  snap.edges = 123456789;
  snap.triangles = 3.5e9;
  snap.wedges = 7.25e11;
  snap.transitivity = 0.123456;
  snap.has_wedges = true;
  snap.valid = true;
  snap.final_result = false;
  char body[kSnapshotBodyBytes];
  EncodeSnapshotBody(snap, body);
  auto wire = DecodeSnapshotBody(body, sizeof(body));
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->edges, snap.edges);
  EXPECT_EQ(wire->triangles, snap.triangles);
  EXPECT_EQ(wire->wedges, snap.wedges);
  EXPECT_EQ(wire->transitivity, snap.transitivity);
  EXPECT_TRUE(wire->has_wedges);
  EXPECT_TRUE(wire->valid);
  EXPECT_FALSE(wire->final_result);
  EXPECT_FALSE(DecodeSnapshotBody(body, 10).ok());  // short buffer
}

/// The headline acceptance contract: 64 concurrent sessions, every one
/// bit-identical to a dedicated isolated run with the same seed/r/batch,
/// regardless of how each client chunked its frames.
TEST(ServeTest, SixtyFourConcurrentSessionsBitIdenticalToIsolated) {
  constexpr std::size_t kClients = 64;
  const auto el = gen::GnmRandom(300, 4000, 67);
  const double expected = IsolatedTriangles(el);

  ServeOptions options = BaseOptions();
  options.max_sessions = kClients;
  options.num_workers = 4;
  options.queue_capacity = 2048;  // small: real backpressure in play
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  std::vector<SnapshotWire> finals(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&, i] { finals[i] = FeedAndFinish(*port, el, i); });
  }
  for (auto& t : clients) t.join();
  server.Stop();
  server.Wait();

  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_TRUE(finals[i].valid) << "client " << i;
    EXPECT_TRUE(finals[i].final_result) << "client " << i;
    EXPECT_EQ(finals[i].edges, el.size()) << "client " << i;
    EXPECT_EQ(finals[i].triangles, expected) << "client " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kClients);
  EXPECT_EQ(stats.completed, kClients);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.memory_used, 0u);
}

/// A TRIQ mid-ingest answers promptly from the cached snapshot -- with
/// the client holding back the rest of the stream, so a reply proves the
/// query path cannot be waiting on a Flush or end of stream. Repeated
/// query rounds eventually return valid, advancing estimates.
TEST(ServeTest, QueryMidIngestAnswersWithoutFlushStall) {
  const auto el = gen::GnmRandom(300, 6000, 91);
  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  const std::span<const Edge> edges(el.edges());
  // Send two full batches' worth, then query until the snapshot turns
  // valid: the session absorbs them and refreshes at a quantum boundary.
  ASSERT_TRUE(stream::WriteEdgeFrame(*fd, edges.subspan(0, 2 * kBatch)).ok());
  bool saw_valid = false;
  for (int round = 0; round < 10000 && !saw_valid; ++round) {
    SendQuery(*fd);
    auto reply = ReadReply(*fd);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_FALSE(reply->is_error) << reply->error;
    ASSERT_FALSE(reply->snapshot.final_result);  // stream is still open
    if (reply->snapshot.valid) {
      saw_valid = true;
      EXPECT_GT(reply->snapshot.edges, 0u);
      EXPECT_LE(reply->snapshot.edges, 2 * kBatch);
    }
  }
  EXPECT_TRUE(saw_valid);

  // The stream still completes normally after the query traffic.
  std::size_t offset = 2 * kBatch;
  while (offset < edges.size()) {
    const std::size_t take = std::min<std::size_t>(997, edges.size() - offset);
    ASSERT_TRUE(stream::WriteEdgeFrame(*fd, edges.subspan(offset, take)).ok());
    offset += take;
  }
  ::shutdown(*fd, SHUT_WR);
  while (true) {
    auto reply = ReadReply(*fd);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_FALSE(reply->is_error) << reply->error;
    if (reply->snapshot.final_result) {
      EXPECT_EQ(reply->snapshot.edges, el.size());
      EXPECT_EQ(reply->snapshot.triangles, IsolatedTriangles(el));
      break;
    }
  }
  ::close(*fd);
  server.Stop();
  server.Wait();
}

TEST(ServeTest, SessionLimitRefusedWithDiagnostic) {
  ServeOptions options = BaseOptions();
  options.max_sessions = 1;
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto first = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(first.ok());
  // Make sure the first session is admitted before the second connects.
  ASSERT_TRUE(WaitForStats(
      server, [](const ServerStats& s) { return s.accepted == 1; }));

  auto second = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(second.ok());
  auto reply = ReadReply(*second);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->is_error);
  EXPECT_NE(reply->error.find("session limit"), std::string::npos)
      << reply->error;
  ::close(*second);
  ::close(*first);
  EXPECT_TRUE(WaitForStats(
      server, [](const ServerStats& s) { return s.refused == 1; }));
  server.Stop();
  server.Wait();
}

TEST(ServeTest, MemoryBudgetRefusesInsteadOfOoming) {
  ServeOptions options = BaseOptions();
  options.memory_budget_bytes = 1;  // nothing fits
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  auto reply = ReadReply(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->is_error);
  EXPECT_NE(reply->error.find("memory budget"), std::string::npos)
      << reply->error;
  ::close(*fd);
  server.Stop();
  server.Wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.memory_used, 0u);
}

/// Connect/disconnect storm: clients that vanish instantly, mid-header,
/// and mid-frame. The server must reap every session, release every
/// memory charge, and still run a healthy session to completion after.
TEST(ServeTest, FreshSessionChargeCoversSteadyStateFootprint) {
  // Admission charges a session before its first edge, so the estimator's
  // charge must already cover what its batch tables grow to: at least the
  // bytes allocated after several full batches, and at most twice that.
  const auto el = stream::ShuffleStreamOrder(
      gen::HolmeKim(32768, 4, 0.5, 3), 5);
  const std::span<const Edge> edges(el.edges());
  struct Case {
    const char* algo;
    std::uint64_t r;
    std::uint32_t threads;
    std::size_t batch;  // 0 = the counter's default w = 8r
  };
  for (const Case& c : {Case{"bulk", 1 << 17, 1, 8192},
                        Case{"bulk", 1 << 12, 1, 0},
                        Case{"tsb", 1 << 12, 1, 0},
                        Case{"tsb", 1 << 12, 2, 0}}) {
    EstimatorConfig config;
    config.num_estimators = c.r;
    config.num_threads = c.threads;
    config.batch_size = c.batch;
    auto made = MakeEstimator(c.algo, config);
    ASSERT_TRUE(made.ok()) << made.status();
    const std::size_t fresh = (*made)->approx_memory_bytes();
    const std::size_t w = (*made)->preferred_batch_size();
    const auto full_batches = edges.first(edges.size() / w * w);
    ASSERT_GE(full_batches.size(), 3 * w);
    // bulk and tsb adapt the one counter; tsb's also holds the batch its
    // workers absorb while the next one fills.
    const auto absorb = [&full_batches](auto* estimator) {
      estimator->ProcessEdges(full_batches);
      const auto stats = estimator->counter().ApproxMemoryUsage();
      return stats.estimator_bytes + stats.batch_scratch_bytes;
    };
    std::size_t allocated = 0;
    if (auto* bulk = dynamic_cast<BulkEstimator*>(made->get())) {
      allocated = absorb(bulk);
    } else {
      auto* tsb = dynamic_cast<TsbEstimator*>(made->get());
      ASSERT_NE(tsb, nullptr) << c.algo;
      allocated = absorb(tsb);
    }
    EXPECT_GE(fresh, allocated) << c.algo << " r=" << c.r
                                << " threads=" << c.threads;
    EXPECT_LE(fresh, 2 * allocated) << c.algo << " r=" << c.r
                                    << " threads=" << c.threads;
  }
}

TEST(ServeTest, ChurnStormLeavesNoLeakedSessions) {
  const auto el = gen::GnmRandom(200, 2500, 19);
  ServeOptions options = BaseOptions();
  options.max_sessions = 128;
  options.num_workers = 4;
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  constexpr std::size_t kStormers = 48;
  std::vector<std::thread> storm;
  for (std::size_t i = 0; i < kStormers; ++i) {
    storm.emplace_back([&, i] {
      auto fd = stream::ConnectToLoopback(*port);
      if (!fd.ok()) return;
      switch (i % 3) {
        case 0:
          break;  // connect and vanish
        case 1: {
          // Die mid-header.
          ::send(*fd, "TRIS\1", 5, MSG_NOSIGNAL);
          break;
        }
        case 2: {
          // Promise a big frame, deliver a sliver, die.
          char header[stream::kTrisHeaderBytes];
          std::memcpy(header, stream::kTrisMagic, 4);
          std::memcpy(header + 4, &stream::kTrisVersion,
                      sizeof(stream::kTrisVersion));
          const std::uint64_t promised = 1 << 20;
          std::memcpy(header + 8, &promised, sizeof(promised));
          ::send(*fd, header, sizeof(header), MSG_NOSIGNAL);
          const Edge e(1, 2);
          ::send(*fd, &e, sizeof(e), MSG_NOSIGNAL);
          break;
        }
      }
      ::close(*fd);
    });
  }
  for (auto& t : storm) t.join();

  // Every stormer's session must be reaped: nothing active, no memory
  // charge held, scheduler not stuck.
  ASSERT_TRUE(WaitForStats(server, [](const ServerStats& s) {
    return s.active_sessions == 0 && s.memory_used == 0 &&
           s.completed + s.failed == s.accepted;
  })) << "leaked sessions after churn";

  // And the server still serves: a healthy client completes normally.
  const SnapshotWire final_snap = FeedAndFinish(*port, el, 5);
  EXPECT_TRUE(final_snap.final_result);
  EXPECT_EQ(final_snap.edges, el.size());
  EXPECT_EQ(final_snap.triangles, IsolatedTriangles(el));
  server.Stop();
  server.Wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.memory_used, 0u);
}

/// A protocol failure on one connection surfaces as its own TRIE while a
/// concurrent healthy session is untouched -- per-session sticky status.
TEST(ServeTest, BadFrameFailsOnlyItsOwnSession) {
  const auto el = gen::GnmRandom(250, 3000, 23);
  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SnapshotWire healthy_final;
  std::thread healthy(
      [&] { healthy_final = FeedAndFinish(*port, el, 1); });

  auto bad = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(bad.ok());
  ASSERT_EQ(::send(*bad, "JUNKJUNKJUNKJUNK", 16, MSG_NOSIGNAL), 16);
  auto reply = ReadReply(*bad);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->is_error);
  EXPECT_NE(reply->error.find("bad frame magic"), std::string::npos)
      << reply->error;
  ::close(*bad);

  healthy.join();
  EXPECT_TRUE(healthy_final.final_result);
  EXPECT_EQ(healthy_final.triangles, IsolatedTriangles(el));
  server.Stop();
  server.Wait();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

// ------------------------------------------------ TRIS frame decoding

/// Sends all of `bytes`, `chunk` bytes per send() call.
void SendChunked(int fd, const std::vector<char>& bytes, std::size_t chunk) {
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    ASSERT_EQ(::send(fd, bytes.data() + off, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }
}

/// A TRIS frame header announcing `count` records of `version`.
std::vector<char> TrisHeader(std::uint32_t version, std::uint64_t count) {
  std::vector<char> header(stream::kTrisHeaderBytes);
  std::memcpy(header.data(), stream::kTrisMagic, 4);
  std::memcpy(header.data() + 4, &version, sizeof(version));
  std::memcpy(header.data() + 8, &count, sizeof(count));
  return header;
}

/// `el` as v1 frames of `stride` edges, each preceded by a keep-alive
/// (a count-0 frame, alternately v1 and v2) when `keep_alives` is set.
std::vector<char> EncodeFrames(const graph::EdgeList& el, std::size_t stride,
                               bool keep_alives) {
  std::vector<char> bytes;
  const std::span<const Edge> edges(el.edges());
  for (std::size_t off = 0; off < edges.size(); off += stride) {
    if (keep_alives) {
      const std::vector<char> ka = TrisHeader(
          (off / stride) % 2 == 0 ? stream::kTrisVersion
                                  : stream::kTrisVersion2,
          0);
      bytes.insert(bytes.end(), ka.begin(), ka.end());
    }
    const std::span<const Edge> frame =
        edges.subspan(off, std::min(stride, edges.size() - off));
    const std::vector<char> header =
        TrisHeader(stream::kTrisVersion, frame.size());
    bytes.insert(bytes.end(), header.begin(), header.end());
    const char* payload = reinterpret_cast<const char*>(frame.data());
    bytes.insert(bytes.end(), payload, payload + frame.size_bytes());
  }
  return bytes;
}

/// Half-closes `fd` and returns the server's last reply: the final TRIR,
/// or the TRIE that failed the session.
Reply FinishAndReadLastReply(int fd) {
  ::shutdown(fd, SHUT_WR);
  Reply last;
  while (true) {
    auto reply = ReadReply(fd);
    EXPECT_TRUE(reply.ok()) << reply.status();
    if (!reply.ok()) break;
    last = *reply;
    if (last.is_error || last.snapshot.final_result) break;
  }
  return last;
}

/// `last` is a final TRIR equal to the standalone run over `el`.
void ExpectStandaloneFinal(const Reply& last, const graph::EdgeList& el) {
  ASSERT_FALSE(last.is_error) << last.error;
  EXPECT_TRUE(last.snapshot.final_result);
  EXPECT_EQ(last.snapshot.edges, el.size());
  const Estimates want = IsolatedRun(el);
  EXPECT_EQ(last.snapshot.triangles, want.triangles);
  EXPECT_EQ(last.snapshot.wedges, want.wedges);
  EXPECT_EQ(last.snapshot.transitivity, want.transitivity);
}

TEST(ServeTest, UnsupportedFrameVersionGetsTrieNamingIt) {
  Server server(BaseOptions());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  SendChunked(*fd, TrisHeader(7, 0), stream::kTrisHeaderBytes);
  const Reply last = FinishAndReadLastReply(*fd);
  ::close(*fd);
  ASSERT_TRUE(last.is_error);
  const TrieError error = ParseTrieMessage(last.error);
  EXPECT_EQ(error.code, StatusCode::kCorruptData) << last.error;
  EXPECT_NE(error.message.find("unsupported version 7"), std::string::npos)
      << last.error;
  server.Stop();
  server.Wait();
  EXPECT_EQ(server.stats().failed, 1u);
}

/// A peer that half-closes inside a frame -- in a header after a
/// complete frame, or in a payload -- fails its session with
/// CorruptData: the edges already absorbed are a prefix, not the stream.
TEST(ServeTest, HalfCloseMidFrameIsCorruptData) {
  const auto el = gen::GnmRandom(100, 600, 29);
  const std::vector<char> whole = EncodeFrames(el, 100, false);
  struct Cut {
    const char* where;
    std::size_t bytes;
  };
  const std::size_t first_frame = stream::kTrisHeaderBytes + 100 * sizeof(Edge);
  for (const Cut cut : {Cut{"mid-header", first_frame + 5},
                        Cut{"mid-payload", first_frame + 30 * sizeof(Edge)},
                        Cut{"mid-pair", first_frame + 30 * sizeof(Edge) + 3}}) {
    SCOPED_TRACE(cut.where);
    Server server(BaseOptions());
    auto port = server.Start();
    ASSERT_TRUE(port.ok());
    auto fd = stream::ConnectToLoopback(*port);
    ASSERT_TRUE(fd.ok());
    const std::vector<char> sent(whole.begin(), whole.begin() + cut.bytes);
    SendChunked(*fd, sent, sent.size());
    const Reply last = FinishAndReadLastReply(*fd);
    ::close(*fd);
    ASSERT_TRUE(last.is_error);
    const TrieError error = ParseTrieMessage(last.error);
    EXPECT_EQ(error.code, StatusCode::kCorruptData) << last.error;
    EXPECT_NE(error.message.find("closed mid-frame"), std::string::npos)
        << last.error;
    server.Stop();
    server.Wait();
    EXPECT_EQ(server.stats().failed, 1u);
  }
}

/// Count-0 frames, v1 or v2, deliver nothing and end nothing.
TEST(ServeTest, KeepAliveFramesChangeNothing) {
  const auto el = gen::GnmRandom(200, 2500, 31);
  Server server(BaseOptions());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  std::vector<char> bytes = EncodeFrames(el, 333, true);
  const std::vector<char> trailing = TrisHeader(stream::kTrisVersion, 0);
  bytes.insert(bytes.end(), trailing.begin(), trailing.end());
  SendChunked(*fd, bytes, bytes.size());
  const Reply last = FinishAndReadLastReply(*fd);
  ::close(*fd);
  ExpectStandaloneFinal(last, el);
  server.Stop();
  server.Wait();
}

/// Frames split at every byte boundary: the decoder reassembles headers
/// and pairs across reads and ends in the standalone run's final TRIR.
TEST(ServeTest, OneBytePerSendMatchesStandaloneRun) {
  const auto el = gen::GnmRandom(120, 900, 43);
  Server server(BaseOptions());
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  SendChunked(*fd, EncodeFrames(el, 250, false), 1);
  const Reply last = FinishAndReadLastReply(*fd);
  ::close(*fd);
  ExpectStandaloneFinal(last, el);
  server.Stop();
  server.Wait();
}

/// The serve-side receive idle sweep: a connection that goes silent
/// mid-stream fails its session with DeadlineExceeded (TRIE reply), and
/// the slot is freed for new connections.
TEST(ServeTest, IdleConnectionSweptWithDeadlineExceeded) {
  ServeOptions options = BaseOptions();
  options.idle_timeout_millis = 60;
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  const std::vector<Edge> some = {Edge(1, 2), Edge(2, 3), Edge(1, 3)};
  ASSERT_TRUE(stream::WriteEdgeFrame(
                  *fd, std::span<const Edge>(some.data(), some.size()))
                  .ok());
  // ... then silence, with the socket still open (half-open peer).
  auto reply = ReadReply(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->is_error);
  EXPECT_NE(reply->error.find("idle"), std::string::npos) << reply->error;
  ::close(*fd);
  EXPECT_TRUE(WaitForStats(server, [](const ServerStats& s) {
    return s.failed == 1 && s.active_sessions == 0;
  }));
  server.Stop();
  server.Wait();
}

/// max_accepts drains the server without Stop(): the listener closes
/// after N accepts and Wait() returns once the last session finishes.
TEST(ServeTest, MaxAcceptsDrainsServerCleanly) {
  const auto el = gen::GnmRandom(150, 1500, 37);
  ServeOptions options = BaseOptions();
  options.max_accepts = 2;
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  SnapshotWire a, b;
  std::thread ca([&] { a = FeedAndFinish(*port, el, 0); });
  std::thread cb([&] { b = FeedAndFinish(*port, el, 1); });
  ca.join();
  cb.join();
  server.Wait();  // no Stop(): max_accepts drained the loop
  EXPECT_EQ(a.triangles, b.triangles);
  EXPECT_TRUE(a.final_result && b.final_result);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.active_sessions, 0u);
}

// --------------------------------------------------- turnstile ingest

/// Replays `events` into a live-edge list and counts its triangles
/// exactly (the serve-side turnstile oracle).
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

TEST(ServeTest, V2EventFramesReachDynamicEstimator) {
  // Mixed v1/v2 ingest against a deletion-capable estimator: the final
  // snapshot must be the exact live-graph count (sampling probability 1).
  const auto el = gen::GnmRandom(80, 900, 77);
  gen::ChurnOptions churn;
  churn.delete_fraction = 0.3;
  churn.seed = 5;
  const EdgeEventList events = gen::MakeChurnStream(el, churn);
  ASSERT_TRUE(events.has_deletes());

  ServeOptions options = BaseOptions();
  options.algo = "dynamic";
  options.config.dynamic_groups = 1;
  options.config.sample_probability = 1.0;
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok()) << fd.status();
  const std::size_t stride = 97;
  for (std::size_t offset = 0; offset < events.size(); offset += stride) {
    const std::size_t take = std::min(stride, events.size() - offset);
    ASSERT_TRUE(
        stream::WriteEventFrame(
            *fd, std::span<const Edge>(events.edges).subspan(offset, take),
            std::span<const EdgeOp>(events.ops).subspan(offset, take))
            .ok());
  }
  ::shutdown(*fd, SHUT_WR);
  SnapshotWire final_snap;
  while (true) {
    auto reply = ReadReply(*fd);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_FALSE(reply->is_error) << reply->error;
    if (reply->snapshot.final_result) {
      final_snap = reply->snapshot;
      break;
    }
  }
  ::close(*fd);
  server.Stop();
  server.Wait();

  EXPECT_TRUE(final_snap.valid);
  EXPECT_EQ(final_snap.edges, events.size());
  EXPECT_EQ(final_snap.triangles, LiveTriangles(events));
}

TEST(ServeTest, DeleteFrameToInsertOnlyEstimatorIsSessionError) {
  ServeOptions options = BaseOptions();  // algo = "bulk", insert-only
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  EdgeEventList events;
  events.Add(Edge(1, 2));
  events.Add(Edge(1, 2), EdgeOp::kDelete);
  ASSERT_TRUE(stream::WriteEventFrame(*fd, events.edges, events.ops).ok());
  ::shutdown(*fd, SHUT_WR);
  auto reply = ReadReply(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->is_error);
  EXPECT_NE(reply->error.find("'bulk'"), std::string::npos) << reply->error;
  ::close(*fd);
  server.Stop();
  server.Wait();
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(ServeTest, BadOpByteClosesConnectionWithError) {
  ServeOptions options = BaseOptions();
  Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto fd = stream::ConnectToLoopback(*port);
  ASSERT_TRUE(fd.ok());
  char header[stream::kTrisHeaderBytes];
  std::memcpy(header, stream::kTrisMagic, 4);
  std::memcpy(header + 4, &stream::kTrisVersion2,
              sizeof(stream::kTrisVersion2));
  const std::uint64_t count = 1;
  std::memcpy(header + 8, &count, sizeof(count));
  char record[stream::kTrisEventBytes] = {0};
  record[8] = 5;  // neither insert nor delete
  ASSERT_EQ(::send(*fd, header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(*fd, record, sizeof(record), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(record)));
  auto reply = ReadReply(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->is_error);
  EXPECT_NE(reply->error.find("op byte"), std::string::npos) << reply->error;
  ::close(*fd);
  server.Stop();
  server.Wait();
}

}  // namespace
}  // namespace engine
}  // namespace tristream
