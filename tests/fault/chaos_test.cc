// The headline chaos suite: a multi-session serve plane under a
// deterministic fault schedule. Clean clients, chaos-killed-but-retrying
// clients, a stall-injected client, a protocol-corrupting client, and a
// client whose checkpoint disk "fills" all run concurrently; every
// surviving session must finish bit-identical to an uninterrupted run,
// and every doomed one must fail loudly with an error naming its
// injected cause. Nothing is timing-based: kill positions come from a
// seeded FaultSchedule, the fs fault targets one session's checkpoint
// path, and the retry backoff is driven through the test's sleep
// override.

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "engine/estimators.h"
#include "engine/feed_client.h"
#include "engine/serve.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_stream.h"
#include "stream/socket_stream.h"
#include "tests/fault/fault.h"
#include "tests/fault/faulty_stream.h"
#include "util/backoff.h"

namespace tristream {
namespace fault {
namespace {

constexpr std::size_t kBatch = 256;

engine::EstimatorConfig TestConfig() {
  engine::EstimatorConfig config;
  config.num_estimators = 1024;
  config.seed = 12345;
  config.batch_size = kBatch;
  return config;
}

double IsolatedTriangles(const graph::EdgeList& el) {
  auto est = engine::MakeEstimator("bulk", TestConfig());
  EXPECT_TRUE(est.ok());
  stream::MemoryEdgeStream source(el);
  engine::StreamEngineOptions options;
  options.batch_size = kBatch;
  engine::StreamEngine eng(options);
  EXPECT_TRUE(eng.Run(**est, source).ok());
  return (*est)->EstimateTriangles();
}

engine::FeedClientOptions FeedOptions(std::uint16_t port,
                                      std::uint64_t stream_id,
                                      std::uint32_t retries) {
  engine::FeedClientOptions options;
  options.port = port;
  options.frame_edges = 211;
  options.stream_id = stream_id;
  options.max_retries = retries;
  options.backoff.seed = stream_id != 0 ? stream_id : 1;
  // Backoff delays are computed (and could be asserted) but not slept:
  // the suite is deterministic, not timing-based.
  options.sleep_override = [](std::uint64_t millis) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<std::uint64_t>(millis, 5)));
  };
  return options;
}

/// Sends 16 bytes of garbage and returns the parsed TRIE status.
Status CorruptClient(std::uint16_t port) {
  auto fd = stream::ConnectToLoopback(port);
  if (!fd.ok()) return fd.status();
  if (::send(*fd, "JUNKJUNKJUNKJUNK", 16, MSG_NOSIGNAL) != 16) {
    ::close(*fd);
    return Status::IoError("send failed");
  }
  char header[stream::kTrisHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n = ::recv(*fd, header + got, sizeof(header) - got, 0);
    if (n <= 0) {
      ::close(*fd);
      return Status::IoError("no TRIE reply");
    }
    got += static_cast<std::size_t>(n);
  }
  if (std::memcmp(header, engine::kServeErrorMagic, 4) != 0) {
    ::close(*fd);
    return Status::Internal("expected a TRIE frame");
  }
  std::uint64_t len = 0;
  std::memcpy(&len, header + 8, sizeof(len));
  std::string payload(len, '\0');
  got = 0;
  while (got < len) {
    const ssize_t n = ::recv(*fd, payload.data() + got, len - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(*fd);
  const engine::TrieError parsed = engine::ParseTrieMessage(payload);
  return Status(parsed.code, parsed.message);
}

TEST(ChaosTest, MultiSessionServeUnderFaultScheduleStaysBitIdentical) {
  const auto el = gen::GnmRandom(300, 6000, 4242);
  const double expected = IsolatedTriangles(el);

  const std::string ckpt_dir =
      std::string(::testing::TempDir()) + "/chaos_serve";
  ::mkdir(ckpt_dir.c_str(), 0755);
  const std::string doomed_path = ckpt_dir + "/stream-66.ckpt";

  // The fs seam: session 66's checkpoint disk is "full" from the start;
  // its first cadence save must fail the session loudly. Other sessions'
  // checkpoints are untouched.
  ckpt::SetPersistFaultHookForTesting(
      [&doomed_path](ckpt::PersistStep, const std::string& path) {
        if (path == doomed_path) {
          return Status::IoError(
              "injected enospc: no space left on device");
        }
        return Status::Ok();
      });

  engine::ServeOptions options;
  options.algo = "bulk";
  options.config = TestConfig();
  options.batch_size = kBatch;
  options.num_workers = 4;
  options.max_sessions = 32;
  options.checkpoint_dir = ckpt_dir;
  options.checkpoint_every_edges = 512;
  engine::Server server(std::move(options));
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  // Kill positions for the retrying survivors, drawn from the seeded
  // schedule substrate: same seed, same chaos, every run.
  const std::array<FaultKind, 1> kinds = {FaultKind::kConnReset};
  FaultSchedule kills =
      FaultSchedule::Random(7, 6, el.size() - 200, kinds);

  constexpr std::size_t kClean = 3;
  constexpr std::size_t kSurvivors = 3;
  std::vector<Result<engine::FeedResult>> clean_results(
      kClean, Status::Internal("unset"));
  std::vector<Result<engine::FeedResult>> survivor_results(
      kSurvivors, Status::Internal("unset"));
  Result<engine::FeedResult> stalled_result = Status::Internal("unset");
  Result<engine::FeedResult> doomed_result = Status::Internal("unset");
  Status corrupt_status;

  std::vector<std::thread> clients;
  // Clean anonymous feeds.
  for (std::size_t i = 0; i < kClean; ++i) {
    clients.emplace_back([&, i] {
      stream::MemoryEdgeStream source(el);
      clean_results[i] = RunFeedClient(source, FeedOptions(*port, 0, 0));
    });
  }
  // Named survivors: two scheduled kills each, generous retry budget
  // (reconnect races with the server's detach discovery are retryable
  // and self-heal).
  for (std::size_t i = 0; i < kSurvivors; ++i) {
    clients.emplace_back([&, i] {
      engine::FeedClientOptions feed =
          FeedOptions(*port, 101 + i, 30);
      feed.kill_after_events = {kills.points()[2 * i].at,
                                kills.points()[2 * i + 1].at};
      stream::MemoryEdgeStream source(el);
      survivor_results[i] = RunFeedClient(source, feed);
    });
  }
  // Stream-seam injection: a stall mid-feed delays but must not change
  // a single byte of the result.
  clients.emplace_back([&] {
    stream::MemoryEdgeStream inner(el);
    FaultyEdgeStream source(
        inner, FaultSchedule::FromPoints({{1500, FaultKind::kStall, 5}}));
    stalled_result = RunFeedClient(source, FeedOptions(*port, 0, 0));
  });
  // The doomed named session: its checkpoint disk is full. A small retry
  // budget makes the terminal status deterministic -- whether the first
  // life dies on a broken pipe or reads the TRIE directly, the retries
  // land on the stored tombstone and surface its message verbatim.
  clients.emplace_back([&] {
    stream::MemoryEdgeStream source(el);
    doomed_result = RunFeedClient(source, FeedOptions(*port, 66, 2));
  });
  // A protocol corruptor, failing only itself.
  clients.emplace_back([&] { corrupt_status = CorruptClient(*port); });
  for (auto& t : clients) t.join();

  // Survivors (clean, stalled, chaos-killed): bit-identical, exactly
  // once.
  for (std::size_t i = 0; i < kClean; ++i) {
    ASSERT_TRUE(clean_results[i].ok()) << clean_results[i].status();
    EXPECT_EQ(clean_results[i]->final_snapshot.triangles, expected)
        << "clean client " << i;
    EXPECT_EQ(clean_results[i]->final_snapshot.edges, el.size());
  }
  ASSERT_TRUE(stalled_result.ok()) << stalled_result.status();
  EXPECT_EQ(stalled_result->final_snapshot.triangles, expected);
  for (std::size_t i = 0; i < kSurvivors; ++i) {
    ASSERT_TRUE(survivor_results[i].ok()) << survivor_results[i].status();
    EXPECT_EQ(survivor_results[i]->final_snapshot.triangles, expected)
        << "survivor " << i;
    EXPECT_EQ(survivor_results[i]->final_snapshot.edges, el.size());
    EXPECT_EQ(survivor_results[i]->events_sent, el.size())
        << "survivor " << i << " double- or under-delivered";
    EXPECT_GE(survivor_results[i]->reconnects, 2u);
  }

  // Doomed ones: loud, named errors -- never silence, never a wrong
  // answer.
  ASSERT_FALSE(doomed_result.ok());
  EXPECT_EQ(doomed_result.status().code(), StatusCode::kIoError);
  EXPECT_NE(doomed_result.status().message().find("injected enospc"),
            std::string::npos)
      << doomed_result.status();
  EXPECT_EQ(corrupt_status.code(), StatusCode::kCorruptData)
      << corrupt_status;
  EXPECT_NE(corrupt_status.message().find("bad frame magic"),
            std::string::npos)
      << corrupt_status;

  // The doomed identity's failure is remembered: a reconnect replays the
  // tombstone verbatim instead of rerunning into the same wall.
  {
    stream::MemoryEdgeStream source(el);
    auto replay = RunFeedClient(source, FeedOptions(*port, 66, 0));
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), doomed_result.status().code());
    EXPECT_EQ(replay.status().message(), doomed_result.status().message());
  }

  server.Stop();
  server.Wait();
  ckpt::SetPersistFaultHookForTesting(nullptr);

  const engine::ServerStats stats = server.stats();
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.memory_used, 0u);
  // 3 clean + 1 stalled + 3 survivors finish; the doomed and corrupt
  // clients fail (attach races may add more failures, never completions
  // beyond the finished-identity replays).
  EXPECT_GE(stats.completed, kClean + 1 + kSurvivors);
  EXPECT_GE(stats.failed, 2u);
  EXPECT_GE(stats.detached, 2u * kSurvivors);
  EXPECT_EQ(stats.resumed, stats.detached);

  // Tidy the checkpoint directory (survivor cadence snapshots).
  for (std::uint64_t id : {66ull, 101ull, 102ull, 103ull}) {
    const std::string base = ckpt_dir + "/stream-" + std::to_string(id);
    std::remove((base + ".ckpt").c_str());
    std::remove((base + ".ckpt.prev").c_str());
    std::remove((base + ".ckpt.tmp").c_str());
  }
  ::rmdir(ckpt_dir.c_str());
}

}  // namespace
}  // namespace fault
}  // namespace tristream
