// FaultSchedule + FaultyEdgeStream suite: the substrate every chaos test
// stands on. Pins the schedule's determinism (same seed, same points),
// the exactly-once Due() contract, and the stream wrapper's byte-exact
// fault positions -- a fault fires after precisely `at` delivered events,
// the sticky status names the injected kind, and Reset() replays the
// identical faulted run.

#include "tests/fault/fault.h"

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "tests/fault/faulty_stream.h"
#include "util/status.h"

namespace tristream {
namespace fault {
namespace {

TEST(FaultScheduleTest, FromPointsSortsAndFiresExactlyOnce) {
  FaultSchedule schedule = FaultSchedule::FromPoints({
      {300, FaultKind::kIoError, 0},
      {100, FaultKind::kStall, 7},
      {100, FaultKind::kCorruptData, 0},
  });
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule.next_at(), 100u);
  EXPECT_EQ(schedule.Due(99), nullptr);

  // Two points share position 100; Due hands out each exactly once, in
  // stable insertion order for the tie.
  const FaultPoint* first = schedule.Due(100);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->kind, FaultKind::kStall);
  EXPECT_EQ(first->param, 7u);
  const FaultPoint* second = schedule.Due(100);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->kind, FaultKind::kCorruptData);
  EXPECT_EQ(schedule.Due(100), nullptr);

  EXPECT_EQ(schedule.next_at(), 300u);
  ASSERT_NE(schedule.Due(1000), nullptr);
  EXPECT_TRUE(schedule.exhausted());
  EXPECT_EQ(schedule.Due(1000000), nullptr);

  schedule.Reset();
  EXPECT_FALSE(schedule.exhausted());
  EXPECT_EQ(schedule.next_at(), 100u);
}

TEST(FaultScheduleTest, RandomIsDeterministicPerSeed) {
  const std::array<FaultKind, 3> kinds = {
      FaultKind::kIoError, FaultKind::kStall, FaultKind::kConnReset};
  FaultSchedule a = FaultSchedule::Random(11, 16, 10000, kinds);
  FaultSchedule b = FaultSchedule::Random(11, 16, 10000, kinds);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].at, b.points()[i].at) << "point " << i;
    EXPECT_EQ(a.points()[i].kind, b.points()[i].kind) << "point " << i;
    EXPECT_EQ(a.points()[i].param, b.points()[i].param) << "point " << i;
    EXPECT_GE(a.points()[i].at, 1u);
    EXPECT_LE(a.points()[i].at, 10000u);
  }

  FaultSchedule c = FaultSchedule::Random(12, 16, 10000, kinds);
  bool diverged = false;
  for (std::size_t i = 0; i < c.points().size() && !diverged; ++i) {
    diverged = c.points()[i].at != a.points()[i].at;
  }
  EXPECT_TRUE(diverged) << "different seeds drew identical schedules";
}

TEST(FaultKindNameTest, EveryKindHasAStableName) {
  EXPECT_STREQ(FaultKindName(FaultKind::kIoError), "io-error");
  EXPECT_STREQ(FaultKindName(FaultKind::kCorruptData), "corrupt-data");
  EXPECT_STREQ(FaultKindName(FaultKind::kStall), "stall");
  EXPECT_STREQ(FaultKindName(FaultKind::kConnReset), "conn-reset");
  EXPECT_STREQ(FaultKindName(FaultKind::kMidFrameCut), "mid-frame-cut");
  EXPECT_STREQ(FaultKindName(FaultKind::kEnospc), "enospc");
  EXPECT_STREQ(FaultKindName(FaultKind::kTornRename), "torn-rename");
}

// ----------------------------------------------- FaultyEdgeStream seam

TEST(FaultyEdgeStreamTest, FailsAtExactPositionWithNamedKind) {
  const auto el = gen::GnmRandom(100, 2000, 3);
  stream::MemoryEdgeStream inner(el);
  FaultyEdgeStream faulty(
      inner, FaultSchedule::FromPoints({{777, FaultKind::kIoError, 0}}));

  std::uint64_t delivered = 0;
  std::vector<Edge> scratch;
  while (true) {
    // Oversized pulls: the wrapper must cap them so the fault cannot
    // land mid-batch.
    const auto view = faulty.NextBatchView(1 << 20, &scratch);
    if (view.empty()) break;
    delivered += view.size();
  }
  EXPECT_EQ(delivered, 777u);
  EXPECT_EQ(faulty.edges_delivered(), 777u);
  const Status status = faulty.status();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("io-error"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("777"), std::string::npos)
      << status.message();
}

TEST(FaultyEdgeStreamTest, ContentBelowFaultMatchesCleanRun) {
  const auto el = gen::GnmRandom(100, 2000, 5);
  stream::MemoryEdgeStream clean(el);
  stream::MemoryEdgeStream inner(el);
  FaultyEdgeStream faulty(
      inner,
      FaultSchedule::FromPoints({{1000, FaultKind::kCorruptData, 0}}));

  std::vector<Edge> got, want, scratch;
  while (true) {
    const auto view = faulty.NextBatchView(256, &scratch);
    if (view.empty()) break;
    got.insert(got.end(), view.begin(), view.end());
  }
  while (want.size() < got.size()) {
    const auto view =
        clean.NextBatchView(got.size() - want.size(), &scratch);
    ASSERT_FALSE(view.empty());
    want.insert(want.end(), view.begin(), view.end());
  }
  ASSERT_EQ(got.size(), 1000u);
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(Edge)),
            0);
  EXPECT_EQ(faulty.status().code(), StatusCode::kCorruptData);
}

TEST(FaultyEdgeStreamTest, StallDeliversEverythingAndChargesIoTime) {
  const auto el = gen::GnmRandom(50, 600, 9);
  stream::MemoryEdgeStream inner(el);
  FaultyEdgeStream faulty(
      inner, FaultSchedule::FromPoints({{100, FaultKind::kStall, 5}}));

  std::uint64_t delivered = 0;
  std::vector<Edge> scratch;
  while (true) {
    const auto view = faulty.NextBatchView(512, &scratch);
    if (view.empty()) break;
    delivered += view.size();
  }
  EXPECT_EQ(delivered, el.size());  // a stall delays, never truncates
  EXPECT_TRUE(faulty.status().ok());
  EXPECT_GE(faulty.io_seconds(), 0.005);
}

TEST(FaultyEdgeStreamTest, ResetReplaysTheIdenticalFaultedRun) {
  const auto el = gen::GnmRandom(80, 1500, 21);
  stream::MemoryEdgeStream inner(el);
  FaultyEdgeStream faulty(
      inner, FaultSchedule::FromPoints({{321, FaultKind::kConnReset, 0}}));

  auto drain = [&faulty] {
    std::vector<Edge> out, scratch;
    while (true) {
      const auto view = faulty.NextBatchView(64, &scratch);
      if (view.empty()) break;
      out.insert(out.end(), view.begin(), view.end());
    }
    return out;
  };
  const std::vector<Edge> first = drain();
  const Status first_status = faulty.status();
  EXPECT_EQ(first.size(), 321u);
  EXPECT_EQ(first_status.code(), StatusCode::kIoError);

  faulty.Reset();
  EXPECT_TRUE(faulty.status().ok());
  EXPECT_EQ(faulty.edges_delivered(), 0u);
  const std::vector<Edge> second = drain();
  ASSERT_EQ(second.size(), first.size());
  EXPECT_EQ(std::memcmp(first.data(), second.data(),
                        first.size() * sizeof(Edge)),
            0);
  EXPECT_EQ(faulty.status().code(), first_status.code());
  EXPECT_EQ(faulty.status().message(), first_status.message());
}

TEST(FaultyEdgeStreamTest, EmptyScheduleIsTransparent) {
  const auto el = gen::GnmRandom(60, 800, 33);
  stream::MemoryEdgeStream clean(el);
  stream::MemoryEdgeStream inner(el);
  FaultyEdgeStream faulty(inner, FaultSchedule());

  std::vector<Edge> got, want, scratch;
  while (true) {
    const auto view = faulty.NextBatchView(128, &scratch);
    if (view.empty()) break;
    got.insert(got.end(), view.begin(), view.end());
  }
  while (true) {
    const auto view = clean.NextBatchView(128, &scratch);
    if (view.empty()) break;
    want.insert(want.end(), view.begin(), view.end());
  }
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(Edge)),
            0);
  EXPECT_TRUE(faulty.status().ok());
}

}  // namespace
}  // namespace fault
}  // namespace tristream
