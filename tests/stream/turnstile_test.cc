// Turnstile (TRIS v2) coverage: event round-trips through files (FILE and
// mmap readers), queues, and text; v1 compatibility (passthrough writes,
// all-insert decoding); and the loud-failure contract for edge-only reads
// (one rule, checked on every source), truncation, and bad op bytes.

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_source.h"
#include "stream/edge_stream.h"
#include "stream/mmap_io.h"
#include "stream/queue_stream.h"
#include "stream/text_io.h"

namespace tristream {
namespace stream {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A small event sequence with interleaved deletes (and a re-insert).
EdgeEventList SampleEvents() {
  EdgeEventList ev;
  ev.Add(Edge(0, 1));
  ev.Add(Edge(1, 2));
  ev.Add(Edge(0, 1), EdgeOp::kDelete);
  ev.Add(Edge(2, 3));
  ev.Add(Edge(0, 1));  // re-insert after delete
  ev.Add(Edge(1, 2), EdgeOp::kDelete);
  return ev;
}

EdgeEventList InsertOnlyEvents() {
  EdgeEventList ev;
  ev.Add(Edge(0, 1));
  ev.Add(Edge(1, 2));
  ev.Add(Edge(2, 3));
  return ev;
}

std::string FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, got);
  }
  std::fclose(f);
  return content;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Drains a stream through the event API into an EdgeEventList.
EdgeEventList DrainEvents(EdgeStream& s, std::size_t batch = 2) {
  EdgeEventList out;
  EventScratch scratch;
  for (;;) {
    const EventBatchView view = s.NextEventBatchView(batch, &scratch);
    if (view.empty()) break;
    for (std::size_t i = 0; i < view.size(); ++i) {
      out.Add(view.edges[i], view.op(i));
    }
  }
  return out;
}

void ExpectSameEvents(const EdgeEventList& got, const EdgeEventList& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.edges[i], want.edges[i]) << "event " << i;
    EXPECT_EQ(got.op(i), want.op(i)) << "event " << i;
  }
}

// --------------------------------------------------- v1 passthrough write

TEST(TurnstileWriteTest, InsertOnlyEventsWriteByteIdenticalV1) {
  const EdgeEventList ev = InsertOnlyEvents();
  graph::EdgeList el;
  for (const Edge& e : ev.edges) el.Add(e);

  const std::string as_edges = TempPath("turnstile_v1_edges.tris");
  const std::string as_events = TempPath("turnstile_v1_events.tris");
  ASSERT_TRUE(WriteBinaryEdges(as_edges, el).ok());
  ASSERT_TRUE(WriteBinaryEvents(as_events, ev).ok());
  EXPECT_EQ(FileBytes(as_edges), FileBytes(as_events));
}

TEST(TurnstileWriteTest, InsertOnlyTextEventsWriteByteIdentical) {
  const EdgeEventList ev = InsertOnlyEvents();
  graph::EdgeList el;
  for (const Edge& e : ev.edges) el.Add(e);

  const std::string as_edges = TempPath("turnstile_text_edges.txt");
  const std::string as_events = TempPath("turnstile_text_events.txt");
  ASSERT_TRUE(WriteTextEdges(as_edges, el).ok());
  ASSERT_TRUE(WriteTextEvents(as_events, ev).ok());
  EXPECT_EQ(FileBytes(as_edges), FileBytes(as_events));
}

// -------------------------------------------------------- v2 file layout

TEST(TurnstileWriteTest, DeleteCarryingEventsWriteV2SoALayout) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_v2_layout.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());

  const std::string bytes = FileBytes(path);
  ASSERT_EQ(bytes.size(), kTrisHeaderBytes + ev.size() * kTrisEventBytes);
  EXPECT_EQ(bytes.substr(0, 4), "TRIS");
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]), kTrisVersion2);
  // Trailing op section, one byte per event, after the v1-identical pairs.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(
                  bytes[kTrisHeaderBytes + ev.size() * sizeof(Edge) + i]),
              static_cast<std::uint8_t>(ev.op(i)))
        << "op " << i;
  }
}

// ------------------------------------------------------------ round-trips

TEST(TurnstileRoundTripTest, ReadBinaryEventsRoundTripsV2) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_read.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  auto r = ReadBinaryEvents(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameEvents(*r, ev);
}

TEST(TurnstileRoundTripTest, FileReaderDeliversV2Events) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_file.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  auto opened = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->turnstile());
  EXPECT_EQ((*opened)->version(), kTrisVersion2);
  const EdgeEventList got = DrainEvents(**opened);
  ExpectSameEvents(got, ev);
  EXPECT_TRUE((*opened)->status().ok());
}

TEST(TurnstileRoundTripTest, MmapReaderDeliversV2Events) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_mmap.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  auto opened = MmapEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->turnstile());
  EXPECT_TRUE((*opened)->stable_views());
  const EdgeEventList got = DrainEvents(**opened);
  ExpectSameEvents(got, ev);
  EXPECT_TRUE((*opened)->status().ok());
}

TEST(TurnstileRoundTripTest, V1FileDecodesAsAllInserts) {
  graph::EdgeList el;
  el.Add(4, 5);
  el.Add(5, 6);
  const std::string path = TempPath("turnstile_v1_as_events.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());

  auto opened = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE((*opened)->turnstile());
  EventScratch scratch;
  const EventBatchView view = (*opened)->NextEventBatchView(16, &scratch);
  ASSERT_EQ(view.size(), el.size());
  EXPECT_TRUE(view.all_inserts());

  auto events = ReadBinaryEvents(path);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), el.size());
  EXPECT_FALSE(events->has_deletes());
}

TEST(TurnstileRoundTripTest, TextEventsRoundTrip) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_rt_text.txt");
  ASSERT_TRUE(WriteTextEvents(path, ev).ok());
  auto r = ReadTextEvents(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameEvents(*r, ev);
}

TEST(TurnstileRoundTripTest, QueueEventsRoundTrip) {
  const EdgeEventList ev = SampleEvents();
  QueueEdgeStream q(64);
  ASSERT_EQ(q.PushEvents(ev.edges, ev.ops), ev.size());
  q.Close();
  EXPECT_TRUE(q.turnstile());
  const EdgeEventList got = DrainEvents(q, 3);
  ExpectSameEvents(got, ev);
  EXPECT_TRUE(q.status().ok());
}

TEST(TurnstileRoundTripTest, OpenEdgeSourceReportsTurnstile) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_source_info.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  EdgeSourceInfo info;
  auto source = OpenEdgeSource(path, {}, &info);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(info.turnstile);
  EXPECT_EQ(info.total_edges, ev.size());
  const EdgeEventList got = DrainEvents(**source, 4);
  ExpectSameEvents(got, ev);
}

// ------------------------------------------------- loud-failure contract

TEST(TurnstileFailureTest, EdgeOnlyReadOfDeleteStreamIsInvalidArgument) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_edge_only.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());

  auto edges = ReadBinaryEdges(path);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kInvalidArgument);

  for (const bool use_mmap : {false, true}) {
    auto opened = OpenEdgeSource(path, {.prefer_mmap = use_mmap});
    ASSERT_TRUE(opened.ok());
    std::vector<Edge> batch;
    std::uint64_t delivered = 0;
    while ((*opened)->NextBatch(4, &batch) > 0) delivered += batch.size();
    const Status status = (*opened)->status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "mmap=" << use_mmap << ": " << status.ToString();
    // Nothing at or past the first delete may have been served as an edge.
    EXPECT_LE(delivered, 2u);
  }
}

TEST(TurnstileFailureTest, QueueEdgeOnlyReadFailsAtFirstDelete) {
  QueueEdgeStream q(64);
  ASSERT_TRUE(q.PushEvent({Edge(0, 1), EdgeOp::kInsert}));
  ASSERT_TRUE(q.PushEvent({Edge(0, 1), EdgeOp::kDelete}));
  q.Close();
  std::vector<Edge> batch;
  EXPECT_EQ(q.NextBatch(1, &batch), 1u);  // the insert drains fine
  EXPECT_EQ(q.NextBatch(1, &batch), 0u);  // the delete refuses edge form
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

/// Five inserts, a delete of the first (live) edge, then more inserts.
/// Pulled kRulePull at a time, the delete lands inside the second batch,
/// behind one insert of that batch.
EdgeEventList DeleteAfterFiveInserts() {
  EdgeEventList ev;
  for (VertexId v = 0; v < 5; ++v) ev.Add(Edge(v, v + 1));
  ev.Add(Edge(0, 1), EdgeOp::kDelete);
  ev.Add(Edge(7, 8));
  ev.Add(Edge(8, 9));
  ev.Add(Edge(9, 10));
  return ev;
}
constexpr std::size_t kRulePull = 4;
constexpr std::size_t kBeforeFirstDelete = 5;

/// Which source a TurnstileFailureTest case builds.
enum class RuleReader { kFile, kMmap, kText, kQueue, kMemory };

struct RuleCase {
  const char* name;
  RuleReader reader;
  bool dedup;  // behind a DedupEdgeStream
};

void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

/// Every source, alone and behind the dedup filter.
class TurnstileFailureTest : public ::testing::TestWithParam<RuleCase> {
 protected:
  /// Builds the source under test over events_ (null after a failure).
  std::unique_ptr<EdgeStream> Make() {
    const RuleCase& c = GetParam();
    std::unique_ptr<EdgeStream> source;
    if (c.reader == RuleReader::kQueue) {
      auto queue = std::make_unique<QueueEdgeStream>(64);
      queue_ = queue.get();
      Refill();
      source = std::move(queue);
    } else if (c.reader == RuleReader::kMemory) {
      source = std::make_unique<MemoryEdgeStream>(events_);
    } else {
      const std::string path = TempPath(std::string("rule_") + c.name);
      const Status written = c.reader == RuleReader::kText
                                 ? WriteTextEvents(path, events_)
                                 : WriteBinaryEvents(path, events_);
      EXPECT_TRUE(written.ok()) << written;
      EdgeSourceInfo info;
      auto opened = OpenEdgeSource(
          path, {.prefer_mmap = c.reader == RuleReader::kMmap}, &info);
      if (!opened.ok()) {
        ADD_FAILURE() << opened.status();
        return nullptr;
      }
      if (c.reader == RuleReader::kMmap) {
        // Mapping may fall back to FILE reads; this case must not.
        EXPECT_EQ(info.reader, EdgeSourceInfo::Reader::kMmap);
      }
      source = std::move(*opened);
    }
    if (c.dedup) source = std::make_unique<DedupEdgeStream>(std::move(source));
    return source;
  }

  /// Feeds the queue again: a live queue cannot replay, the other sources
  /// replay after Reset() alone.
  void Refill() {
    if (queue_ == nullptr) return;
    EXPECT_EQ(queue_->PushEvents(events_.edges, events_.ops), events_.size());
    queue_->Close();
  }

  const EdgeEventList events_ = DeleteAfterFiveInserts();
  QueueEdgeStream* queue_ = nullptr;  // owned by the stream under test
};

TEST_P(TurnstileFailureTest, EdgeOnlyPullStopsAtFirstDeleteUntilReset) {
  const std::unique_ptr<EdgeStream> source = Make();
  ASSERT_NE(source, nullptr);
  EdgeStream& s = *source;
  // Round 0 pulls through NextBatch, round 1 through NextBatchView.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "NextBatch" : "NextBatchView");
    std::vector<Edge> got;
    std::vector<Edge> batch;
    for (;;) {
      std::span<const Edge> view;
      if (round == 0) {
        const std::size_t n = s.NextBatch(kRulePull, &batch);
        view = std::span<const Edge>(batch.data(), n);
      } else {
        view = s.NextBatchView(kRulePull, &batch);
      }
      if (view.empty()) break;
      got.insert(got.end(), view.begin(), view.end());
    }
    // Exactly the events before the first delete: the failing batch's
    // insert prefix included, nothing from the delete on.
    ASSERT_EQ(got.size(), kBeforeFirstDelete);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], events_.edges[i]) << "edge " << i;
    }
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << s.status();
    // Sticky: later edge-only pulls deliver nothing, the status holds.
    EXPECT_EQ(s.NextBatch(kRulePull, &batch), 0u);
    EXPECT_TRUE(batch.empty());
    EXPECT_TRUE(s.NextBatchView(kRulePull, &batch).empty());
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << s.status();
    s.Reset();
    EXPECT_TRUE(s.status().ok()) << s.status();
    Refill();
  }
}

constexpr RuleCase kRuleCases[] = {
    {"file", RuleReader::kFile, false},
    {"mmap", RuleReader::kMmap, false},
    {"text", RuleReader::kText, false},
    {"queue", RuleReader::kQueue, false},
    {"memory_events", RuleReader::kMemory, false},
    {"dedup_file", RuleReader::kFile, true},
    {"dedup_mmap", RuleReader::kMmap, true},
    {"dedup_text", RuleReader::kText, true},
    {"dedup_queue", RuleReader::kQueue, true},
    {"dedup_memory_events", RuleReader::kMemory, true},
};

INSTANTIATE_TEST_SUITE_P(EverySource, TurnstileFailureTest,
                         ::testing::ValuesIn(kRuleCases),
                         [](const ::testing::TestParamInfo<RuleCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(TurnstileFailureTest, SourceErrorBeforeTheDeleteWins) {
  // The queue failed (Close with an error) before the consumer reached the
  // delete: the source's own error is what status() keeps reporting.
  QueueEdgeStream q(64);
  ASSERT_TRUE(q.PushEvent({Edge(0, 1), EdgeOp::kInsert}));
  ASSERT_TRUE(q.PushEvent({Edge(0, 1), EdgeOp::kDelete}));
  q.Close(Status::IoError("producer disconnected"));
  std::vector<Edge> batch;
  EXPECT_EQ(q.NextBatch(8, &batch), 1u);
  EXPECT_EQ(q.status().code(), StatusCode::kIoError) << q.status();
  EXPECT_EQ(q.NextBatch(8, &batch), 0u);
  EXPECT_EQ(q.status().code(), StatusCode::kIoError) << q.status();
}

TEST(TurnstileFailureTest, TruncatedPairSectionIsCorruptData) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_trunc_pairs.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  std::string bytes = FileBytes(path);
  // Cut inside the pair section (before any op byte).
  bytes.resize(kTrisHeaderBytes + 3);
  WriteRaw(path, bytes);

  EXPECT_EQ(ReadBinaryEvents(path).status().code(), StatusCode::kCorruptData);
  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruptData);
}

TEST(TurnstileFailureTest, TruncatedOpSectionIsCorruptData) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_trunc_ops.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  std::string bytes = FileBytes(path);
  bytes.resize(bytes.size() - 2);  // pairs intact, op section short
  WriteRaw(path, bytes);

  EXPECT_EQ(ReadBinaryEvents(path).status().code(), StatusCode::kCorruptData);
  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruptData);
}

TEST(TurnstileFailureTest, BadOpByteIsCorruptData) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_bad_op.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  std::string bytes = FileBytes(path);
  bytes[bytes.size() - 1] = 7;  // neither insert nor delete
  WriteRaw(path, bytes);

  const Status read = ReadBinaryEvents(path).status();
  EXPECT_EQ(read.code(), StatusCode::kCorruptData);
  EXPECT_NE(read.message().find(path), std::string::npos) << read.ToString();

  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_TRUE(mapped.ok());  // mmap validates ops lazily, on delivery
  const EdgeEventList drained = DrainEvents(**mapped, 64);
  EXPECT_LT(drained.size(), ev.size());
  const Status mapped_status = (*mapped)->status();
  EXPECT_EQ(mapped_status.code(), StatusCode::kCorruptData);
  // Both readers name the file.
  EXPECT_NE(mapped_status.message().find(path), std::string::npos)
      << mapped_status.ToString();
}

// --------------------------------- text parser rejection (regression set)

TEST(TurnstileTextTest, MalformedLinesAreLineNumberedInvalidArgument) {
  struct Case {
    const char* content;
    const char* needle;
  };
  const Case cases[] = {
      {"1 2\n-3 4\n", "line 2"},           // negative source id
      {"1 2\n3 -4\n", "line 2"},           // negative target id
      {"4294967296 1\n", "line 1"},        // overflows u32
      {"1 4294967296\n", "line 1"},        // overflows u32
      {"1 2\n1 2 banana\n3 4\n", "line 2"},  // trailing garbage
      {"1 2 +2\n", "line 1"},              // bad op token
  };
  for (const Case& c : cases) {
    auto r = ParseTextEvents(c.content);
    ASSERT_FALSE(r.ok()) << c.content;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.content;
    EXPECT_NE(r.status().message().find(c.needle), std::string::npos)
        << c.content << " -> " << r.status().ToString();
  }
}

TEST(TurnstileTextTest, EdgeOnlyParseRejectsDeleteLineWithLineNumber) {
  auto r = ParseTextEdges("1 2\n1 2 -1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
}

TEST(TurnstileTextTest, OpColumnParses) {
  auto r = ParseTextEvents("1 2\n1 2 -1\n3 4 +1\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ(r->op(0), EdgeOp::kInsert);
  EXPECT_EQ(r->op(1), EdgeOp::kDelete);
  EXPECT_EQ(r->op(2), EdgeOp::kInsert);
}

// ----------------------------------------------- reset clears event state

TEST(TurnstileRoundTripTest, ResetReplaysV2File) {
  const EdgeEventList ev = SampleEvents();
  const std::string path = TempPath("turnstile_reset.tris");
  ASSERT_TRUE(WriteBinaryEvents(path, ev).ok());
  for (const bool use_mmap : {false, true}) {
    auto opened = OpenEdgeSource(path, {.prefer_mmap = use_mmap});
    ASSERT_TRUE(opened.ok());
    ExpectSameEvents(DrainEvents(**opened), ev);
    (*opened)->Reset();
    ExpectSameEvents(DrainEvents(**opened), ev);
  }
}

}  // namespace
}  // namespace stream
}  // namespace tristream
