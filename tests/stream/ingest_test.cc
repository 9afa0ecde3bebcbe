// Tests for the zero-copy ingest subsystem: MmapEdgeStream (mapping,
// corruption handling, io accounting), the OpenEdgeSource sniffing front
// end, the DedupEdgeStream wrapper, and the parity contract -- every
// ingest path must deliver identical edges and bit-identical seeded
// TriangleCounter estimates, at any thread count.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"
#include "stream/edge_source.h"
#include "stream/edge_stream.h"
#include "stream/mmap_io.h"
#include "stream/text_io.h"

namespace tristream {
namespace stream {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Writes raw bytes to `path` (for crafting corrupt headers).
void WriteRaw(const std::string& path, const void* data, std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, bytes, f), bytes);
  ASSERT_EQ(std::fclose(f), 0);
}

/// Truncates `path` by `cut` bytes.
void Truncate(const std::string& path, std::size_t cut) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const auto size = static_cast<std::size_t>(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);
  std::string content(size, '\0');
  ASSERT_EQ(std::fread(content.data(), 1, size, f), size);
  std::fclose(f);
  WriteRaw(path, content.data(), size - cut);
}

std::vector<Edge> DrainViews(EdgeStream& s, std::size_t batch) {
  std::vector<Edge> all;
  std::vector<Edge> scratch;
  while (true) {
    const auto view = s.NextBatchView(batch, &scratch);
    if (view.empty()) break;
    all.insert(all.end(), view.begin(), view.end());
  }
  return all;
}

// --------------------------------------------------------- MmapEdgeStream

TEST(MmapEdgeStreamTest, DeliversAllEdgesZeroCopy) {
  const auto el = gen::GnmRandom(200, 2000, 11);
  const std::string path = TempPath("mmap_all.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  auto opened = MmapEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  MmapEdgeStream& s = **opened;
  EXPECT_TRUE(s.stable_views());
  EXPECT_EQ(s.total_edges(), el.size());
  const auto all = DrainViews(s, 512);
  ASSERT_EQ(all.size(), el.size());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], el[i]);
  EXPECT_EQ(s.edges_delivered(), el.size());
  EXPECT_GE(s.io_seconds(), 0.0);
  // Zero copy: the view aliases the mapping, not a staging vector.
  s.Reset();
  std::vector<Edge> scratch;
  const auto view = s.NextBatchView(16, &scratch);
  ASSERT_EQ(view.size(), 16u);
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(view.data(), s.edges().data());
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, ViewsStayValidAcrossSubsequentCalls) {
  const auto el = gen::GnmRandom(100, 900, 12);
  const std::string path = TempPath("mmap_stable.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  auto opened = MmapEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok());
  std::vector<Edge> scratch;
  const auto first = (*opened)->NextBatchView(100, &scratch);
  const auto second = (*opened)->NextBatchView(100, &scratch);
  ASSERT_EQ(first.size(), 100u);
  ASSERT_EQ(second.size(), 100u);
  // The first span still reads correctly after later calls.
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], el[i]);
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i], el[100 + i]);
  }
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, NextBatchCopyMatchesView) {
  const auto el = gen::GnmRandom(80, 700, 13);
  const std::string path = TempPath("mmap_copy.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  auto opened = MmapEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok());
  std::vector<Edge> batch;
  std::size_t seen = 0;
  while ((*opened)->NextBatch(128, &batch) > 0) {
    for (const Edge& e : batch) {
      ASSERT_EQ(e, el[seen]);
      ++seen;
    }
  }
  EXPECT_EQ(seen, el.size());
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, ResetReplays) {
  const auto el = gen::GnmRandom(60, 500, 14);
  const std::string path = TempPath("mmap_reset.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  auto opened = MmapEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok());
  std::vector<Edge> scratch;
  (*opened)->NextBatchView(400, &scratch);
  (*opened)->Reset();
  EXPECT_EQ((*opened)->edges_delivered(), 0u);
  const auto view = (*opened)->NextBatchView(1, &scratch);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], el[0]);
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, EmptyFileRoundTrips) {
  const std::string path = TempPath("mmap_empty.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, graph::EdgeList()).ok());
  auto opened = MmapEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ((*opened)->total_edges(), 0u);
  std::vector<Edge> scratch;
  EXPECT_TRUE((*opened)->NextBatchView(100, &scratch).empty());
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, MissingFileIsIoError) {
  auto r = MmapEdgeStream::Open(TempPath("mmap_nope.tris"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(MmapEdgeStreamTest, DirectoryIsIoError) {
  auto r = MmapEdgeStream::Open(::testing::TempDir());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(MmapEdgeStreamTest, BadMagicIsCorruptData) {
  const std::string path = TempPath("mmap_badmagic.tris");
  WriteRaw(path, "JUNKJUNKJUNKJUNKJUNK", 20);
  auto r = MmapEdgeStream::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, BadVersionIsCorruptData) {
  const std::string path = TempPath("mmap_badversion.tris");
  struct {
    char magic[4] = {'T', 'R', 'I', 'S'};
    std::uint32_t version = kTrisVersion + 41;
    std::uint64_t count = 0;
  } header;
  WriteRaw(path, &header, sizeof(header));
  auto r = MmapEdgeStream::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, HeaderTooShortIsCorruptData) {
  const std::string path = TempPath("mmap_shortheader.tris");
  WriteRaw(path, "TRIS", 4);
  auto r = MmapEdgeStream::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, TruncatedPayloadIsCorruptData) {
  const auto el = gen::GnmRandom(50, 300, 15);
  const std::string path = TempPath("mmap_trunc.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  Truncate(path, 64);  // whole pairs
  auto r = MmapEdgeStream::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  std::remove(path.c_str());
}

TEST(MmapEdgeStreamTest, OddByteTailIsCorruptData) {
  const auto el = gen::GnmRandom(50, 300, 16);
  const std::string path = TempPath("mmap_oddtail.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  Truncate(path, 4);  // half a pair: payload ends mid-edge
  auto r = MmapEdgeStream::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  std::remove(path.c_str());
}

// --------------------------------------------------------- OpenEdgeSource

TEST(OpenEdgeSourceTest, SniffsBinaryByMagicNotExtension) {
  const auto el = gen::GnmRandom(40, 200, 17);
  const std::string path = TempPath("binary_in_disguise.txt");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  auto source = OpenEdgeSource(path);
  ASSERT_TRUE(source.ok()) << source.status();
  const auto all = DrainViews(**source, 64);
  ASSERT_EQ(all.size(), el.size());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], el[i]);
  EXPECT_TRUE((*source)->stable_views());  // got the mmap reader
  std::remove(path.c_str());
}

TEST(OpenEdgeSourceTest, PreferMmapOffUsesFileReader) {
  const auto el = gen::GnmRandom(40, 200, 18);
  const std::string path = TempPath("no_mmap.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  EdgeSourceOptions options;
  options.prefer_mmap = false;
  auto source = OpenEdgeSource(path, options);
  ASSERT_TRUE(source.ok());
  EXPECT_FALSE((*source)->stable_views());  // FILE reader copies per batch
  const auto all = DrainViews(**source, 64);
  ASSERT_EQ(all.size(), el.size());
  std::remove(path.c_str());
}

TEST(OpenEdgeSourceTest, SniffsTextByContent) {
  const std::string path = TempPath("sniffed_edges.dat");
  const auto el = gen::GnmRandom(30, 150, 19);
  ASSERT_TRUE(WriteTextEdges(path, el).ok());
  auto source = OpenEdgeSource(path);
  ASSERT_TRUE(source.ok()) << source.status();
  const auto all = DrainViews(**source, 64);
  ASSERT_EQ(all.size(), el.size());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], el[i]);
  std::remove(path.c_str());
}

TEST(OpenEdgeSourceTest, ShortFileSniffsAsText) {
  const std::string path = TempPath("tiny.txt");
  WriteRaw(path, "1 2", 3);  // shorter than the 4 magic bytes
  auto source = OpenEdgeSource(path);
  ASSERT_TRUE(source.ok()) << source.status();
  std::vector<Edge> batch;
  ASSERT_EQ((*source)->NextBatch(10, &batch), 1u);
  EXPECT_EQ(batch[0], Edge(1, 2));
  std::remove(path.c_str());
}

TEST(OpenEdgeSourceTest, InfoReportsReaderAndEdgeCount) {
  const auto el = gen::GnmRandom(40, 220, 26);
  const std::string bin = TempPath("info_bin.tris");
  const std::string txt = TempPath("info_txt.txt");
  ASSERT_TRUE(WriteBinaryEdges(bin, el).ok());
  ASSERT_TRUE(WriteTextEdges(txt, el).ok());

  EdgeSourceInfo info;
  ASSERT_TRUE(OpenEdgeSource(bin, {}, &info).ok());
  EXPECT_EQ(info.reader, EdgeSourceInfo::Reader::kMmap);
  EXPECT_EQ(info.total_edges, el.size());
  EXPECT_STREQ(info.reader_name(), "mmap");

  EdgeSourceOptions no_mmap;
  no_mmap.prefer_mmap = false;
  ASSERT_TRUE(OpenEdgeSource(bin, no_mmap, &info).ok());
  EXPECT_EQ(info.reader, EdgeSourceInfo::Reader::kFile);
  EXPECT_EQ(info.total_edges, el.size());

  ASSERT_TRUE(OpenEdgeSource(txt, {}, &info).ok());
  EXPECT_EQ(info.reader, EdgeSourceInfo::Reader::kText);
  EXPECT_EQ(info.total_edges, el.size());

  std::remove(bin.c_str());
  std::remove(txt.c_str());
}

TEST(OpenEdgeSourceTest, MissingFileIsIoError) {
  auto source = OpenEdgeSource(TempPath("no_such_source"));
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIoError);
}

TEST(OpenEdgeSourceTest, CorruptBinaryStaysCorruptUnderMmapPreference) {
  const auto el = gen::GnmRandom(50, 250, 20);
  const std::string path = TempPath("source_trunc.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  Truncate(path, 12);
  auto source = OpenEdgeSource(path);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kCorruptData);
  std::remove(path.c_str());
}

TEST(OpenEdgeSourceTest, DedupFiltersDuplicatesAndLoops) {
  const std::string path = TempPath("dups.txt");
  WriteRaw(path, "1 2\n2 1\n3 3\n2 3\n1 2\n", 20);
  EdgeSourceOptions options;
  options.dedup = true;
  auto source = OpenEdgeSource(path, options);
  ASSERT_TRUE(source.ok()) << source.status();
  const auto all = DrainViews(**source, 2);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], Edge(1, 2));
  EXPECT_EQ(all[1], Edge(2, 3));
  EXPECT_EQ((*source)->edges_delivered(), 2u);
  std::remove(path.c_str());
}

TEST(DedupEdgeStreamTest, ResetClearsTheFilter) {
  graph::EdgeList el;
  el.Add(1, 2);
  el.Add(2, 1);
  el.Add(4, 5);
  auto inner = std::make_unique<MemoryEdgeStream>(el);
  DedupEdgeStream dedup(std::move(inner));
  std::vector<Edge> batch;
  std::size_t total = 0;
  while (dedup.NextBatch(10, &batch) > 0) total += batch.size();
  EXPECT_EQ(total, 2u);
  dedup.Reset();
  EXPECT_EQ(dedup.edges_delivered(), 0u);
  total = 0;
  while (dedup.NextBatch(10, &batch) > 0) total += batch.size();
  EXPECT_EQ(total, 2u);  // same edges admitted again after Reset
}

TEST(DedupEdgeStreamTest, AllDuplicateTailIsEndOfStreamNotEmptyBatch) {
  graph::EdgeList el;
  el.Add(1, 2);
  for (int i = 0; i < 100; ++i) el.Add(2, 1);  // long duplicate run
  auto inner = std::make_unique<MemoryEdgeStream>(el);
  DedupEdgeStream dedup(std::move(inner));
  std::vector<Edge> batch;
  EXPECT_EQ(dedup.NextBatch(8, &batch), 1u);  // filters across inner batches
  EXPECT_EQ(dedup.NextBatch(8, &batch), 0u);
}

// -------------------------------------------------- ingest parity contract

TEST(IngestParityTest, AllPathsDeliverIdenticalEdges) {
  const auto el = gen::GnmRandom(300, 4000, 21);
  const std::string path = TempPath("parity_edges.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());

  auto mapped = MmapEdgeStream::Open(path);
  auto buffered = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(buffered.ok());
  const auto from_map = DrainViews(**mapped, 513);  // odd batch on purpose
  const auto from_file = DrainViews(**buffered, 513);
  ASSERT_EQ(from_map.size(), el.size());
  ASSERT_EQ(from_file.size(), el.size());
  for (std::size_t i = 0; i < el.size(); ++i) {
    EXPECT_EQ(from_map[i], el[i]);
    EXPECT_EQ(from_file[i], el[i]);
  }
  std::remove(path.c_str());
}

TEST(IngestParityTest, BitIdenticalEstimatesAcrossIngestPaths) {
  const auto el = gen::GnmRandom(200, 2500, 22);
  const std::string path = TempPath("parity_estimates.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());

  for (const std::uint32_t threads : {1u, 3u}) {
    core::TriangleCounterOptions options;
    options.num_estimators = 8192;
    options.num_threads = threads;
    options.seed = 20260726;
    options.batch_size = 700;  // several batches plus a partial tail

    auto run_memory = [&] {
      core::TriangleCounter counter(options);
      counter.ProcessEdges(el.edges());
      return std::pair(counter.EstimateTriangles(),
                       counter.EstimateWedges());
    };
    auto run_stream = [&](std::unique_ptr<EdgeStream> source) {
      engine::TsbEstimator estimator(options);
      engine::StreamEngine eng;
      EXPECT_TRUE(eng.Run(estimator, *source).ok());
      return std::pair(estimator.EstimateTriangles(),
                       estimator.EstimateWedges());
    };

    const auto memory = run_memory();
    auto mapped = MmapEdgeStream::Open(path);
    ASSERT_TRUE(mapped.ok());
    const auto via_mmap = run_stream(std::move(*mapped));
    auto buffered = BinaryFileEdgeStream::Open(path);
    ASSERT_TRUE(buffered.ok());
    const auto via_file = run_stream(std::move(*buffered));

    EXPECT_EQ(via_mmap, via_file) << threads << " threads";
    EXPECT_EQ(via_mmap, memory) << threads << " threads";
  }
  std::remove(path.c_str());
}

TEST(IngestParityTest, MedianOfMeansAlsoBitIdenticalAcrossPaths) {
  const auto el = gen::GnmRandom(150, 1800, 23);
  const std::string path = TempPath("parity_mom.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  core::TriangleCounterOptions options;
  options.num_estimators = 6000;
  options.num_threads = 4;
  options.seed = 777;
  options.aggregation = core::Aggregation::kMedianOfMeans;
  options.batch_size = 512;

  auto run = [&](bool use_mmap) {
    std::unique_ptr<EdgeStream> source;
    if (use_mmap) {
      auto opened = MmapEdgeStream::Open(path);
      EXPECT_TRUE(opened.ok());
      source = std::move(*opened);
    } else {
      auto opened = BinaryFileEdgeStream::Open(path);
      EXPECT_TRUE(opened.ok());
      source = std::move(*opened);
    }
    engine::TsbEstimator estimator(options);
    engine::StreamEngine eng;
    EXPECT_TRUE(eng.Run(estimator, *source).ok());
    return std::pair(estimator.EstimateTriangles(),
                     estimator.EstimateTransitivity());
  };
  EXPECT_EQ(run(true), run(false));
  std::remove(path.c_str());
}

TEST(IngestParityTest, ThreadedMatchesInlineUnderBothAggregations) {
  // The caller aggregates all r lanes in lane order whichever workers ran
  // them, so the mean and the median-of-means rule alike come out
  // bit-identical to the inline counter's.
  const auto el = gen::GnmRandom(120, 1500, 24);
  for (const auto aggregation :
       {core::Aggregation::kMean, core::Aggregation::kMedianOfMeans}) {
    core::TriangleCounterOptions options;
    options.num_estimators = 5000;
    options.seed = 99;
    options.aggregation = aggregation;
    core::TriangleCounter inline_counter(options);
    inline_counter.ProcessEdges(el.edges());
    for (const std::uint32_t threads : {1u, 3u}) {
      options.num_threads = threads;
      core::TriangleCounter threaded(options);
      threaded.ProcessEdges(el.edges());
      EXPECT_EQ(threaded.EstimateTriangles(),
                inline_counter.EstimateTriangles());
      EXPECT_EQ(threaded.EstimateWedges(), inline_counter.EstimateWedges());
      EXPECT_EQ(threaded.EstimateTransitivity(),
                inline_counter.EstimateTransitivity());
    }
  }
}

// ---------------------------------------------- failure propagation

TEST(IngestFailureTest, FileTruncatedAfterHeaderFailsEngineRun) {
  // The header promises edges that never arrive: the engine run must
  // return the source's failure, not report an estimate of nothing.
  const auto el = gen::GnmRandom(60, 500, 27);
  const std::string path = TempPath("fail_after_header.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  Truncate(path, 8 * el.size());  // keep exactly the 16-byte header

  auto opened = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok());  // the header itself is intact
  core::TriangleCounterOptions options;
  options.num_estimators = 256;
  options.num_threads = 2;
  options.seed = 5;
  engine::TsbEstimator estimator(options);
  engine::StreamEngine eng;
  const Status streamed = eng.Run(estimator, **opened);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.code(), StatusCode::kCorruptData);
  EXPECT_EQ(estimator.edges_processed(), 0u);
  std::remove(path.c_str());
}

TEST(IngestFailureTest, MidPayloadTruncationFailsEngineRunWithPrefix) {
  const auto el = gen::GnmRandom(80, 1000, 28);
  const std::string path = TempPath("fail_mid_payload.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, el).ok());
  Truncate(path, 8 * (el.size() / 2));  // half the payload survives

  auto opened = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(opened.ok());
  core::TriangleCounterOptions options;
  options.num_estimators = 256;
  options.num_threads = 2;
  options.seed = 5;
  options.batch_size = 64;
  engine::TsbEstimator estimator(options);
  engine::StreamEngine eng;
  const Status streamed = eng.Run(estimator, **opened);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.code(), StatusCode::kCorruptData);
  // The surviving prefix was absorbed -- which is exactly why the return
  // status is the only thing separating it from a clean run.
  EXPECT_GT(estimator.edges_processed(), 0u);
  EXPECT_LT(estimator.edges_processed(), el.size());
  std::remove(path.c_str());
}

// --------------------------------------- DedupEdgeStream view parity

TEST(DedupEdgeStreamTest, ViewPathMatchesBatchPathOverStableInner) {
  graph::EdgeList dirty;
  for (VertexId i = 0; i < 300; ++i) {
    dirty.Add(i, i + 1);
    dirty.Add(i + 1, i);  // duplicate, reversed
    if (i % 7 == 0) dirty.Add(i, i);  // self-loop
  }
  DedupEdgeStream by_batch(std::make_unique<MemoryEdgeStream>(dirty));
  DedupEdgeStream by_view(std::make_unique<MemoryEdgeStream>(dirty));
  std::vector<Edge> batch;
  std::vector<Edge> scratch;
  // Batch-by-batch parity, not just same union: the real NextBatchView
  // override must preserve the shim's batch boundaries exactly.
  while (true) {
    const std::size_t n = by_batch.NextBatch(64, &batch);
    const std::span<const Edge> view = by_view.NextBatchView(64, &scratch);
    ASSERT_EQ(view.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(view[i], batch[i]);
    if (n == 0) break;
  }
  EXPECT_EQ(by_view.edges_delivered(), by_batch.edges_delivered());
}

TEST(DedupEdgeStreamTest, ViewPathMatchesBatchPathOverFileInner) {
  graph::EdgeList dirty;
  for (VertexId i = 0; i < 500; ++i) {
    dirty.Add(i % 100, (i + 1) % 100);  // heavy duplication
  }
  const std::string path = TempPath("dedup_view_file.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, dirty).ok());
  auto a = BinaryFileEdgeStream::Open(path);
  auto b = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  DedupEdgeStream by_batch(std::move(*a));
  DedupEdgeStream by_view(std::move(*b));
  std::vector<Edge> batch;
  std::vector<Edge> scratch;
  while (true) {
    const std::size_t n = by_batch.NextBatch(37, &batch);
    const std::span<const Edge> view = by_view.NextBatchView(37, &scratch);
    ASSERT_EQ(view.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(view[i], batch[i]);
    if (n == 0) break;
  }
  std::remove(path.c_str());
}

TEST(DedupEdgeStreamTest, ViewsSurviveOneSubsequentCall) {
  // The pipelined consumer dispatches view N to workers while fetching
  // view N+1; the dedup override must double-buffer to allow it.
  graph::EdgeList el;
  for (VertexId i = 0; i < 64; ++i) el.Add(i, i + 1);
  DedupEdgeStream dedup(std::make_unique<MemoryEdgeStream>(el));
  std::vector<Edge> scratch;
  const std::span<const Edge> first = dedup.NextBatchView(16, &scratch);
  ASSERT_EQ(first.size(), 16u);
  const std::span<const Edge> second = dedup.NextBatchView(16, &scratch);
  ASSERT_EQ(second.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(first[i], Edge(static_cast<VertexId>(i),
                             static_cast<VertexId>(i) + 1));
    EXPECT_EQ(second[i], Edge(static_cast<VertexId>(16 + i),
                              static_cast<VertexId>(16 + i) + 1));
  }
}

TEST(DedupEdgeStreamTest, DedupedEngineRunBitIdenticalAcrossInners) {
  // End to end through the pipelined counter: the dedup'd stream yields
  // the same (ragged) filtered batches whatever reader sits underneath,
  // so estimates must agree to the last bit across mmap, FILE, and
  // in-memory inners for a fixed (seed, threads).
  const auto clean = gen::GnmRandom(120, 1500, 29);
  graph::EdgeList dirty;
  for (const Edge& e : clean.edges()) {
    dirty.Add(e);
    dirty.Add(e.v, e.u);  // every edge arrives twice
  }
  const std::string path = TempPath("dedup_counter_parity.tris");
  ASSERT_TRUE(WriteBinaryEdges(path, dirty).ok());

  core::TriangleCounterOptions options;
  options.num_estimators = 2048;
  options.num_threads = 2;
  options.seed = 616;
  options.batch_size = 128;

  const auto run = [&options, &clean](std::unique_ptr<EdgeStream> inner) {
    DedupEdgeStream source(std::move(inner));
    engine::TsbEstimator estimator(options);
    engine::StreamEngine eng;
    EXPECT_TRUE(eng.Run(estimator, source).ok());
    EXPECT_EQ(estimator.edges_processed(), clean.size());  // filter worked
    return std::pair(estimator.EstimateTriangles(),
                     estimator.EstimateWedges());
  };

  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_TRUE(mapped.ok());
  auto buffered = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(buffered.ok());
  const auto via_memory = run(std::make_unique<MemoryEdgeStream>(dirty));
  const auto via_mmap = run(std::move(*mapped));
  const auto via_file = run(std::move(*buffered));
  EXPECT_EQ(via_mmap, via_memory);
  EXPECT_EQ(via_file, via_memory);
  std::remove(path.c_str());
}

TEST(IngestParityTest, EngineRunAfterBufferedEdgesKeepsOrder) {
  // Edges pushed before the engine run must precede the stream's edges.
  const auto el = gen::GnmRandom(100, 1200, 25);
  const std::string path = TempPath("parity_mixed.tris");
  const std::span<const Edge> edges(el.edges());
  const std::size_t head = 301;  // not a batch multiple
  ASSERT_TRUE(WriteBinaryEdges(
                  path, graph::EdgeList(std::vector<Edge>(
                            edges.begin() + head, edges.end())))
                  .ok());
  core::TriangleCounterOptions options;
  options.num_estimators = 4096;
  options.num_threads = 2;
  options.seed = 4242;
  options.batch_size = 256;

  engine::TsbEstimator mixed(options);
  mixed.counter().ProcessEdges(edges.subspan(0, head));
  auto mapped = MmapEdgeStream::Open(path);
  ASSERT_TRUE(mapped.ok());
  engine::StreamEngine eng;
  EXPECT_TRUE(eng.Run(mixed, **mapped).ok());
  EXPECT_EQ(mixed.edges_processed(), el.size());
  EXPECT_GT(mixed.EstimateWedges(), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stream
}  // namespace tristream
