// Crash-safe checkpointing suite: TRICKPT round trips, the kill-and-resume
// bit-identity guarantee, atomic persistence with generation fallback, and
// the corruption sweep (truncation at every prefix length plus single-bit
// flips) that locks "a damaged snapshot is rejected, never silently wrong".

#include "ckpt/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "engine/stream_engine.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_list.h"
#include "gtest/gtest.h"
#include "stream/edge_source.h"
#include "stream/edge_stream.h"
#include "util/simd.h"

namespace tristream {
namespace ckpt {
namespace {

using engine::EstimatorConfig;
using engine::MakeEstimator;
using engine::StreamEngine;
using engine::StreamEngineOptions;
using engine::StreamingEstimator;

constexpr std::size_t kBatch = 256;

struct Estimates {
  std::uint64_t edges = 0;
  double triangles = 0.0;
  double wedges = 0.0;
  double transitivity = 0.0;

  bool operator==(const Estimates&) const = default;
};

Estimates ReadEstimates(StreamingEstimator& est) {
  Estimates out;
  out.edges = est.edges_processed();
  out.triangles = est.EstimateTriangles();
  if (est.has_wedge_estimates()) {
    out.wedges = est.EstimateWedges();
    out.transitivity = est.EstimateTransitivity();
  }
  return out;
}

/// One checkpointable configuration under test. Covers the acceptance
/// matrix: inline neighborhood sampling at small and large r, the same
/// counter on worker threads pinned and unpinned, and the sliding window.
struct Flavor {
  const char* label;
  const char* algo;
  std::uint64_t num_estimators;
  bool pin_threads;
};

constexpr Flavor kFlavors[] = {
    {"bulk_r64", "bulk", 64, false},
    {"bulk_r1024", "bulk", 1024, false},
    {"parallel_unpinned", "tsb", 1024, false},
    {"parallel_pinned", "tsb", 1024, true},
    {"window", "window", 256, false},
};

EstimatorConfig ConfigFor(const Flavor& flavor) {
  EstimatorConfig config;
  config.num_estimators = flavor.num_estimators;
  config.seed = 20260807;
  config.num_threads = 3;  // tsb: several lane ranges
  config.batch_size = kBatch;
  config.window_size = 900;
  config.pin_threads = flavor.pin_threads;
  return config;
}

std::unique_ptr<StreamingEstimator> Make(const Flavor& flavor) {
  auto est = MakeEstimator(flavor.algo, ConfigFor(flavor));
  EXPECT_TRUE(est.ok()) << est.status();
  return std::move(*est);
}

/// Test-scoped checkpoint path; scrubs all three on-disk generations.
class ScopedCheckpointPath {
 public:
  explicit ScopedCheckpointPath(const std::string& stem)
      : path_(std::string(::testing::TempDir()) + "/" + stem + ".trickpt") {
    Remove();
  }
  ~ScopedCheckpointPath() { Remove(); }

  const std::string& path() const { return path_; }

 private:
  void Remove() const {
    std::remove(path_.c_str());
    std::remove(PreviousGenerationPath(path_).c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

class CheckpointFlavorTest : public ::testing::TestWithParam<Flavor> {
 protected:
  static void SetUpTestSuite() {
    // 3072 = 12 batches of 256: kill points land on batch boundaries.
    el_ = new graph::EdgeList(gen::GnmRandom(200, 3072, 97));
  }
  static void TearDownTestSuite() {
    delete el_;
    el_ = nullptr;
  }

  static graph::EdgeList* el_;
};

graph::EdgeList* CheckpointFlavorTest::el_ = nullptr;

// ------------------------------------------------------- blob round trips

TEST_P(CheckpointFlavorTest, BlobRoundTripAtBatchBoundaryIsBitIdentical) {
  const Flavor flavor = GetParam();
  const std::span<const Edge> edges(el_->edges());
  constexpr std::size_t kCut = 4 * kBatch;

  // Uninterrupted reference, fed in engine-shaped batches.
  auto reference = Make(flavor);
  for (std::size_t off = 0; off < edges.size(); off += kBatch) {
    reference->ProcessEdges(
        edges.subspan(off, std::min(kBatch, edges.size() - off)));
  }
  reference->Flush();
  const Estimates expected = ReadEstimates(*reference);

  // Interrupted run: absorb a prefix, snapshot, restore into a fresh
  // estimator, finish the stream there.
  auto first = Make(flavor);
  for (std::size_t off = 0; off < kCut; off += kBatch) {
    first->ProcessEdges(edges.subspan(off, kBatch));
  }
  auto blob = EncodeCheckpoint(*first, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();

  auto resumed = Make(flavor);
  auto info = DecodeCheckpoint(*blob, *resumed);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->estimator, flavor.algo);
  EXPECT_EQ(info->edges_processed, kCut);
  EXPECT_EQ(info->batch_size, kBatch);
  EXPECT_EQ(resumed->edges_processed(), kCut);

  for (std::size_t off = kCut; off < edges.size(); off += kBatch) {
    resumed->ProcessEdges(
        edges.subspan(off, std::min(kBatch, edges.size() - off)));
  }
  resumed->Flush();
  EXPECT_EQ(ReadEstimates(*resumed), expected) << flavor.label;
}

TEST_P(CheckpointFlavorTest, InspectReportsMetadataWithoutAnEstimator) {
  const Flavor flavor = GetParam();
  auto est = Make(flavor);
  est->ProcessEdges(std::span<const Edge>(el_->edges()).first(kBatch));
  auto blob = EncodeCheckpoint(*est, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();
  auto info = InspectCheckpoint(*blob);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->estimator, flavor.algo);
  EXPECT_EQ(info->fingerprint, est->config_fingerprint());
  EXPECT_EQ(info->edges_processed, est->edges_processed());
}

// Mid-batch cuts exercise the pending-buffer serialization: the snapshot
// must capture buffered edges instead of flushing them (a flush would
// change batch boundaries and perturb the estimate).
TEST(CheckpointBlobTest, BulkRoundTripSurvivesMidBatchCut) {
  const auto el = gen::GnmRandom(150, 2500, 31);
  const std::span<const Edge> edges(el.edges());
  constexpr std::size_t kCut = 1337;  // not a multiple of any batch size
  for (const std::uint64_t r : {64u, 1024u}) {
    Flavor flavor{"bulk", "bulk", r, false};
    auto reference = Make(flavor);
    reference->ProcessEdges(edges);
    reference->Flush();

    auto first = Make(flavor);
    first->ProcessEdges(edges.first(kCut));
    auto blob = EncodeCheckpoint(*first, kBatch);
    ASSERT_TRUE(blob.ok()) << blob.status();

    auto resumed = Make(flavor);
    ASSERT_TRUE(DecodeCheckpoint(*blob, *resumed).ok());
    resumed->ProcessEdges(edges.subspan(kCut));
    resumed->Flush();
    EXPECT_EQ(ReadEstimates(*resumed), ReadEstimates(*reference)) << "r=" << r;
  }
}

TEST(CheckpointBlobTest, WindowRoundTripSurvivesMidStreamCut) {
  const auto el = gen::GnmRandom(150, 2500, 33);
  const std::span<const Edge> edges(el.edges());
  constexpr std::size_t kCut = 777;
  Flavor flavor{"window", "window", 256, false};

  auto reference = Make(flavor);
  reference->ProcessEdges(edges);
  const Estimates expected = ReadEstimates(*reference);

  auto first = Make(flavor);
  first->ProcessEdges(edges.first(kCut));
  auto blob = EncodeCheckpoint(*first, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();
  auto resumed = Make(flavor);
  ASSERT_TRUE(DecodeCheckpoint(*blob, *resumed).ok());
  resumed->ProcessEdges(edges.subspan(kCut));
  EXPECT_EQ(ReadEstimates(*resumed), expected);
}

TEST(CheckpointBlobTest, ThreadedRoundTripSurvivesPartialPendingBatch) {
  // Cut mid-batch on the threaded counter: 1000 = 3 full 256-edge batches
  // plus 232 edges pending at snapshot time, while the third batch may
  // still be in flight on the workers.
  const auto el = gen::GnmRandom(150, 2500, 35);
  const std::span<const Edge> edges(el.edges());
  core::TriangleCounterOptions options;
  options.num_estimators = 512;
  options.num_threads = 3;
  options.seed = 77;
  options.batch_size = kBatch;

  core::TriangleCounter reference(options);
  reference.ProcessEdges(edges);
  reference.Flush();

  core::TriangleCounter first(options);
  first.ProcessEdges(edges.first(1000));
  ByteSink sink;
  first.SaveState(sink);

  core::TriangleCounter resumed(options);
  ByteSource source(sink.data());
  ASSERT_TRUE(resumed.RestoreState(source).ok());
  ASSERT_TRUE(source.exhausted());
  EXPECT_EQ(resumed.edges_processed(), 1000u);
  EXPECT_EQ(resumed.pending_edges(), 232u);
  resumed.ProcessEdges(edges.subspan(1000));
  resumed.Flush();
  EXPECT_EQ(resumed.EstimateTriangles(), reference.EstimateTriangles());
  EXPECT_EQ(resumed.EstimateWedges(), reference.EstimateWedges());
}

// ----------------------------------------------------- SIMD portability

EstimatorConfig SimdConfig(SimdMode simd) {
  EstimatorConfig config;
  config.num_estimators = 2048;
  config.seed = 60806;
  config.batch_size = kBatch;
  config.simd = simd;
  return config;
}

std::unique_ptr<StreamingEstimator> MakeBulkSimd(SimdMode simd) {
  auto est = MakeEstimator("bulk", SimdConfig(simd));
  EXPECT_TRUE(est.ok()) << est.status();
  return std::move(*est);
}

std::vector<SimdMode> RestoreModes() {
  std::vector<SimdMode> modes = {SimdMode::kOff, SimdMode::kAuto};
  if (SimdIsaSupported(SimdIsa::kAvx2)) modes.push_back(SimdMode::kAvx2);
  if (SimdIsaSupported(SimdIsa::kAvx512)) modes.push_back(SimdMode::kAvx512);
  return modes;
}

TEST(CheckpointSimdTest, MidBatchRoundTripWithSimdOnIsBitIdentical) {
  // Cut inside a batch with the vector kernels active: the pending-edge
  // buffer plus the batch counter must round trip so the resumed run
  // replays the exact same Threefry draws.
  const auto el = gen::GnmRandom(150, 3000, 91);
  const std::span<const Edge> edges(el.edges());
  constexpr std::size_t kCut = 1111;  // mid-batch on the 256 grid

  auto reference = MakeBulkSimd(SimdMode::kAuto);
  reference->ProcessEdges(edges);
  reference->Flush();

  auto first = MakeBulkSimd(SimdMode::kAuto);
  first->ProcessEdges(edges.first(kCut));
  auto blob = EncodeCheckpoint(*first, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();

  auto resumed = MakeBulkSimd(SimdMode::kAuto);
  ASSERT_TRUE(DecodeCheckpoint(*blob, *resumed).ok());
  resumed->ProcessEdges(edges.subspan(kCut));
  resumed->Flush();
  EXPECT_EQ(ReadEstimates(*resumed), ReadEstimates(*reference));
}

TEST(CheckpointSimdTest, SnapshotsAreIsaPortable) {
  // --simd is a performance knob, not a configuration: a snapshot taken
  // under the scalar fallback restores under every vector mode this host
  // supports (and vice versa) with bit-identical continuation -- the
  // fingerprint deliberately excludes the mode.
  const auto el = gen::GnmRandom(150, 3000, 93);
  const std::span<const Edge> edges(el.edges());
  constexpr std::size_t kCut = 5 * kBatch;

  auto reference = MakeBulkSimd(SimdMode::kOff);
  reference->ProcessEdges(edges);
  reference->Flush();
  const Estimates expected = ReadEstimates(*reference);

  auto saver = MakeBulkSimd(SimdMode::kOff);
  saver->ProcessEdges(edges.first(kCut));
  auto blob = EncodeCheckpoint(*saver, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();

  for (const SimdMode mode : RestoreModes()) {
    auto resumed = MakeBulkSimd(mode);
    EXPECT_EQ(resumed->config_fingerprint(), saver->config_fingerprint())
        << SimdModeName(mode);
    auto info = DecodeCheckpoint(*blob, *resumed);
    ASSERT_TRUE(info.ok()) << SimdModeName(mode) << ": " << info.status();
    resumed->ProcessEdges(edges.subspan(kCut));
    resumed->Flush();
    EXPECT_EQ(ReadEstimates(*resumed), expected) << SimdModeName(mode);

    // And the reverse direction: a vector-mode snapshot restores under
    // the scalar fallback.
    auto vec_saver = MakeBulkSimd(mode);
    vec_saver->ProcessEdges(edges.first(kCut));
    auto vec_blob = EncodeCheckpoint(*vec_saver, kBatch);
    ASSERT_TRUE(vec_blob.ok()) << vec_blob.status();
    auto scalar_resumed = MakeBulkSimd(SimdMode::kOff);
    ASSERT_TRUE(DecodeCheckpoint(*vec_blob, *scalar_resumed).ok())
        << SimdModeName(mode);
    scalar_resumed->ProcessEdges(edges.subspan(kCut));
    scalar_resumed->Flush();
    EXPECT_EQ(ReadEstimates(*scalar_resumed), expected) << SimdModeName(mode);
  }
}

TEST(CheckpointSimdTest, NextFormatVersionIsRejectedByName) {
  // A checkpoint from a hypothetical v-next build must be refused with a
  // version diagnostic (InvalidArgument, not CorruptData: the container
  // is intact, this build is just too old for it).
  auto est = MakeBulkSimd(SimdMode::kAuto);
  const auto el = gen::GnmRandom(100, 1024, 95);
  est->ProcessEdges(std::span<const Edge>(el.edges()));
  auto blob = EncodeCheckpoint(*est, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();

  std::string mutated = *blob;
  mutated[8] = static_cast<char>(kFormatVersion + 1);  // little-endian U32
  const Status s = InspectCheckpoint(mutated).status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  EXPECT_NE(s.message().find("version"), std::string::npos) << s;

  auto fresh = MakeBulkSimd(SimdMode::kAuto);
  const Status d = DecodeCheckpoint(mutated, *fresh).status();
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(fresh->edges_processed(), 0u) << "half-restored estimator";
}

// --------------------------------------------------- engine checkpointing

TEST_P(CheckpointFlavorTest, EngineCheckpointingNeverPerturbsEstimates) {
  const Flavor flavor = GetParam();
  ScopedCheckpointPath ckpt(std::string("perturb_") + flavor.label);

  auto plain = Make(flavor);
  stream::MemoryEdgeStream plain_source(*el_);
  StreamEngineOptions plain_options;
  plain_options.batch_size = kBatch;
  StreamEngine plain_engine(plain_options);
  ASSERT_TRUE(plain_engine.Run(*plain, plain_source).ok());

  auto snapshotted = Make(flavor);
  stream::MemoryEdgeStream source(*el_);
  StreamEngineOptions options;
  options.batch_size = kBatch;
  options.checkpoint_path = ckpt.path();
  options.checkpoint_every_edges = 700;
  StreamEngine eng(options);
  ASSERT_TRUE(eng.Run(*snapshotted, source).ok());

  EXPECT_EQ(ReadEstimates(*snapshotted), ReadEstimates(*plain))
      << flavor.label;
  EXPECT_GT(eng.metrics().checkpoints, 0u);
  EXPECT_TRUE(FileExists(ckpt.path()));
}

TEST_P(CheckpointFlavorTest, KillAndResumeIsBitIdenticalAtEveryKillPoint) {
  const Flavor flavor = GetParam();

  // Uninterrupted reference run.
  auto reference = Make(flavor);
  stream::MemoryEdgeStream ref_source(*el_);
  StreamEngineOptions ref_options;
  ref_options.batch_size = kBatch;
  StreamEngine ref_engine(ref_options);
  ASSERT_TRUE(ref_engine.Run(*reference, ref_source).ok());
  const Estimates expected = ReadEstimates(*reference);

  // A "kill" after k batches is simulated by running the engine over only
  // the first k*w edges: the snapshot file left behind is exactly what a
  // SIGKILL after that batch would leave (the post-run Flush touches only
  // the in-memory estimator, never the file).
  for (const std::size_t kill_batches : {2u, 5u, 9u}) {
    const std::size_t kill_edges = kill_batches * kBatch;
    ScopedCheckpointPath ckpt(std::string("kill_") + flavor.label + "_" +
                              std::to_string(kill_batches));
    graph::EdgeList prefix(std::vector<Edge>(
        el_->edges().begin(),
        el_->edges().begin() + static_cast<std::ptrdiff_t>(kill_edges)));
    auto victim = Make(flavor);
    stream::MemoryEdgeStream prefix_source(prefix);
    StreamEngineOptions victim_options;
    victim_options.batch_size = kBatch;
    victim_options.checkpoint_path = ckpt.path();
    victim_options.checkpoint_every_edges = 300;
    StreamEngine victim_engine(victim_options);
    ASSERT_TRUE(victim_engine.Run(*victim, prefix_source).ok());
    ASSERT_GT(victim_engine.metrics().checkpoints, 0u);

    // Resume: fresh estimator, restore the latest snapshot, seek the full
    // stream to the recorded position, run the tail.
    auto resumed = Make(flavor);
    auto info = LoadCheckpoint(ckpt.path(), *resumed);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_LE(info->edges_processed, kill_edges);
    EXPECT_GT(info->edges_processed, 0u);
    EXPECT_EQ(info->edges_processed % kBatch, 0u)
        << "engine snapshots must land on batch boundaries";

    stream::MemoryEdgeStream full_source(*el_);
    ASSERT_TRUE(SkipToCheckpoint(full_source, *info).ok());
    EXPECT_EQ(full_source.edges_delivered(), info->edges_processed);

    StreamEngineOptions resume_options;
    resume_options.batch_size = static_cast<std::size_t>(info->batch_size);
    StreamEngine resume_engine(resume_options);
    ASSERT_TRUE(resume_engine.Run(*resumed, full_source).ok());
    EXPECT_EQ(ReadEstimates(*resumed), expected)
        << flavor.label << " killed after " << kill_edges << " edges";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCheckpointable, CheckpointFlavorTest,
                         ::testing::ValuesIn(kFlavors),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

TEST(CheckpointResumeTest, DedupSourceReplaysFilterStateOnResume) {
  // The CLI's default source is dedup-filtered; resume must rebuild the
  // filter by replaying the raw stream, or post-resume admission decisions
  // would differ. Every edge is duplicated, so half the raw stream is
  // filter hits.
  const auto base = gen::GnmRandom(120, 1200, 41);
  std::vector<Edge> noisy;
  for (const Edge& e : base.edges()) {
    noisy.push_back(e);
    noisy.push_back(e);  // duplicate: rejected by the filter
  }
  const graph::EdgeList raw(noisy);

  EstimatorConfig config;
  config.num_estimators = 256;
  config.seed = 5;
  config.batch_size = kBatch;

  auto MakeBulk = [&config]() {
    auto est = MakeEstimator("bulk", config);
    EXPECT_TRUE(est.ok()) << est.status();
    return std::move(*est);
  };
  auto MakeDedup = [](const graph::EdgeList& el) {
    return stream::DedupEdgeStream(
        std::make_unique<stream::MemoryEdgeStream>(el), el.size());
  };

  auto reference = MakeBulk();
  auto ref_source = MakeDedup(raw);
  StreamEngineOptions options;
  options.batch_size = kBatch;
  StreamEngine ref_engine(options);
  ASSERT_TRUE(ref_engine.Run(*reference, ref_source).ok());
  const Estimates expected = ReadEstimates(*reference);

  // Interrupted run over a raw-stream prefix that is a whole number of
  // engine pulls (the dedup source pulls kBatch raw edges per batch).
  constexpr std::size_t kRawPrefix = 6 * kBatch;
  const graph::EdgeList prefix(std::vector<Edge>(
      raw.edges().begin(), raw.edges().begin() + kRawPrefix));
  ScopedCheckpointPath ckpt("dedup_resume");
  auto victim = MakeBulk();
  auto victim_source = MakeDedup(prefix);
  StreamEngineOptions victim_options;
  victim_options.batch_size = kBatch;
  victim_options.checkpoint_path = ckpt.path();
  victim_options.checkpoint_every_edges = 200;  // post-filter edges
  StreamEngine victim_engine(victim_options);
  ASSERT_TRUE(victim_engine.Run(*victim, victim_source).ok());
  ASSERT_GT(victim_engine.metrics().checkpoints, 0u);

  auto resumed = MakeBulk();
  auto info = LoadCheckpoint(ckpt.path(), *resumed);
  ASSERT_TRUE(info.ok()) << info.status();
  auto resume_source = MakeDedup(raw);
  ASSERT_TRUE(SkipToCheckpoint(resume_source, *info).ok());
  EXPECT_EQ(resume_source.edges_delivered(), info->edges_processed);
  StreamEngineOptions resume_options;
  resume_options.batch_size = static_cast<std::size_t>(info->batch_size);
  StreamEngine resume_engine(resume_options);
  ASSERT_TRUE(resume_engine.Run(*resumed, resume_source).ok());
  EXPECT_EQ(ReadEstimates(*resumed), expected);
}

// ------------------------------------------------------ atomicity on disk

TEST(CheckpointFileTest, GenerationsRotateAndFallBack) {
  const auto el = gen::GnmRandom(100, 1024, 51);
  const std::span<const Edge> edges(el.edges());
  Flavor flavor{"bulk", "bulk", 128, false};
  ScopedCheckpointPath ckpt("rotate");

  auto est = Make(flavor);
  est->ProcessEdges(edges.first(512));
  ASSERT_TRUE(SaveCheckpoint(ckpt.path(), *est, kBatch).ok());
  EXPECT_TRUE(FileExists(ckpt.path()));
  EXPECT_FALSE(FileExists(PreviousGenerationPath(ckpt.path())));
  EXPECT_FALSE(FileExists(ckpt.path() + ".tmp")) << "temp file left behind";

  est->ProcessEdges(edges.subspan(512));
  ASSERT_TRUE(SaveCheckpoint(ckpt.path(), *est, kBatch).ok());
  EXPECT_TRUE(FileExists(PreviousGenerationPath(ckpt.path())));
  EXPECT_FALSE(FileExists(ckpt.path() + ".tmp"));

  // Primary is the newest generation, .prev the one before it.
  auto newest = Make(flavor);
  auto newest_info = LoadCheckpoint(ckpt.path(), *newest);
  ASSERT_TRUE(newest_info.ok()) << newest_info.status();
  EXPECT_EQ(newest_info->edges_processed, 1024u);

  // Torn primary (as a crash mid-write would leave after losing the
  // rename race): fall back to .prev, which restores position 512.
  const std::string prev_blob = ReadFile(PreviousGenerationPath(ckpt.path()));
  WriteFile(ckpt.path(), "TRICKPT\0garbage-torn-write");
  auto fallback = Make(flavor);
  auto fallback_info = LoadCheckpoint(ckpt.path(), *fallback);
  ASSERT_TRUE(fallback_info.ok()) << fallback_info.status();
  EXPECT_EQ(fallback_info->edges_processed, 512u);

  // Missing primary entirely: same fallback.
  std::remove(ckpt.path().c_str());
  auto fallback2 = Make(flavor);
  auto fallback2_info = LoadCheckpoint(ckpt.path(), *fallback2);
  ASSERT_TRUE(fallback2_info.ok()) << fallback2_info.status();
  EXPECT_EQ(fallback2_info->edges_processed, 512u);
  EXPECT_EQ(ReadFile(PreviousGenerationPath(ckpt.path())), prev_blob);
}

TEST(CheckpointFileTest, MissingBothGenerationsIsUnavailable) {
  ScopedCheckpointPath ckpt("missing");
  Flavor flavor{"bulk", "bulk", 64, false};
  auto est = Make(flavor);
  auto info = LoadCheckpoint(ckpt.path(), *est);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kUnavailable)
      << info.status();
}

TEST(CheckpointFileTest, CorruptPrimaryWithoutFallbackKeepsTheRealError) {
  // A corrupt primary and a missing .prev must surface the corruption (the
  // informative failure), not "unavailable" -- and must leave the
  // estimator Reset, not half-restored.
  ScopedCheckpointPath ckpt("corrupt_only");
  WriteFile(ckpt.path(), "not a checkpoint at all");
  Flavor flavor{"bulk", "bulk", 64, false};
  auto est = Make(flavor);
  auto info = LoadCheckpoint(ckpt.path(), *est);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kCorruptData) << info.status();
  EXPECT_EQ(est->edges_processed(), 0u);
}

// ------------------------------------------------------- corruption sweep

std::string SmallBlob() {
  // Small r keeps the blob a few hundred bytes, so exhaustive per-bit
  // mutation stays cheap.
  const auto el = gen::GnmRandom(60, 600, 61);
  Flavor flavor{"bulk", "bulk", 8, false};
  auto est = Make(flavor);
  est->ProcessEdges(std::span<const Edge>(el.edges()));
  auto blob = EncodeCheckpoint(*est, kBatch);
  EXPECT_TRUE(blob.ok()) << blob.status();
  return *blob;
}

/// A mutated blob must die in validation: either InspectCheckpoint rejects
/// the container, or DecodeCheckpoint rejects it against a fresh estimator.
/// Returns the terminal status (never OK for a real corruption).
Status ValidateMutation(const std::string& blob) {
  auto inspected = InspectCheckpoint(blob);
  if (!inspected.ok()) return inspected.status();
  Flavor flavor{"bulk", "bulk", 8, false};
  auto est = Make(flavor);
  auto decoded = DecodeCheckpoint(blob, *est);
  return decoded.status();
}

TEST(CheckpointCorruptionTest, TruncationAtEveryLengthIsRejected) {
  const std::string blob = SmallBlob();
  ASSERT_GT(blob.size(), 100u);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const Status s = ValidateMutation(blob.substr(0, len));
    ASSERT_FALSE(s.ok()) << "truncation to " << len << " bytes accepted";
    ASSERT_EQ(s.code(), StatusCode::kCorruptData)
        << "truncation to " << len << " bytes: " << s;
  }
}

TEST(CheckpointCorruptionTest, EverySingleBitFlipIsRejected) {
  const std::string blob = SmallBlob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = blob;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      const Status s = ValidateMutation(mutated);
      ASSERT_FALSE(s.ok()) << "flip of byte " << i << " bit " << bit
                           << " accepted";
      ASSERT_TRUE(s.code() == StatusCode::kCorruptData ||
                  s.code() == StatusCode::kInvalidArgument)
          << "byte " << i << " bit " << bit << ": " << s;
    }
  }
}

TEST(CheckpointCorruptionTest, SampledBitFlipsOnLargeBlobAreRejected) {
  // r = 4096 pushes the state section past 150 KB; sample flips across it.
  const auto el = gen::GnmRandom(300, 6000, 63);
  Flavor flavor{"bulk", "bulk", 4096, false};
  auto est = Make(flavor);
  est->ProcessEdges(std::span<const Edge>(el.edges()));
  auto blob = EncodeCheckpoint(*est, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();
  ASSERT_GT(blob->size(), 100000u);
  for (std::size_t i = 0; i < blob->size(); i += 97) {
    std::string mutated = *blob;
    const int bit = static_cast<int>((i / 97) % 8);
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
    auto inspected = InspectCheckpoint(mutated);
    if (inspected.ok()) {
      auto fresh = Make(flavor);
      auto decoded = DecodeCheckpoint(mutated, *fresh);
      ASSERT_FALSE(decoded.ok()) << "flip of byte " << i << " accepted";
    } else {
      ASSERT_TRUE(inspected.status().code() == StatusCode::kCorruptData ||
                  inspected.status().code() == StatusCode::kInvalidArgument)
          << "byte " << i << ": " << inspected.status();
    }
  }
}

TEST(CheckpointCorruptionTest, DiagnosticsNameTheFailingPiece) {
  const std::string blob = SmallBlob();

  {  // Bad magic.
    std::string mutated = blob;
    mutated[0] = 'X';
    const Status s = InspectCheckpoint(mutated).status();
    EXPECT_EQ(s.code(), StatusCode::kCorruptData);
    EXPECT_NE(s.message().find("magic"), std::string::npos) << s;
  }
  {  // Future format version.
    std::string mutated = blob;
    mutated[8] = 99;
    const Status s = InspectCheckpoint(mutated).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("version"), std::string::npos) << s;
  }
  {  // Corrupted meta payload: the diagnostic names the section.
    std::string mutated = blob;
    mutated[16 + 4 + 8 + 2] ^= 0x40;  // inside the meta section payload
    const Status s = InspectCheckpoint(mutated).status();
    EXPECT_EQ(s.code(), StatusCode::kCorruptData);
    EXPECT_NE(s.message().find("'meta'"), std::string::npos) << s;
  }
  {  // Trailing garbage after the last section.
    const Status s = InspectCheckpoint(blob + "extra").status();
    EXPECT_EQ(s.code(), StatusCode::kCorruptData);
    EXPECT_NE(s.message().find("trailing"), std::string::npos) << s;
  }
  {  // Wrong estimator type.
    Flavor window{"window", "window", 8, false};
    auto est = Make(window);
    const Status s = DecodeCheckpoint(blob, *est).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("bulk"), std::string::npos) << s;
    EXPECT_NE(s.message().find("window"), std::string::npos) << s;
  }
  {  // Same estimator, different configuration.
    EstimatorConfig other;
    other.num_estimators = 8;
    other.seed = 999;  // differs from SmallBlob's run
    other.batch_size = kBatch;
    auto est = MakeEstimator("bulk", other);
    ASSERT_TRUE(est.ok());
    const Status s = DecodeCheckpoint(blob, **est).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("fingerprint"), std::string::npos) << s;
  }
}

// -------------------------------------------------- capability + contract

TEST(CheckpointContractTest, BaselinesAreNotCheckpointable) {
  EstimatorConfig config;
  config.num_estimators = 64;
  config.num_vertices = 100;
  config.max_degree_bound = 50;
  for (const char* algo : {"buriol", "colorful", "jg", "first-edge"}) {
    auto est = MakeEstimator(algo, config);
    ASSERT_TRUE(est.ok()) << est.status();
    EXPECT_FALSE((*est)->checkpointable()) << algo;
    auto blob = EncodeCheckpoint(**est, kBatch);
    ASSERT_FALSE(blob.ok()) << algo;
    EXPECT_EQ(blob.status().code(), StatusCode::kFailedPrecondition) << algo;
  }
}

TEST(CheckpointContractTest, EngineRejectsCheckpointMisconfiguration) {
  const auto el = gen::GnmRandom(80, 500, 71);
  EstimatorConfig config;
  config.num_estimators = 64;
  config.num_vertices = 100;
  ScopedCheckpointPath ckpt("misconfig");

  {  // Baseline estimator + checkpointing: FailedPrecondition.
    auto est = MakeEstimator("buriol", config);
    ASSERT_TRUE(est.ok());
    stream::MemoryEdgeStream source(el);
    StreamEngineOptions options;
    options.checkpoint_path = ckpt.path();
    options.checkpoint_every_edges = 100;
    StreamEngine eng(options);
    const Status s = eng.Run(**est, source);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  }
  {  // checkpoint_path without a cadence: InvalidArgument.
    auto est = MakeEstimator("bulk", config);
    ASSERT_TRUE(est.ok());
    stream::MemoryEdgeStream source(el);
    StreamEngineOptions options;
    options.checkpoint_path = ckpt.path();
    StreamEngine eng(options);
    EXPECT_EQ(eng.Run(**est, source).code(), StatusCode::kInvalidArgument);
  }
}

TEST(CheckpointContractTest, SkipToCheckpointRejectsBadPositions) {
  const auto el = gen::GnmRandom(80, 1000, 73);

  {  // No recorded batch size.
    stream::MemoryEdgeStream source(el);
    CheckpointInfo info;
    info.edges_processed = 500;
    info.batch_size = 0;
    EXPECT_EQ(SkipToCheckpoint(source, info).code(),
              StatusCode::kInvalidArgument);
  }
  {  // Position beyond the stream: wrong (shorter) input.
    stream::MemoryEdgeStream source(el);
    CheckpointInfo info;
    info.edges_processed = 5000;
    info.batch_size = kBatch;
    const Status s = SkipToCheckpoint(source, info);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("ended after"), std::string::npos) << s;
  }
  {  // Position off this source's batch grid: overshoot is an error, not a
     // silent misalignment.
    stream::MemoryEdgeStream source(el);
    CheckpointInfo info;
    info.edges_processed = 300;  // not a multiple of 256
    info.batch_size = kBatch;
    const Status s = SkipToCheckpoint(source, info);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("batch boundary"), std::string::npos) << s;
  }
  {  // Zero position: no seek, immediately OK.
    stream::MemoryEdgeStream source(el);
    CheckpointInfo info;
    info.edges_processed = 0;
    info.batch_size = kBatch;
    EXPECT_TRUE(SkipToCheckpoint(source, info).ok());
    EXPECT_EQ(source.edges_delivered(), 0u);
  }
}

TEST(CheckpointContractTest, TsbSnapshotsRestoreAtAnyThreadCount) {
  // The thread count is outside the fingerprint and the state: a tsb
  // snapshot taken on 3 workers with a partly filled pending batch
  // resumes on 1 or 2 workers and finishes bit-identical to the
  // uninterrupted 3-worker run.
  const auto el = gen::GnmRandom(100, 1500, 75);
  const std::span<const Edge> edges(el.edges());
  constexpr std::size_t kCut = 900;  // 3 batches + 132 pending edges
  EstimatorConfig config;
  config.num_estimators = 512;
  config.seed = 7;
  config.batch_size = kBatch;
  auto make = [&config](std::uint32_t threads) {
    config.num_threads = threads;
    auto est = MakeEstimator("tsb", config);
    EXPECT_TRUE(est.ok()) << est.status();
    return std::move(*est);
  };

  auto reference = make(3);
  reference->ProcessEdges(edges);
  const Estimates expected = ReadEstimates(*reference);

  auto first = make(3);
  first->ProcessEdges(edges.first(kCut));
  ASSERT_FALSE(first->estimates_nonperturbing());  // a batch is pending
  auto blob = EncodeCheckpoint(*first, kBatch);
  ASSERT_TRUE(blob.ok()) << blob.status();
  for (const std::uint32_t threads : {1u, 2u}) {
    auto resumed = make(threads);
    EXPECT_EQ(resumed->config_fingerprint(), first->config_fingerprint());
    const auto info = DecodeCheckpoint(*blob, *resumed);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(resumed->edges_processed(), kCut);
    resumed->ProcessEdges(edges.subspan(kCut));
    EXPECT_EQ(ReadEstimates(*resumed), expected) << threads << " threads";
  }
}

TEST(CheckpointContractTest, RestoreStateRejectsUndefinedFlagBits) {
  // Bit 0 (wedge closed) is the only per-estimator flag a snapshot holds.
  const auto el = gen::GnmRandom(100, 1024, 76);
  core::TriangleCounterOptions options;
  options.num_estimators = 64;
  options.seed = 7;
  options.batch_size = kBatch;
  core::TriangleCounter saved(options);
  saved.ProcessEdges(std::span<const Edge>(el.edges()));
  ByteSink sink;
  saved.SaveState(sink);
  // Header: applied edges, batch number, estimator count (3 x u64); then
  // 41 bytes per estimator, the flag byte last.
  std::string blob = sink.data();
  constexpr std::size_t kFirstFlag = 3 * 8 + 40;
  ASSERT_LE(static_cast<unsigned char>(blob[kFirstFlag]), 1);
  blob[kFirstFlag] = static_cast<char>(blob[kFirstFlag] | 2);
  core::TriangleCounter other(options);
  ByteSource source(blob);
  const Status s = other.RestoreState(source);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruptData) << s;
  EXPECT_NE(s.message().find("flag bits"), std::string::npos) << s;
}

}  // namespace
}  // namespace ckpt
}  // namespace tristream
