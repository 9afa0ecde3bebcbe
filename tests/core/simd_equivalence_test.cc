// Scalar-vs-SIMD equivalence for the estimator hot path. Two layers:
//
//   * Kernel bit-identity: the fused lane sweep (Threefry draws, level-1
//     pick, Bloom candidacy, compacted draw2) run through every ISA the
//     host supports must produce byte-identical output arrays — filtered
//     and filterless, aligned and ragged lane counts. This is the
//     substrate contract that makes `--simd` a pure performance knob.
//   * Counter bit-identity: full TriangleCounter runs under every
//     supported SimdMode end in identical per-estimator states, not just
//     identical aggregate estimates.
//
// Plus the statistical half: across independent seeds, estimates from the
// vectorized path track the exact triangle count within CLT tolerance —
// guarding against a hypothetical "bit-identical but biased" regression
// in the shared draw logic itself.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/estimator_kernels.h"
#include "core/triangle_counter.h"
#include "gen/erdos_renyi.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/types.h"

namespace tristream {
namespace core {
namespace {

std::vector<SimdIsa> SupportedIsas() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (SimdIsaSupported(SimdIsa::kAvx2)) isas.push_back(SimdIsa::kAvx2);
  if (SimdIsaSupported(SimdIsa::kAvx512)) isas.push_back(SimdIsa::kAvx512);
  return isas;
}

std::vector<SimdMode> SupportedModes() {
  std::vector<SimdMode> modes = {SimdMode::kOff, SimdMode::kAuto};
  if (SimdIsaSupported(SimdIsa::kAvx2)) modes.push_back(SimdMode::kAvx2);
  if (SimdIsaSupported(SimdIsa::kAvx512)) modes.push_back(SimdMode::kAvx512);
  return modes;
}

// ------------------------------------------------------ kernel bit-identity

struct SweepOutput {
  kernels::SweepCounts counts;
  std::vector<std::uint32_t> replacers;
  std::vector<std::uint32_t> batch_idx;
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint64_t> draw2;
};

/// Runs one ISA's lane sweep over fresh output buffers. Buffers are
/// poison-filled first so an ISA that writes fewer (or different) slots
/// cannot accidentally compare equal.
SweepOutput RunSweep(SimdIsa isa, kernels::SweepArgs args) {
  SweepOutput out;
  out.replacers.assign(args.lanes, 0xdeadbeefu);
  out.batch_idx.assign(args.lanes, 0xdeadbeefu);
  out.candidates.assign(args.lanes, 0xdeadbeefu);
  out.draw2.assign(args.lanes, 0xdeadbeefdeadbeefull);
  args.replacers = out.replacers.data();
  args.batch_idx = out.batch_idx.data();
  args.candidates = out.candidates.data();
  args.draw2 = out.draw2.data();
  out.counts = kernels::TableFor(isa).lane_sweep(args);
  return out;
}

void ExpectSweepIdentical(const SweepOutput& ref, const SweepOutput& got,
                          SimdIsa isa, std::uint64_t lanes) {
  ASSERT_EQ(ref.counts.replacers, got.counts.replacers)
      << SimdIsaName(isa) << " lanes=" << lanes;
  ASSERT_EQ(ref.counts.candidates, got.counts.candidates)
      << SimdIsaName(isa) << " lanes=" << lanes;
  for (std::size_t k = 0; k < ref.counts.replacers; ++k) {
    ASSERT_EQ(ref.replacers[k], got.replacers[k])
        << SimdIsaName(isa) << " replacer " << k;
    ASSERT_EQ(ref.batch_idx[k], got.batch_idx[k])
        << SimdIsaName(isa) << " batch_idx " << k;
  }
  for (std::size_t k = 0; k < ref.counts.candidates; ++k) {
    ASSERT_EQ(ref.candidates[k], got.candidates[k])
        << SimdIsaName(isa) << " candidate " << k;
    ASSERT_EQ(ref.draw2[k], got.draw2[k])
        << SimdIsaName(isa) << " draw2 " << k;
  }
}

TEST(KernelEquivalenceTest, LaneSweepBitIdenticalAcrossIsas) {
  // Lane counts straddle every vector-width boundary: below one AVX2
  // group, below one AVX-512 pair-of-chains group (16), exact multiples,
  // and ragged tails of every residue.
  const std::vector<SimdIsa> isas = SupportedIsas();
  Rng rng(0xab5eed);
  for (const std::uint64_t lanes :
       {1ull, 3ull, 4ull, 7ull, 8ull, 15ull, 16ull, 17ull, 31ull, 64ull,
        100ull, 1000ull, 4096ull}) {
    // Level-1 endpoints: small vertex ids so Bloom hits and misses mix.
    std::vector<std::uint64_t> r1_uv(lanes);
    for (auto& uv : r1_uv) {
      const std::uint64_t u = rng.UniformBelow(512);
      const std::uint64_t v = rng.UniformBelow(512);
      uv = (v << 32) | u;
    }
    // A Bloom filter with a random half of the bits set.
    constexpr int kLog2Bits = 10;
    std::vector<std::uint64_t> bloom((1u << kLog2Bits) / 64);
    for (auto& word : bloom) word = rng.Next();

    kernels::SweepArgs args{};
    args.seed = 0x5eed0000 + lanes;
    args.batch_no = 17;
    args.m_before = 100000;
    args.w = 512;
    args.lanes = lanes;
    args.bloom = bloom.data();
    args.log2_bits = kLog2Bits;
    args.r1_uv = r1_uv.data();

    const SweepOutput ref = RunSweep(SimdIsa::kScalar, args);
    for (const SimdIsa isa : isas) {
      ExpectSweepIdentical(ref, RunSweep(isa, args), isa, lanes);
    }
    // Filterless mode: every lane becomes a candidate.
    args.bloom = nullptr;
    const SweepOutput ref_nf = RunSweep(SimdIsa::kScalar, args);
    ASSERT_EQ(ref_nf.counts.candidates, lanes);
    for (const SimdIsa isa : isas) {
      ExpectSweepIdentical(ref_nf, RunSweep(isa, args), isa, lanes);
    }
  }
}

TEST(KernelEquivalenceTest, LaneSweepMatchesScalarCounterRng) {
  // The kernels re-implement Threefry in vector registers; tie them back
  // to the reference CounterRng::Draw, lane by lane, in batch 0 (where
  // m_before = 0 forces every lane to replace, exposing every pick).
  const std::uint64_t lanes = 257;  // ragged for all widths
  kernels::SweepArgs args{};
  args.seed = 99;
  args.batch_no = 0;
  args.m_before = 0;
  args.w = 64;
  args.lanes = lanes;
  args.bloom = nullptr;
  args.log2_bits = 6;
  args.r1_uv = nullptr;  // unused: every lane replaces in batch 0
  for (const SimdIsa isa : SupportedIsas()) {
    const SweepOutput out = RunSweep(isa, args);
    ASSERT_EQ(out.counts.replacers, lanes) << SimdIsaName(isa);
    for (std::uint64_t lane = 0; lane < lanes; ++lane) {
      const CounterRng::Block block = CounterRng::Draw(99, lane, 0);
      EXPECT_EQ(out.batch_idx[lane], MulHi64(block.x0, 64))
          << SimdIsaName(isa) << " lane " << lane;
      EXPECT_EQ(out.draw2[lane], block.x1)
          << SimdIsaName(isa) << " lane " << lane;
    }
  }
  // A lane range draws the streams of its global lane ids, which is what
  // lets worker threads sweep disjoint ranges of one estimator array.
  args.lane_base = 1000;
  for (const SimdIsa isa : SupportedIsas()) {
    const SweepOutput out = RunSweep(isa, args);
    ASSERT_EQ(out.counts.replacers, lanes) << SimdIsaName(isa);
    for (std::uint64_t lane = 0; lane < lanes; ++lane) {
      const CounterRng::Block block = CounterRng::Draw(99, 1000 + lane, 0);
      EXPECT_EQ(out.replacers[lane], lane) << SimdIsaName(isa);
      EXPECT_EQ(out.batch_idx[lane], MulHi64(block.x0, 64))
          << SimdIsaName(isa) << " lane " << lane;
      EXPECT_EQ(out.draw2[lane], block.x1)
          << SimdIsaName(isa) << " lane " << lane;
    }
  }
}

// ----------------------------------------------------- counter bit-identity

TriangleCounterOptions Options(std::uint64_t r, std::uint64_t seed,
                               std::size_t batch, SimdMode simd) {
  TriangleCounterOptions opt;
  opt.num_estimators = r;
  opt.seed = seed;
  opt.batch_size = batch;
  opt.simd = simd;
  return opt;
}

void ExpectStatesIdentical(TriangleCounter& a, TriangleCounter& b,
                           SimdMode mode) {
  ASSERT_EQ(a.estimators().size(), b.estimators().size());
  for (std::size_t i = 0; i < a.estimators().size(); ++i) {
    const EstimatorState& sa = a.estimators()[i];
    const EstimatorState& sb = b.estimators()[i];
    ASSERT_EQ(sa.r1, sb.r1) << SimdModeName(mode) << " estimator " << i;
    ASSERT_EQ(sa.r1_pos, sb.r1_pos) << SimdModeName(mode) << " est " << i;
    ASSERT_EQ(sa.r2, sb.r2) << SimdModeName(mode) << " estimator " << i;
    ASSERT_EQ(sa.r2_pos, sb.r2_pos) << SimdModeName(mode) << " est " << i;
    ASSERT_EQ(sa.c, sb.c) << SimdModeName(mode) << " estimator " << i;
    ASSERT_EQ(sa.has_triangle, sb.has_triangle)
        << SimdModeName(mode) << " estimator " << i;
  }
  EXPECT_EQ(a.EstimateTriangles(), b.EstimateTriangles());
  EXPECT_EQ(a.EstimateWedges(), b.EstimateWedges());
}

TEST(SimdEquivalenceTest, FullRunBitIdenticalAcrossAllSupportedModes) {
  // Batch sizes on both sides of the filterless cutover (w * 8 <= r with
  // r = 2048 flips between w = 64 and w = 1024), so both sweep modes are
  // exercised through the full pipeline.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(80, 2000, 77), 19);
  for (const std::size_t batch : {64u, 256u, 1024u}) {
    TriangleCounter reference(Options(2048, 4242, batch, SimdMode::kOff));
    reference.ProcessEdges(stream.edges());
    for (const SimdMode mode : SupportedModes()) {
      TriangleCounter counter(Options(2048, 4242, batch, mode));
      counter.ProcessEdges(stream.edges());
      ExpectStatesIdentical(reference, counter, mode);
    }
  }
}

TEST(SimdEquivalenceTest, IncrementalFeedBitIdenticalAcrossModes) {
  // Ragged ProcessEdges chunks must not perturb identity: batch
  // boundaries are driven by batch_size, not call shape, so a
  // chunked feed replays the exact same sweeps as one big span.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 1200, 79), 23);
  const std::span<const Edge> edges(stream.edges());
  TriangleCounter reference(Options(1024, 11, 128, SimdMode::kOff));
  reference.ProcessEdges(edges);
  for (const SimdMode mode : SupportedModes()) {
    TriangleCounter counter(Options(1024, 11, 128, mode));
    std::size_t off = 0;
    std::size_t chunk = 1;
    while (off < edges.size()) {
      const std::size_t n = std::min(chunk, edges.size() - off);
      counter.ProcessEdges(edges.subspan(off, n));
      off += n;
      chunk = chunk * 3 + 1;  // 1, 4, 13, 40, ... ragged on purpose
    }
    ExpectStatesIdentical(reference, counter, mode);
  }
}

// --------------------------------------------------- statistical soundness

TEST(SimdEquivalenceTest, EstimatesTrackExactCountAcrossSeeds) {
  // r = 20000 estimators on a graph with tau ~ few hundred: the estimator
  // is unbiased (Theorem 2.1) and each seed's estimate should land within
  // a generous CLT band; the seed-averaged estimate within a tighter one.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(70, 900, 83), 29);
  const auto csr = graph::Csr::FromEdgeList(stream);
  const double tau = static_cast<double>(graph::CountTriangles(csr));
  ASSERT_GT(tau, 50.0);

  constexpr std::uint64_t kSeeds = 6;
  double sum = 0.0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    TriangleCounter scalar(Options(20000, seed * 131 + 7, 256,
                                   SimdMode::kOff));
    TriangleCounter vec(Options(20000, seed * 131 + 7, 256, SimdMode::kAuto));
    scalar.ProcessEdges(stream.edges());
    vec.ProcessEdges(stream.edges());
    // Same seed, different ISA: identical, not merely close.
    ASSERT_EQ(scalar.EstimateTriangles(), vec.EstimateTriangles())
        << "seed " << seed;
    EXPECT_NEAR(vec.EstimateTriangles(), tau, 0.30 * tau) << "seed " << seed;
    sum += vec.EstimateTriangles();
  }
  EXPECT_NEAR(sum / kSeeds, tau, 0.12 * tau);
}

}  // namespace
}  // namespace core
}  // namespace tristream
