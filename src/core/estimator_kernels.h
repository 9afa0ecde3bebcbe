// Per-ISA kernels for the fused lane sweep in TriangleCounter's batch
// pipeline (see src/core/README.md for the full pipeline and determinism
// contract). One pass over all r estimator lanes does, per lane:
//
//   1. Draw the lane's Threefry block for this batch (streams are keyed
//      (seed, global lane id) at counter batch_no, so lanes are
//      independent and any SIMD width or lane range computes the same
//      bits).
//   2. Decide the level-1 reservoir replacement from word 0:
//      pick = mulhi(x0, m+w); replace iff pick >= m, chosen batch offset
//      pick - m. Replacing lanes are emitted (ascending) for the scalar
//      chain-building tail.
//   3. Decide Step-2b candidacy: a lane only has level-2 work when one of
//      its level-1 endpoints gained in-batch neighbors, so probe a Bloom
//      filter of the batch's vertices with the lane's r1 endpoints.
//      Replacing lanes are candidates unconditionally -- their new
//      endpoints are batch vertices, which are in the filter by
//      construction, so probing the stale endpoint arrays never drops
//      them and the fused sweep emits exactly the candidate set a
//      post-replacement probe would. False positives cost two redundant
//      batch-index probes; false negatives are impossible, so skipped
//      lanes provably have a = b = 0 and Step 2b cannot change them.
//   4. For candidate lanes only, emit draw word 1 -- compacted alongside
//      the candidate list, so non-candidate lanes (the vast majority once
//      the stream is long) write nothing to memory.
//
// Every ISA implements the same integer math (Threefry-2x64-13 +
// multiply-shift draws + the multiplicative Bloom hash), so outputs are
// bit-identical across scalar/AVX2/AVX-512 — tests pin this down. The
// vector implementations live in estimator_kernels_avx2.cc /
// estimator_kernels_avx512.cc, the only translation units built with
// -mavx2 / -mavx512f; everything else in the library stays baseline-ISA.

#ifndef TRISTREAM_CORE_ESTIMATOR_KERNELS_H_
#define TRISTREAM_CORE_ESTIMATOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace tristream {
namespace core {
namespace kernels {

// Bloom hash: bit index = top `log2_bits` bits of v * kBloomHashMul. One
// probe per vertex; shared by the batch-side insert (scalar, in
// triangle_counter.cc) and the lane-side probes here, so changing it in
// one place keeps the no-false-negative guarantee.
inline constexpr std::uint64_t kBloomHashMul = 0x9E3779B97F4A7C15ULL;

inline std::uint64_t BloomBitIndex(std::uint32_t vertex, int log2_bits) {
  return (static_cast<std::uint64_t>(vertex) * kBloomHashMul) >>
         (64 - log2_bits);
}

struct SweepArgs {
  std::uint64_t seed;      // estimator seed = Threefry key0
  std::uint64_t batch_no;  // batch counter = Threefry counter word
  std::uint64_t m_before;  // edges applied before this batch
  std::uint64_t w;         // edges in this batch (>= 1)
  std::uint64_t lanes;     // lanes in this sweep
  std::uint64_t lane_base;  // global id of lane 0: lane i draws stream
                            //   (seed, lane_base + i); the arrays and out
                            //   lists below use the local index i
  const std::uint64_t* bloom;  // batch-vertex Bloom bit array, or nullptr
                               //   for filterless mode: every lane becomes
                               //   a candidate (used when w is large
                               //   relative to r and the filter would
                               //   reject almost nothing)
  int log2_bits;               // size of `bloom` in bits, as a power of two
  const std::uint64_t* r1_uv;  // [lanes] level-1 edge endpoints, packed
                               //   u = low 32, v = high 32 (one cache line
                               //   per lane; 8 lanes per 512-bit load);
                               //   stale for replacing lanes, see above
  std::uint32_t* replacers;    // [lanes] out: replacing lanes, ascending
  std::uint32_t* batch_idx;    // [lanes] out: chosen batch offset per entry
  std::uint32_t* candidates;   // [lanes] out: candidate lanes, ascending
                               //   (every replacer is also a candidate)
  std::uint64_t* draw2;        // [lanes] out: x1 word per *candidate*,
                               //   compacted: draw2[k] <-> candidates[k]
};

struct SweepCounts {
  std::size_t replacers;
  std::size_t candidates;
};

struct KernelTable {
  SweepCounts (*lane_sweep)(const SweepArgs&);
};

// Portable reference kernels; always available.
const KernelTable& ScalarKernels();

#if defined(__x86_64__) || defined(__i386__)
// Only call when ResolveSimdIsa said the host supports the ISA.
const KernelTable& Avx2Kernels();
const KernelTable& Avx512Kernels();
#endif

// The table for a resolved ISA (CHECK-fails on an unsupported request;
// resolve first).
const KernelTable& TableFor(SimdIsa isa);

}  // namespace kernels
}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_ESTIMATOR_KERNELS_H_
