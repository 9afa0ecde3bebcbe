// AVX-512F implementation of the fused estimator lane sweep — sixteen
// Threefry lanes per iteration (two interleaved 8-lane vectors), mask
// registers instead of the AVX2 movemask dance. Built with -mavx512f only
// (no DQ/BW instructions are used); callable only after ResolveSimdIsa
// reported AVX-512 support. Bit-identical to the scalar kernel (pinned by
// core_simd_equivalence_test).

#include "core/estimator_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "util/rng.h"

namespace tristream {
namespace core {
namespace kernels {
namespace {

// GCC 12's unmasked wrappers for the shifts, multiply, rotate and gather
// used here merge into _mm512_undefined_epi32(), which -Wuninitialized
// and -Wmaybe-uninitialized flag at every call site. The all-lanes
// zero-masked forms take a defined source and compile to the same
// unmasked instructions.
constexpr __mmask8 kAllLanes = 0xFF;

inline __m512i MulEpu32(__m512i a, __m512i b) {
  return _mm512_maskz_mul_epu32(kAllLanes, a, b);
}
inline __m512i SrliEpi64(__m512i a, unsigned count) {
  return _mm512_maskz_srli_epi64(kAllLanes, a, count);
}
inline __m512i SlliEpi64(__m512i a, unsigned count) {
  return _mm512_maskz_slli_epi64(kAllLanes, a, count);
}
inline __m512i SrlvEpi64(__m512i a, __m512i count) {
  return _mm512_maskz_srlv_epi64(kAllLanes, a, count);
}

inline __m512i MulHi64V(__m512i a, __m512i b) {
  const __m512i lo_mask = _mm512_set1_epi64(0xffffffffLL);
  const __m512i ah = SrliEpi64(a, 32);
  const __m512i bh = SrliEpi64(b, 32);
  const __m512i ll = MulEpu32(a, b);
  const __m512i hl = MulEpu32(ah, b);
  const __m512i lh = MulEpu32(a, bh);
  const __m512i hh = MulEpu32(ah, bh);
  const __m512i t = _mm512_add_epi64(hl, SrliEpi64(ll, 32));
  const __m512i u = _mm512_add_epi64(lh, _mm512_and_si512(t, lo_mask));
  return _mm512_add_epi64(_mm512_add_epi64(hh, SrliEpi64(t, 32)),
                          SrliEpi64(u, 32));
}

// Two independent straight-line Threefry-2x64-13 chains (same rounds and
// constants as CounterRng::Draw), interleaved instruction-by-instruction.
// Each round's add/rotate/xor forms a ~3-cycle serial dependency chain, so
// a single vector leaves the ALU ports mostly idle; a second chain with no
// data dependence on the first fills those slots and nearly doubles
// throughput. Straight-lining keeps every rotate count an immediate for
// the native vprolq (a loop-carried count would force the three-op
// shift/shift/or fallback). The rotate is the all-lanes masked form for
// the reason given at kAllLanes.
inline void ThreefryV2(__m512i seed, __m512i lane_a, __m512i lane_b,
                       __m512i counter, __m512i* out0a, __m512i* out1a,
                       __m512i* out0b, __m512i* out1b) {
  const __m512i parity =
      _mm512_set1_epi64(static_cast<long long>(CounterRng::kParity));
  const __m512i ks0 = seed;
  const __m512i ks2a =
      _mm512_xor_si512(_mm512_xor_si512(seed, lane_a), parity);
  const __m512i ks2b =
      _mm512_xor_si512(_mm512_xor_si512(seed, lane_b), parity);
  __m512i x0a = _mm512_add_epi64(counter, ks0);
  __m512i x1a = lane_a;
  __m512i x0b = _mm512_add_epi64(counter, ks0);
  __m512i x1b = lane_b;
#define TRISTREAM_TF_ROUND(rot)                                         \
  x0a = _mm512_add_epi64(x0a, x1a);                                     \
  x0b = _mm512_add_epi64(x0b, x1b);                                     \
  x1a = _mm512_xor_si512(_mm512_maskz_rol_epi64(kAllLanes, x1a, (rot)), x0a); \
  x1b = _mm512_xor_si512(_mm512_maskz_rol_epi64(kAllLanes, x1b, (rot)), x0b);
#define TRISTREAM_TF_INJECT(kaa, kab, kba, kbb, i)             \
  {                                                            \
    const __m512i inc = _mm512_set1_epi64(i);                  \
    x0a = _mm512_add_epi64(x0a, (kaa));                        \
    x0b = _mm512_add_epi64(x0b, (kab));                        \
    x1a = _mm512_add_epi64(x1a, _mm512_add_epi64((kba), inc)); \
    x1b = _mm512_add_epi64(x1b, _mm512_add_epi64((kbb), inc)); \
  }
  TRISTREAM_TF_ROUND(16)
  TRISTREAM_TF_ROUND(42)
  TRISTREAM_TF_ROUND(12)
  TRISTREAM_TF_ROUND(31)
  TRISTREAM_TF_INJECT(lane_a, lane_b, ks2a, ks2b, 1)
  TRISTREAM_TF_ROUND(16)
  TRISTREAM_TF_ROUND(32)
  TRISTREAM_TF_ROUND(24)
  TRISTREAM_TF_ROUND(21)
  TRISTREAM_TF_INJECT(ks2a, ks2b, ks0, ks0, 2)
  TRISTREAM_TF_ROUND(16)
  TRISTREAM_TF_ROUND(42)
  TRISTREAM_TF_ROUND(12)
  TRISTREAM_TF_ROUND(31)
  TRISTREAM_TF_INJECT(ks0, ks0, lane_a, lane_b, 3)
  TRISTREAM_TF_ROUND(16)
#undef TRISTREAM_TF_ROUND
#undef TRISTREAM_TF_INJECT
  *out0a = x0a;
  *out1a = x1a;
  *out0b = x0b;
  *out1b = x1b;
}

inline __m512i BloomHashV(__m512i v) {
  const __m512i mul_lo = _mm512_set1_epi64(
      static_cast<long long>(kBloomHashMul & 0xffffffffULL));
  const __m512i mul_hi =
      _mm512_set1_epi64(static_cast<long long>(kBloomHashMul >> 32));
  return _mm512_add_epi64(SlliEpi64(MulEpu32(v, mul_hi), 32),
                          MulEpu32(v, mul_lo));
}

inline __m512i BloomProbeV(const std::uint64_t* bloom, __m512i vertices,
                           int shift) {
  const __m512i bit = SrliEpi64(BloomHashV(vertices), shift);
  const __m512i word = _mm512_mask_i64gather_epi64(
      _mm512_setzero_si512(), kAllLanes, SrliEpi64(bit, 6), bloom, 8);
  return _mm512_and_si512(
      SrlvEpi64(word, _mm512_and_si512(bit, _mm512_set1_epi64(63))),
      _mm512_set1_epi64(1));
}

// Append one 8-lane group's replacers and candidates from its masks.
// Usually every lane keeps and misses (the reservoir probability is
// w/(m+w) and batch vertices are few), so this — and all stores — is off
// the hot path.
inline void AppendGroup(const SweepArgs& args, std::uint64_t lane,
                        __m512i pick, __m512i x1, unsigned replace_mask,
                        unsigned cand_mask, SweepCounts* n) {
  alignas(64) std::uint64_t picks[8];
  alignas(64) std::uint64_t x1s[8];
  _mm512_store_si512(picks, pick);
  _mm512_store_si512(x1s, x1);
  unsigned rm = replace_mask;
  while (rm != 0) {
    const int j = __builtin_ctz(rm);
    rm &= rm - 1;
    args.replacers[n->replacers] = static_cast<std::uint32_t>(lane + j);
    args.batch_idx[n->replacers] =
        static_cast<std::uint32_t>(picks[j] - args.m_before);
    ++n->replacers;
  }
  while (cand_mask != 0) {
    const int j = __builtin_ctz(cand_mask);
    cand_mask &= cand_mask - 1;
    args.candidates[n->candidates] = static_cast<std::uint32_t>(lane + j);
    args.draw2[n->candidates] = x1s[j];
    ++n->candidates;
  }
}

SweepCounts LaneSweepAvx512(const SweepArgs& args) {
  const __m512i seed_v = _mm512_set1_epi64(static_cast<long long>(args.seed));
  const __m512i counter_v =
      _mm512_set1_epi64(static_cast<long long>(args.batch_no));
  const __m512i bound_v =
      _mm512_set1_epi64(static_cast<long long>(args.m_before + args.w));
  const __m512i m_v = _mm512_set1_epi64(static_cast<long long>(args.m_before));
  const __m512i lane_step = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i eight = _mm512_set1_epi64(8);
  const int shift = 64 - args.log2_bits;
  SweepCounts n{0, 0};
  std::uint64_t lane = 0;
  if (args.bloom == nullptr) {
    // Filterless mode (large w relative to r): every lane is a candidate,
    // so store the full draw2 vectors and only the replacer list needs the
    // scalar append.
    for (; lane + 16 <= args.lanes; lane += 16) {
      const __m512i lane_va = _mm512_add_epi64(
          _mm512_set1_epi64(static_cast<long long>(args.lane_base + lane)),
          lane_step);
      const __m512i lane_vb = _mm512_add_epi64(lane_va, eight);
      __m512i x0a, x1a, x0b, x1b;
      ThreefryV2(seed_v, lane_va, lane_vb, counter_v, &x0a, &x1a, &x0b, &x1b);
      _mm512_storeu_si512(args.draw2 + lane, x1a);
      _mm512_storeu_si512(args.draw2 + lane + 8, x1b);
      const __m512i pick_a = MulHi64V(x0a, bound_v);
      const __m512i pick_b = MulHi64V(x0b, bound_v);
      const unsigned rm_a = _mm512_cmpge_epu64_mask(pick_a, m_v);
      const unsigned rm_b = _mm512_cmpge_epu64_mask(pick_b, m_v);
      if (rm_a != 0) AppendGroup(args, lane, pick_a, x1a, rm_a, 0, &n);
      if (rm_b != 0) AppendGroup(args, lane + 8, pick_b, x1b, rm_b, 0, &n);
    }
    for (; lane < args.lanes; ++lane) {
      const CounterRng::Block block =
          CounterRng::Draw(args.seed, args.lane_base + lane, args.batch_no);
      args.draw2[lane] = block.x1;
      const std::uint64_t pick = MulHi64(block.x0, args.m_before + args.w);
      if (pick >= args.m_before) {
        args.replacers[n.replacers] = static_cast<std::uint32_t>(lane);
        args.batch_idx[n.replacers] =
            static_cast<std::uint32_t>(pick - args.m_before);
        ++n.replacers;
      }
    }
    for (std::uint64_t i = 0; i < args.lanes; ++i) {
      args.candidates[i] = static_cast<std::uint32_t>(i);
    }
    n.candidates = args.lanes;
    return n;
  }
  for (; lane + 16 <= args.lanes; lane += 16) {
    const __m512i lane_va = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(args.lane_base + lane)),
        lane_step);
    const __m512i lane_vb = _mm512_add_epi64(lane_va, eight);
    __m512i x0a, x1a, x0b, x1b;
    ThreefryV2(seed_v, lane_va, lane_vb, counter_v, &x0a, &x1a, &x0b, &x1b);
    const __m512i pick_a = MulHi64V(x0a, bound_v);
    const __m512i pick_b = MulHi64V(x0b, bound_v);
    const unsigned rm_a = _mm512_cmpge_epu64_mask(pick_a, m_v);
    const unsigned rm_b = _mm512_cmpge_epu64_mask(pick_b, m_v);
    // Candidacy: replacers unconditionally, everyone else by Bloom probe of
    // its (pre-replacement) r1 endpoints — same set either way, since a
    // replacer's new endpoints are batch vertices and hence in the filter.
    // One 512-bit load covers 8 lanes' packed (u, v) pairs.
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    const __m512i uva = _mm512_loadu_si512(args.r1_uv + lane);
    const __m512i uvb = _mm512_loadu_si512(args.r1_uv + lane + 8);
    const __m512i ua = _mm512_and_si512(uva, lo32);
    const __m512i va = SrliEpi64(uva, 32);
    const __m512i ub = _mm512_and_si512(uvb, lo32);
    const __m512i vb = SrliEpi64(uvb, 32);
    const __m512i hit_a = _mm512_or_si512(BloomProbeV(args.bloom, ua, shift),
                                          BloomProbeV(args.bloom, va, shift));
    const __m512i hit_b = _mm512_or_si512(BloomProbeV(args.bloom, ub, shift),
                                          BloomProbeV(args.bloom, vb, shift));
    const unsigned cm_a = rm_a | _mm512_test_epi64_mask(hit_a, hit_a);
    const unsigned cm_b = rm_b | _mm512_test_epi64_mask(hit_b, hit_b);
    if (cm_a != 0) AppendGroup(args, lane, pick_a, x1a, rm_a, cm_a, &n);
    if (cm_b != 0) AppendGroup(args, lane + 8, pick_b, x1b, rm_b, cm_b, &n);
  }
  for (; lane < args.lanes; ++lane) {
    const CounterRng::Block block =
        CounterRng::Draw(args.seed, args.lane_base + lane, args.batch_no);
    const std::uint64_t pick = MulHi64(block.x0, args.m_before + args.w);
    bool candidate;
    if (pick >= args.m_before) {
      args.replacers[n.replacers] = static_cast<std::uint32_t>(lane);
      args.batch_idx[n.replacers] =
          static_cast<std::uint32_t>(pick - args.m_before);
      ++n.replacers;
      candidate = true;
    } else {
      const std::uint64_t uv = args.r1_uv[lane];
      const std::uint64_t bit_u =
          BloomBitIndex(static_cast<std::uint32_t>(uv), args.log2_bits);
      const std::uint64_t bit_v =
          BloomBitIndex(static_cast<std::uint32_t>(uv >> 32), args.log2_bits);
      candidate = ((args.bloom[bit_u >> 6] >> (bit_u & 63)) |
                   (args.bloom[bit_v >> 6] >> (bit_v & 63))) &
                  1;
    }
    if (candidate) {
      args.candidates[n.candidates] = static_cast<std::uint32_t>(lane);
      args.draw2[n.candidates] = block.x1;
      ++n.candidates;
    }
  }
  return n;
}

}  // namespace

const KernelTable& Avx512Kernels() {
  static const KernelTable table{&LaneSweepAvx512};
  return table;
}

}  // namespace kernels
}  // namespace core
}  // namespace tristream

#endif  // x86
