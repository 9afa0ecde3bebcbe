// AVX2 implementation of the fused estimator lane sweep. This is one of
// the two translation units built with a vector target flag (-mavx2);
// nothing here may be called unless ResolveSimdIsa reported AVX2 support.
// The math is the same integer sequence as the scalar kernel in
// estimator_kernels.cc — four Threefry lanes per iteration — so outputs
// are bit-identical to it (pinned by core_simd_equivalence_test).

#include "core/estimator_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "util/rng.h"

namespace tristream {
namespace core {
namespace kernels {
namespace {

inline __m256i RotlV(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// High 64 bits of each unsigned 64x64 multiply, via 32-bit partial
// products (AVX2 has no 64-bit multiply). Mirrors MulHi64 in util/rng.h.
inline __m256i MulHi64V(__m256i a, __m256i b) {
  const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i hl = _mm256_mul_epu32(ah, b);
  const __m256i lh = _mm256_mul_epu32(a, bh);
  const __m256i hh = _mm256_mul_epu32(ah, bh);
  const __m256i t = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  const __m256i u = _mm256_add_epi64(lh, _mm256_and_si256(t, lo_mask));
  return _mm256_add_epi64(_mm256_add_epi64(hh, _mm256_srli_epi64(t, 32)),
                          _mm256_srli_epi64(u, 32));
}

// Threefry-2x64-13 over four lanes: key0 = seed (broadcast), key1 = the
// lane vector, counter broadcast. Same rounds/constants as
// CounterRng::Draw, straight-lined so every rotate count is an immediate.
inline void ThreefryV(__m256i seed, __m256i lane, __m256i counter,
                      __m256i* out0, __m256i* out1) {
  const __m256i ks0 = seed;
  const __m256i ks1 = lane;
  const __m256i ks2 = _mm256_xor_si256(
      _mm256_xor_si256(seed, lane),
      _mm256_set1_epi64x(static_cast<long long>(CounterRng::kParity)));
  __m256i x0 = _mm256_add_epi64(counter, ks0);
  __m256i x1 = ks1;
#define TRISTREAM_TF_ROUND(rot)                                \
  x0 = _mm256_add_epi64(x0, x1);                               \
  x1 = _mm256_xor_si256(RotlV(x1, (rot)), x0);
#define TRISTREAM_TF_INJECT(ka, kb, i)                         \
  x0 = _mm256_add_epi64(x0, (ka));                             \
  x1 = _mm256_add_epi64(                                       \
      x1, _mm256_add_epi64((kb), _mm256_set1_epi64x(i)));
  TRISTREAM_TF_ROUND(16)
  TRISTREAM_TF_ROUND(42)
  TRISTREAM_TF_ROUND(12)
  TRISTREAM_TF_ROUND(31)
  TRISTREAM_TF_INJECT(ks1, ks2, 1)
  TRISTREAM_TF_ROUND(16)
  TRISTREAM_TF_ROUND(32)
  TRISTREAM_TF_ROUND(24)
  TRISTREAM_TF_ROUND(21)
  TRISTREAM_TF_INJECT(ks2, ks0, 2)
  TRISTREAM_TF_ROUND(16)
  TRISTREAM_TF_ROUND(42)
  TRISTREAM_TF_ROUND(12)
  TRISTREAM_TF_ROUND(31)
  TRISTREAM_TF_INJECT(ks0, ks1, 3)
  TRISTREAM_TF_ROUND(16)
#undef TRISTREAM_TF_ROUND
#undef TRISTREAM_TF_INJECT
  *out0 = x0;
  *out1 = x1;
}

// h = v * kBloomHashMul mod 2^64 for 32-bit v, from two 32x32 partials.
inline __m256i BloomHashV(__m256i v) {
  const __m256i mul_lo = _mm256_set1_epi64x(
      static_cast<long long>(kBloomHashMul & 0xffffffffULL));
  const __m256i mul_hi =
      _mm256_set1_epi64x(static_cast<long long>(kBloomHashMul >> 32));
  return _mm256_add_epi64(_mm256_slli_epi64(_mm256_mul_epu32(v, mul_hi), 32),
                          _mm256_mul_epu32(v, mul_lo));
}

inline __m256i BloomProbeV(const std::uint64_t* bloom, __m256i vertices,
                           int shift) {
  const __m256i bit = _mm256_srli_epi64(BloomHashV(vertices), shift);
  const __m256i word = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(bloom), _mm256_srli_epi64(bit, 6), 8);
  return _mm256_and_si256(
      _mm256_srlv_epi64(word, _mm256_and_si256(bit, _mm256_set1_epi64x(63))),
      _mm256_set1_epi64x(1));
}

SweepCounts LaneSweepAvx2(const SweepArgs& args) {
  const __m256i seed_v = _mm256_set1_epi64x(static_cast<long long>(args.seed));
  const __m256i counter_v =
      _mm256_set1_epi64x(static_cast<long long>(args.batch_no));
  const __m256i bound_v =
      _mm256_set1_epi64x(static_cast<long long>(args.m_before + args.w));
  const __m256i lane_step = _mm256_set_epi64x(3, 2, 1, 0);
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i m_signed = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(args.m_before)), sign);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo_mask = _mm256_set1_epi64x(0xffffffffLL);
  const int shift = 64 - args.log2_bits;
  alignas(32) std::uint64_t picks[4];
  alignas(32) std::uint64_t x1s[4];
  SweepCounts n{0, 0};
  std::uint64_t lane = 0;
  if (args.bloom == nullptr) {
    // Filterless mode (large w relative to r): every lane is a candidate,
    // so store the full draw2 vector and only the replacer list needs the
    // scalar append.
    for (; lane + 4 <= args.lanes; lane += 4) {
      const __m256i lane_v = _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<long long>(args.lane_base + lane)),
          lane_step);
      __m256i x0, x1;
      ThreefryV(seed_v, lane_v, counter_v, &x0, &x1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(args.draw2 + lane), x1);
      const __m256i pick = MulHi64V(x0, bound_v);
      const __m256i keep =
          _mm256_cmpgt_epi64(m_signed, _mm256_xor_si256(pick, sign));
      int replace_mask =
          _mm256_movemask_pd(_mm256_castsi256_pd(keep)) ^ 0xf;
      if (replace_mask != 0) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(picks), pick);
        while (replace_mask != 0) {
          const int j = __builtin_ctz(replace_mask);
          replace_mask &= replace_mask - 1;
          args.replacers[n.replacers] = static_cast<std::uint32_t>(lane + j);
          args.batch_idx[n.replacers] =
              static_cast<std::uint32_t>(picks[j] - args.m_before);
          ++n.replacers;
        }
      }
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
  for (; lane + 4 <= args.lanes; lane += 4) {
    const __m256i lane_v = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(args.lane_base + lane)),
        lane_step);
    __m256i x0, x1;
    ThreefryV(seed_v, lane_v, counter_v, &x0, &x1);
    const __m256i pick = MulHi64V(x0, bound_v);
    // Unsigned pick < m_before via the signed-compare bias trick; replacing
    // lanes are the complement.
    const __m256i keep =
        _mm256_cmpgt_epi64(m_signed, _mm256_xor_si256(pick, sign));
    const int replace_mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(keep)) ^ 0xf;
    // Candidacy: replacers unconditionally, everyone else by Bloom probe of
    // its (pre-replacement) r1 endpoints — same set either way, since a
    // replacer's new endpoints are batch vertices and hence in the filter.
    // One 256-bit load covers 4 lanes' packed (u, v) pairs.
    const __m256i uv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(args.r1_uv + lane));
    const __m256i u = _mm256_and_si256(uv, lo_mask);
    const __m256i v = _mm256_srli_epi64(uv, 32);
    const __m256i hit = _mm256_or_si256(BloomProbeV(args.bloom, u, shift),
                                        BloomProbeV(args.bloom, v, shift));
    const int hit_mask =
        _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(hit, zero))) ^
        0xf;
    int cand_mask = replace_mask | hit_mask;
    // Usually every lane keeps and misses (the reservoir probability is
    // w/(m+w) and batch vertices are few), so the append loops — and all
    // stores — are off the hot path.
    if (cand_mask != 0) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(picks), pick);
      _mm256_store_si256(reinterpret_cast<__m256i*>(x1s), x1);
      int rm = replace_mask;
      while (rm != 0) {
        const int j = __builtin_ctz(rm);
        rm &= rm - 1;
        args.replacers[n.replacers] = static_cast<std::uint32_t>(lane + j);
        args.batch_idx[n.replacers] =
            static_cast<std::uint32_t>(picks[j] - args.m_before);
        ++n.replacers;
      }
      while (cand_mask != 0) {
        const int j = __builtin_ctz(cand_mask);
        cand_mask &= cand_mask - 1;
        args.candidates[n.candidates] = static_cast<std::uint32_t>(lane + j);
        args.draw2[n.candidates] = x1s[j];
        ++n.candidates;
      }
    }
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

const KernelTable& Avx2Kernels() {
  static const KernelTable table{&LaneSweepAvx2};
  return table;
}

}  // namespace kernels
}  // namespace core
}  // namespace tristream

#endif  // x86
