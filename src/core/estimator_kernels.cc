#include "core/estimator_kernels.h"

#include "util/logging.h"
#include "util/rng.h"

namespace tristream {
namespace core {
namespace kernels {
namespace {

SweepCounts LaneSweepScalar(const SweepArgs& args) {
  const std::uint64_t bound = args.m_before + args.w;
  SweepCounts n{0, 0};
  if (args.bloom == nullptr) {
    // Filterless mode (large w relative to r): every lane is a candidate.
    for (std::uint64_t lane = 0; lane < args.lanes; ++lane) {
      const CounterRng::Block block =
          CounterRng::Draw(args.seed, args.lane_base + lane, args.batch_no);
      args.draw2[lane] = block.x1;
      args.candidates[lane] = static_cast<std::uint32_t>(lane);
      const std::uint64_t pick = MulHi64(block.x0, bound);
      if (pick >= args.m_before) {
        args.replacers[n.replacers] = static_cast<std::uint32_t>(lane);
        args.batch_idx[n.replacers] =
            static_cast<std::uint32_t>(pick - args.m_before);
        ++n.replacers;
      }
    }
    n.candidates = args.lanes;
    return n;
  }
  for (std::uint64_t lane = 0; lane < args.lanes; ++lane) {
    const CounterRng::Block block =
        CounterRng::Draw(args.seed, args.lane_base + lane, args.batch_no);
    const std::uint64_t pick = MulHi64(block.x0, bound);
    bool candidate;
    if (pick >= args.m_before) {
      args.replacers[n.replacers] = static_cast<std::uint32_t>(lane);
      args.batch_idx[n.replacers] =
          static_cast<std::uint32_t>(pick - args.m_before);
      ++n.replacers;
      candidate = true;  // new endpoints are batch vertices -> always hit
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

const KernelTable& ScalarKernels() {
  static const KernelTable table{&LaneSweepScalar};
  return table;
}

const KernelTable& TableFor(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return ScalarKernels();
#if defined(__x86_64__) || defined(__i386__)
    case SimdIsa::kAvx2:
      return Avx2Kernels();
    case SimdIsa::kAvx512:
      return Avx512Kernels();
#else
    case SimdIsa::kAvx2:
    case SimdIsa::kAvx512:
      break;
#endif
  }
  TRISTREAM_CHECK(false);  // unresolved ISA; callers must ResolveSimdIsa first
  return ScalarKernels();
}

}  // namespace kernels
}  // namespace core
}  // namespace tristream
