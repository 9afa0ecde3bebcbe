// Micro-benchmarks of the substrate the estimators sit on: RNG
// primitives, the flat hash map used by the bulk tables, the per-ISA
// fused lane-sweep kernels, and the end-to-end bulk counter under each
// SIMD dispatch mode. These quantify the constants behind the O(r + w)
// bound of Theorem 3.5 and the vector speedup of the lane sweep.
//
// Every supported ISA runs the same integer math, so the counter rows are
// asserted bit-identical (nonzero exit on divergence) — the bench doubles
// as a cross-ISA determinism check and is CI's smoke test for the SIMD
// substrate. Output: human-readable table on stderr, one JSON document on
// stdout for BENCH_*.json trajectory tracking.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/estimator_kernels.h"
#include "core/triangle_counter.h"
#include "gen/erdos_renyi.h"
#include "stream/edge_stream.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace tristream;

// ns per op of `fn` run `iters` times; the result is accumulated into a
// volatile sink so nothing is optimized away.
template <typename Fn>
double NsPerOp(std::uint64_t iters, Fn fn) {
  volatile std::uint64_t sink = 0;
  WallTimer timer;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) acc += fn(i);
  sink = acc;
  (void)sink;
  return timer.Seconds() / static_cast<double>(iters) * 1e9;
}

std::vector<SimdIsa> SupportedIsas() {
  std::vector<SimdIsa> isas{SimdIsa::kScalar};
  if (SimdIsaSupported(SimdIsa::kAvx2)) isas.push_back(SimdIsa::kAvx2);
  if (SimdIsaSupported(SimdIsa::kAvx512)) isas.push_back(SimdIsa::kAvx512);
  return isas;
}

}  // namespace

int main() {
  using namespace tristream;

  const double scale = bench::BenchScale();
  const std::uint64_t iters =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(2e7 * scale));

  std::fprintf(stderr, "substrate micro-benchmarks (scale=%.3g)\n\n", scale);

  // ------------------------------------------------------------ RNG
  Rng rng(1);
  const double ns_xoshiro = NsPerOp(iters, [&](std::uint64_t) {
    return rng.Next();
  });
  const double ns_counter = NsPerOp(iters, [&](std::uint64_t i) {
    return CounterRng::Draw(42, i & 4095, i >> 12).x0;
  });
  std::fprintf(stderr, "%-32s %8.2f ns\n", "xoshiro256** next", ns_xoshiro);
  std::fprintf(stderr, "%-32s %8.2f ns\n", "CounterRng draw (Threefry-13)",
               ns_counter);

  // ------------------------------------------------------- hash map
  FlatHashMap<std::uint32_t> map(1 << 16);
  Rng map_rng(5);
  const double ns_insert = NsPerOp(iters, [&](std::uint64_t) {
    return ++map[map_rng.UniformBelow(1 << 15)];
  });
  const double ns_find = NsPerOp(iters, [&](std::uint64_t) {
    const std::uint32_t* p = map.Find(map_rng.UniformBelow(1 << 15));
    return p != nullptr ? *p : 0u;
  });
  std::fprintf(stderr, "%-32s %8.2f ns\n", "FlatHashMap insert", ns_insert);
  std::fprintf(stderr, "%-32s %8.2f ns\n", "FlatHashMap find(hit)", ns_find);

  // ------------------------------------------------- lane-sweep kernels
  const std::uint64_t r = bench::EnvU64("TRISTREAM_BENCH_R", 4096);
  const std::uint64_t sweeps =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(2e5 * scale));
  std::vector<std::uint64_t> draw2(r), r1uv(r);
  std::vector<std::uint32_t> reps(r), bidx(r), cand(r);
  Rng fill(7);
  for (auto& x : r1uv) {
    const std::uint64_t u = fill.Next() & 0xfffff;
    const std::uint64_t v = fill.Next() & 0xfffff;
    x = v << 32 | u;
  }
  // Bloom shaped like a w=64 batch: 8192 bits, ~128 set.
  std::vector<std::uint64_t> bloom(128, 0);
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit = core::kernels::BloomBitIndex(
        static_cast<std::uint32_t>(fill.Next() & 0xfffff), 13);
    bloom[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  struct KernelRow {
    const char* isa;
    double ns_per_lane;
  };
  std::vector<KernelRow> kernel_rows;
  std::uint64_t kernel_acc_first = 0;
  bool kernel_identical = true;
  for (const SimdIsa isa : SupportedIsas()) {
    core::kernels::SweepArgs args;
    args.seed = 12345;
    args.m_before = 1000000;
    args.w = 64;
    args.lanes = r;
    args.lane_base = 0;
    args.bloom = bloom.data();
    args.log2_bits = 13;
    args.r1_uv = r1uv.data();
    args.replacers = reps.data();
    args.batch_idx = bidx.data();
    args.candidates = cand.data();
    args.draw2 = draw2.data();
    const auto& table = core::kernels::TableFor(isa);
    std::uint64_t acc = 0;
    WallTimer timer;
    for (std::uint64_t it = 0; it < sweeps; ++it) {
      args.batch_no = it;
      const core::kernels::SweepCounts n = table.lane_sweep(args);
      acc += n.replacers * 1000003 + n.candidates;
    }
    const double ns_per_lane =
        timer.Seconds() / static_cast<double>(sweeps) /
        static_cast<double>(r) * 1e9;
    if (kernel_rows.empty()) {
      kernel_acc_first = acc;
    } else if (acc != kernel_acc_first) {
      kernel_identical = false;
    }
    kernel_rows.push_back({SimdIsaName(isa), ns_per_lane});
    std::fprintf(stderr, "lane sweep [%-6s]                %8.2f ns/lane\n",
                 SimdIsaName(isa), ns_per_lane);
  }

  // ------------------------------------------- end-to-end bulk counter
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(20000, 400000, 10), 11);
  struct CounterRow {
    const char* mode;
    double meps;
  };
  std::vector<CounterRow> counter_rows;
  double first_estimate = 0.0;
  bool counter_identical = true;
  std::vector<SimdMode> modes{SimdMode::kOff};
  if (SimdIsaSupported(SimdIsa::kAvx2)) modes.push_back(SimdMode::kAvx2);
  if (SimdIsaSupported(SimdIsa::kAvx512)) modes.push_back(SimdMode::kAvx512);
  const int trials = bench::BenchTrials();
  for (const SimdMode mode : modes) {
    std::vector<double> seconds;
    double estimate = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      core::TriangleCounterOptions options;
      options.num_estimators = r;
      options.seed = 12;
      options.batch_size = static_cast<std::size_t>(
          bench::EnvU64("TRISTREAM_BENCH_BATCH", 64));
      options.simd = mode;
      core::TriangleCounter counter(options);
      WallTimer timer;
      counter.ProcessEdges(stream.edges());
      counter.Flush();
      seconds.push_back(timer.Seconds());
      estimate = counter.EstimateTriangles();
    }
    const double meps = static_cast<double>(stream.size()) /
                        Median(seconds) / 1e6;
    if (counter_rows.empty()) {
      first_estimate = estimate;
    } else if (estimate != first_estimate) {
      counter_identical = false;
      std::fprintf(stderr, "ERROR: estimate diverges under %s\n",
                   SimdModeName(mode));
    }
    counter_rows.push_back({SimdModeName(mode), meps});
    std::fprintf(stderr, "bulk counter [%-6s]             %8.2f Meps\n",
                 SimdModeName(mode), meps);
  }

  const bool ok = kernel_identical && counter_identical;
  if (!ok) std::fprintf(stderr, "\nERROR: cross-ISA outputs diverge\n");

  // Machine-readable trajectory record.
  std::printf("{\n");
  std::printf("  \"bench\": \"micro_substrate\",\n");
  std::printf("  \"estimators\": %llu,\n",
              static_cast<unsigned long long>(r));
  std::printf("  \"rng_xoshiro_ns\": %.3f,\n", ns_xoshiro);
  std::printf("  \"rng_counter_draw_ns\": %.3f,\n", ns_counter);
  std::printf("  \"hash_insert_ns\": %.3f,\n", ns_insert);
  std::printf("  \"hash_find_ns\": %.3f,\n", ns_find);
  std::printf("  \"bit_identical\": %s,\n", ok ? "true" : "false");
  std::printf("  \"lane_sweep\": [\n");
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    std::printf("    {\"isa\": \"%s\", \"ns_per_lane\": %.3f}%s\n",
                kernel_rows[i].isa, kernel_rows[i].ns_per_lane,
                i + 1 < kernel_rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"bulk_counter\": [\n");
  for (std::size_t i = 0; i < counter_rows.size(); ++i) {
    std::printf("    {\"simd\": \"%s\", \"meps\": %.4f}%s\n",
                counter_rows[i].mode, counter_rows[i].meps,
                i + 1 < counter_rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return ok ? 0 : 1;
}
