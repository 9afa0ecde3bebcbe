// Ablation: vectorized lane sweep (AVX2/AVX-512 dispatch) versus the
// portable scalar fallback, at fixed algorithm semantics.
//
// The per-batch lane sweep (Threefry draw + level-1 decision + Bloom
// candidate probe, one pass over all r estimators) is the only code the
// --simd knob changes, and every ISA computes the same integer sequence.
// So this ablation doubles as a determinism check: estimates must agree
// to the last bit between modes, and the speedup isolates exactly the
// vector substrate. The benefit concentrates at batches small next to r,
// where the sweep dominates the batch; at the default w = 8r run here the
// O(w) batch index and closer pass dominate instead.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "util/simd.h"

int main() {
  using namespace tristream;
  using namespace tristream::bench;
  PrintBanner("Ablation: SIMD lane sweep vs portable scalar",
              "Sec. 3.3 bulk processing (vectorized step 1 + 2b filter)");

  const SimdIsa best = *ResolveSimdIsa(SimdMode::kAuto);
  if (best == SimdIsa::kScalar) {
    std::printf("\nhost has no supported vector ISA; scalar vs scalar "
                "would measure nothing. Skipping (exit 0).\n");
    return 0;
  }

  DatasetInstance instance;
  instance.id = gen::DatasetId::kOrkut;
  instance.stream =
      gen::MakeDataset(gen::DatasetId::kOrkut, BenchScale(), BenchSeed());
  instance.summary.triangles = 1;  // timing only

  std::printf("\ndataset: Orkut-like, m=%s; auto resolves to %s\n\n",
              Pretty(instance.stream.size()).c_str(), SimdIsaName(best));
  std::printf("%10s | %14s | %14s | %9s\n", "r", "simd t(s)",
              "scalar t(s)", "speedup");
  std::printf("-----------+----------------+----------------+----------\n");

  const int trials = BenchTrials();
  bool bit_identical = true;
  for (std::uint64_t r : {ScaledR(131072), ScaledR(524288),
                          ScaledR(2097152)}) {
    std::vector<double> simd_s, scalar_s;
    double simd_est = 0.0, scalar_est = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      for (bool vector : {true, false}) {
        core::TriangleCounterOptions opt;
        opt.num_estimators = r;
        opt.seed = BenchSeed() * 7 + static_cast<std::uint64_t>(trial);
        opt.simd = vector ? SimdMode::kAuto : SimdMode::kOff;
        core::TriangleCounter counter(opt);
        WallTimer timer;
        counter.ProcessEdges(instance.stream.edges());
        counter.Flush();
        (vector ? simd_s : scalar_s).push_back(timer.Seconds());
        (vector ? simd_est : scalar_est) = counter.EstimateTriangles();
      }
    }
    if (simd_est != scalar_est) {
      bit_identical = false;
      std::printf("ERROR: estimates diverge at r=%s (%.17g vs %.17g)\n",
                  Pretty(r).c_str(), simd_est, scalar_est);
    }
    std::printf("%10s | %14.3f | %14.3f | %8.2fx\n", Pretty(r).c_str(),
                Median(simd_s), Median(scalar_s),
                Median(scalar_s) / Median(simd_s));
  }

  std::printf(
      "\nshape check: estimates agree to the last bit. The lane sweep is\n"
      "the only per-batch loop the mode changes, and at w = 8r it is a\n"
      "small share of each batch next to the O(w) batch index build and\n"
      "closer pass, which both modes share; expect speedups near 1x.\n");
  return bit_identical ? 0 : 1;
}
