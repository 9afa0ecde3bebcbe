// Parallel-substrate scaling sweep: ingest throughput of the bulk
// counter on 1..8 worker threads, unpinned and pinned (worker k on the
// k-th allowed cpu), at equal batch size. Speedups are stated against the
// unpinned 1-thread run.
//
// This is an engineering benchmark (no paper figure): it tracks the
// per-batch substrate cost (wakeup, barrier, ingest/absorb overlap).
// Neither the thread count nor pinning changes a bit of the estimate, so
// every (threads, pinned) run is asserted bit-identical to the unpinned
// 1-thread run, and the sweep doubles as a determinism check.
//
// The default operating point uses small batches on purpose: that is the
// regime where the per-batch substrate cost dominates per-edge work,
// which is the constant this bench exists to track. Crank
// TRISTREAM_BENCH_BATCH up to measure the compute-bound regime instead.
//
// Output: human-readable table on stderr, one machine-readable JSON
// document on stdout (CI uploads it as an artifact). Extra knobs
// on top of the standard bench env vars:
//   TRISTREAM_BENCH_R        total estimators        (default 4096)
//   TRISTREAM_BENCH_BATCH    batch size w            (default 64)
//   TRISTREAM_BENCH_THREADS  max thread count swept  (default 8)
//   TRISTREAM_BENCH_SIMD     lane-sweep dispatch     (default auto)
//
// The JSON records both the requested simd mode and the ISA it resolved
// to on this host, so trajectory diffs can tell an avx512 row from a
// scalar-fallback row.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "util/simd.h"

namespace {

using namespace tristream;

struct Measurement {
  std::uint32_t threads = 0;
  bool pinned = false;
  double median_seconds = 0.0;
  double meps = 0.0;  // million edges/second, ingest + final flush
  double triangles = 0.0;
  double wedges = 0.0;
};

Measurement RunOne(const bench::DatasetInstance& instance, std::uint64_t r,
                   std::size_t batch, std::uint32_t threads, bool pin,
                   SimdMode simd, int trials) {
  std::vector<double> seconds;
  Measurement out;
  out.threads = threads;
  out.pinned = pin;
  for (int trial = 0; trial < trials; ++trial) {
    core::TriangleCounterOptions options;
    options.num_estimators = r;
    options.num_threads = threads;
    options.seed = bench::BenchSeed() * 7919 + 13;  // fixed across runs
    options.batch_size = batch;
    options.pin_threads = pin;
    options.simd = simd;
    engine::TsbEstimator estimator(options);
    WallTimer timer;
    bench::RunThroughEngine(estimator, instance.stream, batch);
    seconds.push_back(timer.Seconds());
    out.triangles = estimator.EstimateTriangles();
    out.wedges = estimator.EstimateWedges();
  }
  out.median_seconds = Median(seconds);
  if (out.median_seconds > 0.0) {
    out.meps = static_cast<double>(instance.stream.size()) /
               out.median_seconds / 1e6;
  }
  return out;
}

}  // namespace

int main() {
  using namespace tristream;
  const std::uint64_t r = bench::EnvU64("TRISTREAM_BENCH_R", 4096);
  const std::size_t batch =
      static_cast<std::size_t>(bench::EnvU64("TRISTREAM_BENCH_BATCH", 64));
  const std::uint32_t max_threads = static_cast<std::uint32_t>(
      bench::EnvU64("TRISTREAM_BENCH_THREADS", 8));
  const int trials = bench::BenchTrials();
  SimdMode simd = SimdMode::kAuto;
  if (const char* env = std::getenv("TRISTREAM_BENCH_SIMD")) {
    const auto parsed = ParseSimdMode(env);
    if (!parsed.has_value() || !ResolveSimdIsa(*parsed).has_value()) {
      std::fprintf(stderr, "bad TRISTREAM_BENCH_SIMD '%s'\n", env);
      return 1;
    }
    simd = *parsed;
  }
  const char* isa_name = SimdIsaName(*ResolveSimdIsa(simd));

  std::fprintf(stderr,
               "parallel scaling sweep: worker threads, unpinned and pinned\n"
               "r=%llu batch=%zu trials=%d scale=%.3g simd=%s (isa %s)\n",
               static_cast<unsigned long long>(r), batch, trials,
               bench::BenchScale(), SimdModeName(simd), isa_name);

  const auto instance = bench::MakeInstance(gen::DatasetId::kDblp);
  std::fprintf(stderr, "dataset=dblp edges=%zu (%llu batches/run)\n\n",
               instance.stream.size(),
               static_cast<unsigned long long>(
                   (instance.stream.size() + batch - 1) / batch));
  std::fprintf(stderr, "%8s | %10s | %12s | %12s | %11s\n", "threads", "mode",
               "seconds", "Medges/s", "vs 1 thread");

  std::vector<Measurement> results;
  bool bit_identical = true;
  Measurement baseline;  // the unpinned 1-thread run
  for (std::uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    const Measurement pooled = RunOne(instance, r, batch, threads,
                                      /*pin=*/false, simd, trials);
    const Measurement pinned = RunOne(instance, r, batch, threads,
                                      /*pin=*/true, simd, trials);
    if (threads == 1) baseline = pooled;
    // Neither threads nor placement may move a single bit.
    for (const Measurement& m : {pooled, pinned}) {
      if (m.triangles != baseline.triangles ||
          m.wedges != baseline.wedges) {
        bit_identical = false;
        std::fprintf(stderr,
                     "ERROR: %u threads (%s) diverge from the unpinned "
                     "1-thread run!\n",
                     threads, m.pinned ? "pinned" : "unpinned");
      }
    }
    for (const Measurement& m : {pooled, pinned}) {
      std::fprintf(stderr, "%8u | %10s | %12.4f | %12.2f | %10.2fx\n",
                   m.threads, m.pinned ? "pinned" : "unpinned",
                   m.median_seconds, m.meps,
                   m.median_seconds > 0.0
                       ? baseline.median_seconds / m.median_seconds
                       : 0.0);
    }
    results.push_back(pooled);
    results.push_back(pinned);
  }

  // Machine-readable trajectory record.
  std::printf("{\n");
  std::printf("  \"bench\": \"parallel_scaling\",\n");
  std::printf("  \"dataset\": \"dblp\",\n");
  std::printf("  \"edges\": %zu,\n", instance.stream.size());
  std::printf("  \"estimators\": %llu,\n",
              static_cast<unsigned long long>(r));
  std::printf("  \"batch_size\": %zu,\n", batch);
  std::printf("  \"trials\": %d,\n", trials);
  std::printf("  \"simd\": \"%s\",\n", SimdModeName(simd));
  std::printf("  \"simd_isa\": \"%s\",\n", isa_name);
  std::printf("  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::printf("    {\"threads\": %u, \"pinned\": %s, \"seconds\": %.6f, "
                "\"meps\": %.4f}%s\n",
                m.threads, m.pinned ? "true" : "false", m.median_seconds,
                m.meps, i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return bit_identical ? 0 : 1;
}
