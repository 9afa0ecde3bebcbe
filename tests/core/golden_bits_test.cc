// Golden bit patterns for the bulk estimator. Every other suite compares
// two runs of the same build (ISA against ISA, threaded against inline,
// resumed against uninterrupted); this one pins the *values*, so a change
// to TriangleCounter's batch pipeline that keeps runs self-consistent but
// moves a single draw, candidate count or triangle flag fails here. The
// expected values were recorded before the batch index replaced the two
// edgeIter sweeps, and before worker threads split the lanes into
// ranges. Never re-record them to make a pipeline change pass: a mismatch
// means the estimator changed.
//
// Covered: TriangleCounter at five (r, w) points -- w = 1, ragged batch
// sizes, the Bloom-filtered regime (w * 8 <= r, exactly at the cutover)
// and the filterless one -- each over a G(n, m) stream, a Holme-Kim
// stream with hubs, and a multigraph with repeated edges and self-loops
// (serve hands raw socket edges to the counter, so the pipeline must be
// deterministic on those too). Every row must come out of the counter at
// 0 to 3 worker threads under both the scalar and the dispatched kernels,
// pinned, and fed through AbsorbBatchView in views of uneven sizes. On a
// mismatch the test prints the full table row to paste.

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/triangle_counter.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gtest/gtest.h"
#include "util/simd.h"
#include "util/types.h"

namespace tristream {
namespace core {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// A raw edge sequence the way a socket client may send it: a hub (vertex
// 0) incident to a fifth of the edges, every seventh edge a repeat of an
// earlier one, every thirteenth a self-loop, the rest uniform over 60
// vertices. Nothing deduplicates it.
std::vector<Edge> Multigraph() {
  std::vector<Edge> edges;
  std::uint64_t state = 0x6d756c7469ULL;
  for (int i = 0; i < 1800; ++i) {
    const auto a = static_cast<VertexId>(SplitMix64(state) % 60);
    const auto b = static_cast<VertexId>(SplitMix64(state) % 60);
    if (i % 13 == 12) {
      edges.emplace_back(a, a);
    } else if (i % 7 == 6) {
      edges.push_back(edges[SplitMix64(state) % edges.size()]);
    } else if (i % 5 == 0) {
      edges.emplace_back(0, b);
    } else {
      edges.emplace_back(a, b);
    }
  }
  return edges;
}

std::vector<Edge> Input(const std::string& name) {
  if (name == "gnm") return gen::GnmRandom(120, 1500, 21).edges();
  if (name == "holme_kim") return gen::HolmeKim(400, 4, 0.5, 22).edges();
  return Multigraph();
}

// FNV-1a over 64-bit words.
struct WordHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Add(std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; }
};

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct CounterGolden {
  const char* input;
  std::uint64_t r;
  std::size_t w;
  std::uint64_t triangles;  // bit pattern of EstimateTriangles()
  std::uint64_t wedges;     // bit pattern of EstimateWedges()
  std::uint64_t state;      // WordHash of every estimator's state
};

// (1024, 128) sits exactly at the Bloom cutover (w * 8 == r, filter on);
// (512, 4096) is filterless.
constexpr CounterGolden kCounterGoldens[] = {
    {"gnm", 64, 1, 0x40b2c4b000000000ULL, 0x40e08c5400000000ULL,
     0xf08bfff94a63185fULL},
    {"gnm", 300, 7, 0x40939c0000000000ULL, 0x40e1ada000000000ULL,
     0xe5296e314616ec33ULL},
    {"gnm", 300, 219, 0x40a3f60000000000ULL, 0x40e1274000000000ULL,
     0x0b933190fee855b7ULL},
    {"gnm", 1024, 128, 0x40a7eb0c00000000ULL, 0x40e265a7e0000000ULL,
     0x0d81d60ca80d5143ULL},
    {"gnm", 512, 4096, 0x40a4bc9800000000ULL, 0x40e2fae300000000ULL,
     0xf935863fb0fa55e8ULL},
    {"holme_kim", 64, 1, 0x408683c000000000ULL, 0x40d282f200000000ULL,
     0x86b4e8ba32994217ULL},
    {"holme_kim", 300, 7, 0x40830c0000000000ULL, 0x40d619c000000000ULL,
     0x4e8a4ec8263e9f20ULL},
    {"holme_kim", 300, 219, 0x4090900000000000ULL, 0x40d65c0000000000ULL,
     0xb7f0d04936e214a2ULL},
    {"holme_kim", 1024, 128, 0x408cdf0400000000ULL, 0x40d8bf8b60000000ULL,
     0x85dae561223b191cULL},
    {"holme_kim", 512, 4096, 0x40823ea000000000ULL, 0x40d99ba500000000ULL,
     0xf60ebde73806c97bULL},
    {"multigraph", 64, 1, 0x40f1567a00000000ULL, 0x4105b8d700000000ULL,
     0x83d77d0a19c4f203ULL},
    {"multigraph", 300, 7, 0x40ec7b8000000000ULL, 0x41041d8000000000ULL,
     0x8e95db7d46c76f57ULL},
    {"multigraph", 300, 219, 0x40e3548000000000ULL, 0x4104409000000000ULL,
     0x8bbe174697662f4dULL},
    {"multigraph", 1024, 128, 0x40e7bd6ac0000000ULL, 0x4105673620000000ULL,
     0x037fd075bc2c348dULL},
    {"multigraph", 512, 4096, 0x40e8d7c400000000ULL, 0x410463d300000000ULL,
     0x2674bc83fea0b1c8ULL},
};

// Prints a table row in source form; `config` is the row's leading
// integer fields, e.g. "300, 7".
void PrintRow(const char* input, const std::string& config,
              std::uint64_t triangles, std::uint64_t wedges,
              std::uint64_t state) {
  std::printf("    {\"%s\", %s, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
              "ULL,\n     0x%016" PRIx64 "ULL},\n",
              input, config.c_str(), triangles, wedges, state);
}

/// One way of running a row: worker threads, kernels, placement, and
/// whether the stream arrives through AbsorbBatchView.
struct Leg {
  std::uint32_t threads;
  SimdMode simd;
  bool pin;
  bool views;
};

std::vector<Leg> Legs() {
  std::vector<Leg> legs;
  for (const std::uint32_t threads : {0u, 1u, 2u, 3u}) {
    for (const SimdMode simd : {SimdMode::kOff, SimdMode::kAuto}) {
      legs.push_back({threads, simd, false, false});
    }
  }
  legs.push_back({3, SimdMode::kAuto, true, false});
  legs.push_back({0, SimdMode::kAuto, false, true});
  legs.push_back({2, SimdMode::kAuto, false, true});
  return legs;
}

/// Feeds `edges` in views cycling through whole batches at a batch
/// boundary (absorbed in place) and sizes that straddle boundaries
/// (buffered), so both AbsorbBatchView paths run.
void AbsorbInUnevenViews(TriangleCounter& counter,
                         std::span<const Edge> edges) {
  const std::size_t w = counter.batch_size();
  const std::size_t sizes[] = {w, w, 3, w, 2 * w + 1, 1, w};
  std::size_t off = 0;
  for (std::size_t k = 0; off < edges.size(); ++k) {
    const std::size_t n = std::min(sizes[k % std::size(sizes)],
                                   edges.size() - off);
    counter.AbsorbBatchView(edges.subspan(off, n));
    off += n;
  }
}

TEST(GoldenBitsTest, TriangleCounterMatchesRecordedBits) {
  const std::vector<Leg> legs = Legs();
  for (const CounterGolden& g : kCounterGoldens) {
    const std::vector<Edge> edges = Input(g.input);
    for (const Leg& leg : legs) {
      TriangleCounterOptions opt;
      opt.num_estimators = g.r;
      opt.batch_size = g.w;
      opt.seed = 0x901d + g.r;
      opt.simd = leg.simd;
      opt.num_threads = leg.threads;
      opt.pin_threads = leg.pin;
      TriangleCounter counter(opt);
      if (leg.views) {
        AbsorbInUnevenViews(counter, edges);
      } else {
        counter.ProcessEdges(edges);
      }
      const std::uint64_t triangles = Bits(counter.EstimateTriangles());
      const std::uint64_t wedges = Bits(counter.EstimateWedges());
      WordHash hash;
      for (const EstimatorState& st : counter.estimators()) {
        hash.Add(st.r1.Key());
        hash.Add(st.r2.Key());
        hash.Add(st.r1_pos);
        hash.Add(st.r2_pos);
        hash.Add(st.c);
        hash.Add(st.has_triangle ? 1 : 0);
      }
      const bool match = triangles == g.triangles && wedges == g.wedges &&
                         hash.h == g.state;
      if (!match) {
        PrintRow(g.input, std::to_string(g.r) + ", " + std::to_string(g.w),
                 triangles, wedges, hash.h);
      }
      EXPECT_TRUE(match) << g.input << " r=" << g.r << " w=" << g.w
                         << " threads=" << leg.threads
                         << " simd=" << SimdModeName(leg.simd)
                         << " pin=" << leg.pin << " views=" << leg.views;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace tristream
