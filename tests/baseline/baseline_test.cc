// Tests for the prior-work baselines: Jowhari–Ghodsi, Buriol et al., and
// Pagh–Tsourakakis colorful sampling. Each gets deterministic state
// invariants plus an unbiasedness check against exact counts.

#include <cmath>
#include <string>

#include "baseline/buriol.h"
#include "baseline/colorful.h"
#include "baseline/jowhari_ghodsi.h"
#include "core/triangle_counter.h"
#include "engine/estimators.h"
#include "gen/erdos_renyi.h"
#include "graph/csr.h"
#include "graph/exact.h"
#include "gtest/gtest.h"
#include "stream/edge_stream.h"
#include "tests/core/core_test_util.h"
#include "util/rng.h"

namespace tristream {
namespace baseline {
namespace {

using core::CanonicalStream;

// --------------------------------------------------------- JowhariGhodsi

TEST(JowhariGhodsiTest, SlotCountersMatchExactReplay) {
  // count_u / count_v must equal the exact number of later edges at the
  // anchor endpoints, and the hit vertices must match the slot positions.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(20, 0.4, 3), 5);
  Rng rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    JowhariGhodsiEstimator est;
    for (const Edge& e : stream.edges()) est.Process(e, 40, rng);
    ASSERT_TRUE(est.r1().valid());
    const Edge anchor = est.r1().edge;
    std::uint64_t cu = 0, cv = 0;
    VertexId wu = kInvalidVertex, wv = kInvalidVertex;
    for (std::size_t p = static_cast<std::size_t>(est.r1().pos) + 1;
         p < stream.size(); ++p) {
      const Edge& e = stream[p];
      if (e.Contains(anchor.u)) {
        if (++cu == est.slot_u()) wu = e.Other(anchor.u);
      } else if (e.Contains(anchor.v)) {
        if (++cv == est.slot_v()) wv = e.Other(anchor.v);
      }
    }
    EXPECT_EQ(est.count_u(), cu);
    EXPECT_EQ(est.count_v(), cv);
    EXPECT_EQ(est.hit_u(), wu);
    EXPECT_EQ(est.hit_v(), wv);
    EXPECT_EQ(est.has_triangle(), wu != kInvalidVertex && wu == wv);
  }
}

TEST(JowhariGhodsiTest, HitImpliesRealTriangle) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(20, 0.5, 9), 6);
  const auto csr = graph::Csr::FromEdgeList(stream);
  Rng rng(8);
  int hits = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    JowhariGhodsiEstimator est;
    for (const Edge& e : stream.edges()) est.Process(e, 25, rng);
    if (est.has_triangle()) {
      ++hits;
      EXPECT_TRUE(csr.HasEdge(est.r1().edge.u, est.hit_u()));
      EXPECT_TRUE(csr.HasEdge(est.r1().edge.v, est.hit_u()));
    }
  }
  EXPECT_GT(hits, 0);
}

TEST(JowhariGhodsiTest, UnbiasedOnCanonicalStream) {
  // Pr[capture t] = 1/(m·Δ²) per triangle; E[m·Δ²·hit] = τ = 5.
  // Per-estimator second moment = m·Δ²·τ = 9·25·5 = 1125.
  JowhariGhodsiCounter::Options opt;
  opt.num_estimators = 300000;
  opt.seed = 2;
  opt.max_degree_bound = 5;
  JowhariGhodsiCounter counter(opt);
  const auto stream = CanonicalStream();
  counter.ProcessEdges(stream.edges());
  const double sigma_mean = std::sqrt(1125.0 / 300000.0);
  EXPECT_NEAR(counter.EstimateTriangles(), 5.0, 5 * sigma_mean);
}

TEST(JowhariGhodsiTest, NoisierThanNeighborhoodSamplingAtEqualR) {
  // The Δ² penalty: at the same r on a skewed graph, JG's squared error
  // across repetitions must exceed ours (this is the whole point of
  // Tables 1 and 2).
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(40, 0.25, 11), 7);
  const auto summary_csr = graph::Csr::FromEdgeList(stream);
  const auto tau = static_cast<double>(graph::CountTriangles(summary_csr));
  ASSERT_GT(tau, 0.0);
  double jg_sq = 0.0, ours_sq = 0.0;
  constexpr int kReps = 12;
  for (int rep = 0; rep < kReps; ++rep) {
    JowhariGhodsiCounter::Options jopt;
    jopt.num_estimators = 3000;
    jopt.seed = 100 + static_cast<std::uint64_t>(rep);
    jopt.max_degree_bound = summary_csr.MaxDegree();
    JowhariGhodsiCounter jg(jopt);
    jg.ProcessEdges(stream.edges());
    jg_sq += std::pow(jg.EstimateTriangles() - tau, 2);

    core::TriangleCounterOptions oopt;
    oopt.num_estimators = 3000;
    oopt.seed = 200 + static_cast<std::uint64_t>(rep);
    core::TriangleCounter ours(oopt);
    ours.ProcessEdges(stream.edges());
    ours_sq += std::pow(ours.EstimateTriangles() - tau, 2);
  }
  EXPECT_GT(jg_sq, 2.0 * ours_sq);
}

TEST(JowhariGhodsiTest, EmptyStreamIsZero) {
  JowhariGhodsiCounter counter(
      {.num_estimators = 10, .seed = 1, .max_degree_bound = 5});
  EXPECT_EQ(counter.EstimateTriangles(), 0.0);
}

// --------------------------------------------- FirstEdgeExhaustive variant

TEST(FirstEdgeExhaustiveTest, TriangleCountAtR1MatchesExactS) {
  // X must equal s(r1) -- the number of triangles whose first stream edge
  // is r1 -- deterministically, for every run.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(20, 0.4, 3), 5);
  const auto stats = graph::ComputeStreamOrderStats(stream);
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    FirstEdgeExhaustiveEstimator est;
    for (const Edge& e : stream.edges()) est.Process(e, rng);
    ASSERT_TRUE(est.r1().valid());
    EXPECT_EQ(est.triangles_at_r1(),
              stats.s[static_cast<std::size_t>(est.r1().pos)])
        << "r1 at " << est.r1().pos;
  }
}

TEST(FirstEdgeExhaustiveTest, UnbiasedOnCanonicalStream) {
  // E[m·X] = Σ s(e) = τ = 5.
  FirstEdgeExhaustiveCounter::Options opt;
  opt.num_estimators = 60000;
  opt.seed = 2;
  FirstEdgeExhaustiveCounter counter(opt);
  const auto stream = CanonicalStream();
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTriangles(), 5.0, 0.4);
}

TEST(FirstEdgeExhaustiveTest, AccurateOnRandomGraph) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(60, 500, 5), 55);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(stream)));
  ASSERT_GT(tau, 0.0);
  FirstEdgeExhaustiveCounter::Options opt;
  opt.num_estimators = 20000;
  opt.seed = 3;
  FirstEdgeExhaustiveCounter counter(opt);
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.2 * tau);
}

TEST(FirstEdgeExhaustiveTest, UsesNeighborhoodMemory) {
  // The structural cost of this family: state grows with the sampled
  // edge's degree.
  FirstEdgeExhaustiveCounter::Options opt;
  opt.num_estimators = 100;
  FirstEdgeExhaustiveCounter counter(opt);
  // Star: every estimator's r1 touches the hub, so neighborhoods fill up.
  for (VertexId leaf = 1; leaf <= 500; ++leaf) {
    counter.ProcessEdge(Edge(0, leaf));
  }
  EXPECT_GT(counter.NeighborhoodBytes(), 100u * 64u);
}

// ----------------------------------------------------------------- Buriol

TEST(BuriolTest, FlagsMatchExactReplay) {
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnpRandom(15, 0.5, 9), 10);
  auto pos = graph::BuildEdgePositionIndex(stream);
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    BuriolEstimator est;
    for (const Edge& e : stream.edges()) est.Process(e, 15, rng);
    ASSERT_TRUE(est.r1().valid());
    if (est.r1().edge.Contains(est.apex())) {
      EXPECT_FALSE(est.has_triangle());
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const VertexId endpoint =
          side == 0 ? est.r1().edge.u : est.r1().edge.v;
      const Edge want(endpoint, est.apex());
      const EdgeIndex* p = pos.Find(want.Key());
      const bool exists_after = p != nullptr && *p > est.r1().pos;
      EXPECT_EQ(side == 0 ? est.found_first() : est.found_second(),
                exists_after);
    }
  }
}

TEST(BuriolTest, UnbiasedOnDenseGraph) {
  // Small dense graph keeps the success probability workable: τ/(mn).
  const auto stream = gen::GnpRandom(10, 0.8, 13);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(stream)));
  ASSERT_GT(tau, 20.0);
  BuriolCounter::Options opt;
  opt.num_estimators = 120000;
  opt.seed = 14;
  opt.num_vertices = 10;
  BuriolCounter counter(opt);
  counter.ProcessEdges(stream.edges());
  EXPECT_NEAR(counter.EstimateTriangles(), tau, 0.25 * tau);
}

TEST(BuriolTest, MostlyFailsOnSparseGraphs) {
  // The paper's observation: on sparse graphs the uniform apex almost
  // never completes a triangle.
  const auto stream =
      stream::ShuffleStreamOrder(gen::GnmRandom(2000, 6000, 15), 16);
  BuriolCounter::Options opt;
  opt.num_estimators = 2000;
  opt.seed = 17;
  opt.num_vertices = 2000;
  BuriolCounter counter(opt);
  counter.ProcessEdges(stream.edges());
  EXPECT_LT(counter.SuccessRate(), 0.01);
}

// --------------------------------------------------------------- Colorful

TEST(ColorfulTest, KeepsExactlyMonochromaticEdges) {
  ColorfulTriangleCounter counter({.num_colors = 4, .seed = 21});
  const auto stream = gen::GnmRandom(200, 2000, 19);
  std::uint64_t expected_kept = 0;
  for (const Edge& e : stream.edges()) {
    if (counter.ColorOf(e.u) == counter.ColorOf(e.v)) ++expected_kept;
    counter.ProcessEdge(e);
  }
  EXPECT_EQ(counter.edges_kept(), expected_kept);
  // Kept fraction ≈ 1/C.
  EXPECT_NEAR(static_cast<double>(counter.edges_kept()),
              2000.0 / 4.0, 5 * std::sqrt(2000.0 * 0.25 * 0.75));
}

TEST(ColorfulTest, SubgraphCountMatchesExactRecount) {
  const auto stream = gen::GnpRandom(60, 0.25, 23);
  ColorfulTriangleCounter counter({.num_colors = 3, .seed = 24});
  graph::EdgeList kept;
  for (const Edge& e : stream.edges()) {
    counter.ProcessEdge(e);
    if (counter.ColorOf(e.u) == counter.ColorOf(e.v)) kept.Add(e);
  }
  EXPECT_EQ(counter.SubgraphTriangles(),
            graph::CountTriangles(graph::Csr::FromEdgeList(kept)));
}

TEST(ColorfulTest, UnbiasedAcrossSeeds) {
  // E over the coloring of C²·τ(G~) is τ; average over many seeds.
  const auto stream = gen::GnpRandom(40, 0.4, 25);
  const auto tau = static_cast<double>(
      graph::CountTriangles(graph::Csr::FromEdgeList(stream)));
  ASSERT_GT(tau, 100.0);
  double sum = 0.0;
  constexpr int kSeeds = 300;
  for (int s = 0; s < kSeeds; ++s) {
    ColorfulTriangleCounter counter(
        {.num_colors = 3, .seed = 1000 + static_cast<std::uint64_t>(s)});
    counter.ProcessEdges(stream.edges());
    sum += counter.EstimateTriangles();
  }
  const double mean = sum / kSeeds;
  EXPECT_NEAR(mean, tau, 0.15 * tau);
}

TEST(ColorfulTest, MoreColorsKeepFewerEdges) {
  const auto stream = gen::GnmRandom(500, 5000, 27);
  ColorfulTriangleCounter few({.num_colors = 2, .seed = 28});
  ColorfulTriangleCounter many({.num_colors = 16, .seed = 28});
  few.ProcessEdges(stream.edges());
  many.ProcessEdges(stream.edges());
  EXPECT_GT(few.edges_kept(), 4 * many.edges_kept());
}

TEST(ColorfulTest, DuplicateEdgesIgnored) {
  ColorfulTriangleCounter counter({.num_colors = 1, .seed = 29});
  counter.ProcessEdge(Edge(1, 2));
  counter.ProcessEdge(Edge(2, 1));
  EXPECT_EQ(counter.edges_kept(), 1u);
}

TEST(ColorfulTest, SingleColorIsExactCounting) {
  // C = 1 keeps everything: the estimate equals the exact count.
  const auto stream = gen::GnpRandom(30, 0.4, 31);
  const auto tau = graph::CountTriangles(graph::Csr::FromEdgeList(stream));
  ColorfulTriangleCounter counter({.num_colors = 1, .seed = 32});
  counter.ProcessEdges(stream.edges());
  EXPECT_EQ(counter.SubgraphTriangles(), tau);
  EXPECT_DOUBLE_EQ(counter.EstimateTriangles(), static_cast<double>(tau));
}

// ------------------------------------------------------------- metering

TEST(BaselineMemoryTest, EveryBaselineMetersItsState) {
  // serve charges a session its estimator's approx_memory_bytes(), and
  // count prints it. Buriol's and JG's state is their r estimators, fixed
  // from the start; colorful's kept subgraph and first-edge's neighborhood
  // sets grow with the stream.
  const auto stream = gen::GnmRandom(100, 600, 33);
  engine::EstimatorConfig config;
  config.num_estimators = 64;
  config.seed = 34;
  config.num_vertices = 100;
  config.max_degree_bound = 100;
  for (const char* algo : {"buriol", "jg", "colorful", "first-edge"}) {
    auto made = engine::MakeEstimator(algo, config);
    ASSERT_TRUE(made.ok()) << made.status();
    const std::size_t fresh = (*made)->approx_memory_bytes();
    (*made)->ProcessEdges(stream.edges());
    const std::size_t after = (*made)->approx_memory_bytes();
    EXPECT_GT(after, 0u) << algo;
    if (std::string(algo) == "buriol" || std::string(algo) == "jg") {
      EXPECT_EQ(after, fresh) << algo;
      EXPECT_GE(after, 64 * sizeof(StreamEdge)) << algo;
    } else {
      EXPECT_GT(after, fresh) << algo;
    }
  }
}

}  // namespace
}  // namespace baseline
}  // namespace tristream
