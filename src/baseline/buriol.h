// Buriol et al. adjacency-stream triangle estimator (paper reference [5]),
// re-implemented from scratch for the paper's Sec. 4.2 baseline study.
//
// Each estimator samples a uniform stream edge r1 = {a, b} and an
// *independent uniform vertex* v from the (known) vertex universe, then
// waits for BOTH closing edges {a, v} and {b, v}. A triangle with first
// edge r1 and apex v is detected with probability 1/(m·n), so m·n·X is
// unbiased for τ(G).
//
// Two structural weaknesses the paper calls out (and our benches confirm):
//   * the vertex set must be known in advance (neighborhood sampling needs
//     no such knowledge), and
//   * the random apex is almost never adjacent to r1 in sparse graphs, so
//     the estimator "fails to find a triangle most of the time" -- the
//     success probability is τ/(mn) versus τ/(mΔ)-ish for neighborhood
//     sampling.

#ifndef TRISTREAM_BASELINE_BURIOL_H_
#define TRISTREAM_BASELINE_BURIOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace tristream {
namespace baseline {

/// One Buriol et al. estimator: anchor edge + random apex vertex.
class BuriolEstimator {
 public:
  /// `num_vertices` is the advance-known vertex universe [0, n).
  void Process(const Edge& e, VertexId num_vertices, Rng& rng);

  const StreamEdge& r1() const { return r1_; }
  VertexId apex() const { return apex_; }
  bool found_first() const { return found_[0]; }
  bool found_second() const { return found_[1]; }
  /// True when both closing edges arrived: a triangle was captured.
  bool has_triangle() const { return found_[0] && found_[1]; }
  std::uint64_t edges_seen() const { return edges_seen_; }

  /// Unbiased estimate m·n·X.
  double Estimate(VertexId num_vertices) const {
    return has_triangle() ? static_cast<double>(edges_seen_) *
                                static_cast<double>(num_vertices)
                          : 0.0;
  }

 private:
  StreamEdge r1_;
  VertexId apex_ = kInvalidVertex;
  bool found_[2] = {false, false};
  std::uint64_t edges_seen_ = 0;
};

/// r-estimator Buriol counter.
class BuriolCounter {
 public:
  struct Options {
    std::uint64_t num_estimators = 1 << 10;
    std::uint64_t seed = 0xb41ULL;
    /// The vertex universe size n, required in advance by this algorithm.
    VertexId num_vertices = 0;
  };

  explicit BuriolCounter(const Options& options);

  void ProcessEdge(const Edge& e);
  void ProcessEdges(std::span<const Edge> edges);

  std::uint64_t edges_processed() const { return edges_processed_; }

  /// Mean of the per-estimator unbiased estimates.
  double EstimateTriangles() const;

  /// Fraction of estimators currently holding a completed triangle -- the
  /// yield statistic behind the paper's "fails to find a triangle most of
  /// the time" observation.
  double SuccessRate() const;

  const std::vector<BuriolEstimator>& estimators() const {
    return estimators_;
  }

  /// Bytes held by the r estimators: O(r), independent of the stream.
  std::size_t MemoryBytes() const {
    return estimators_.capacity() * sizeof(BuriolEstimator);
  }

 private:
  Options options_;
  Rng rng_;
  std::vector<BuriolEstimator> estimators_;
  std::uint64_t edges_processed_ = 0;
};

}  // namespace baseline
}  // namespace tristream

#endif  // TRISTREAM_BASELINE_BURIOL_H_
