// Jowhari–Ghodsi one-pass triangle estimator (paper reference [9]),
// re-implemented from scratch as the head-to-head baseline of the paper's
// Tables 1 and 2.
//
// Reconstruction note. The reproduction source attributes space and
// per-edge time O(s(ε,δ)·mΔ²/τ) to JG's one-pass algorithm -- a factor Δ
// worse than neighborhood sampling -- and the distinguishing feature of
// neighborhood sampling is that it tracks the *exact* neighborhood size c
// and normalizes the estimate by it. The JG estimator therefore samples
// blind positions instead: a uniform level-1 edge e = {u, v} plus two
// uniform slot indices i, j ∈ [1, Δ]; it watches for the i-th later edge
// at u and the j-th later edge at v, and scores a hit when both point at
// the same third vertex w (all of {u,v}, {u,w}, {v,w} then exist with
// {u,v} first). A fixed triangle is captured with probability 1/(mΔ²), so
// m·Δ²·hit is unbiased -- with variance (and hence estimator count) a
// factor ~Δ above neighborhood sampling, which is exactly the gap Tables
// 1 and 2 measure. Like the original, the algorithm needs an a-priori
// degree bound Δ.
//
// The module also provides FirstEdgeExhaustiveCounter, an idealized
// O(Δ)-space strengthening that stores the sampled edge's entire later
// neighborhood and counts the triangles at it exactly; it upper-bounds
// what any "sample one edge, watch its neighborhood" scheme can achieve
// and matches the paper's remark that the JG family keeps O(Δ) state per
// estimator.

#ifndef TRISTREAM_BASELINE_JOWHARI_GHODSI_H_
#define TRISTREAM_BASELINE_JOWHARI_GHODSI_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/flat_hash_map.h"
#include "util/rng.h"
#include "util/types.h"

namespace tristream {
namespace baseline {

/// One JG estimator: sampled edge + two blind slot indices.
class JowhariGhodsiEstimator {
 public:
  /// `max_degree_bound` is the Δ the algorithm assumes; slots are drawn
  /// from [1, Δ].
  void Process(const Edge& e, std::uint64_t max_degree_bound, Rng& rng);

  const StreamEdge& r1() const { return r1_; }
  std::uint64_t edges_seen() const { return edges_seen_; }
  /// Later-edge counts at the two endpoints (exact; for tests).
  std::uint64_t count_u() const { return count_u_; }
  std::uint64_t count_v() const { return count_v_; }
  /// The slot indices drawn when r1 was sampled.
  std::uint64_t slot_u() const { return slot_u_; }
  std::uint64_t slot_v() const { return slot_v_; }
  /// Third vertices seen at the sampled slots (kInvalidVertex if the slot
  /// has not fired).
  VertexId hit_u() const { return hit_u_; }
  VertexId hit_v() const { return hit_v_; }

  /// True when both slots fired on the same third vertex (triangle found).
  bool has_triangle() const {
    return hit_u_ != kInvalidVertex && hit_u_ == hit_v_;
  }

  /// Unbiased estimate m·Δ²·hit.
  double Estimate(std::uint64_t max_degree_bound) const {
    if (!has_triangle()) return 0.0;
    const auto delta = static_cast<double>(max_degree_bound);
    return static_cast<double>(edges_seen_) * delta * delta;
  }

 private:
  StreamEdge r1_;
  std::uint64_t edges_seen_ = 0;
  std::uint64_t count_u_ = 0, count_v_ = 0;
  std::uint64_t slot_u_ = 0, slot_v_ = 0;
  VertexId hit_u_ = kInvalidVertex, hit_v_ = kInvalidVertex;
};

/// r-estimator JG counter (O(m·r) time).
class JowhariGhodsiCounter {
 public:
  struct Options {
    std::uint64_t num_estimators = 1 << 10;
    std::uint64_t seed = 0x96ULL;
    /// Degree bound Δ the algorithm assumes (must be >= the true max
    /// degree for unbiasedness).
    std::uint64_t max_degree_bound = 0;
  };

  explicit JowhariGhodsiCounter(const Options& options);

  void ProcessEdge(const Edge& e);
  void ProcessEdges(std::span<const Edge> edges);

  std::uint64_t edges_processed() const { return edges_processed_; }

  /// Mean of the per-estimator unbiased estimates.
  double EstimateTriangles() const;

  const std::vector<JowhariGhodsiEstimator>& estimators() const {
    return estimators_;
  }

  /// Bytes held by the r estimators: O(r), independent of the stream.
  std::size_t MemoryBytes() const {
    return estimators_.capacity() * sizeof(JowhariGhodsiEstimator);
  }

 private:
  Options options_;
  Rng rng_;
  std::vector<JowhariGhodsiEstimator> estimators_;
  std::uint64_t edges_processed_ = 0;
};

/// Idealized O(Δ)-space variant: stores the full later-neighborhood of the
/// sampled edge and counts the triangles whose first stream edge it is,
/// exactly (X = s(r1); m·X unbiased). Used as a strong comparison point in
/// the baseline benches and tests.
class FirstEdgeExhaustiveEstimator {
 public:
  void Process(const Edge& e, Rng& rng);

  const StreamEdge& r1() const { return r1_; }
  std::uint64_t triangles_at_r1() const { return triangles_; }
  std::uint64_t edges_seen() const { return edges_seen_; }

  double Estimate() const {
    return static_cast<double>(edges_seen_) *
           static_cast<double>(triangles_);
  }

  /// Bytes of neighborhood state (the O(Δ) cost).
  std::size_t NeighborhoodBytes() const {
    return side_u_.MemoryBytes() + side_v_.MemoryBytes();
  }

 private:
  StreamEdge r1_;
  FlatHashSet side_u_{8};
  FlatHashSet side_v_{8};
  std::uint64_t triangles_ = 0;
  std::uint64_t edges_seen_ = 0;
};

/// r-estimator exhaustive-neighborhood counter.
class FirstEdgeExhaustiveCounter {
 public:
  struct Options {
    std::uint64_t num_estimators = 1 << 10;
    std::uint64_t seed = 0x97ULL;
  };

  explicit FirstEdgeExhaustiveCounter(const Options& options);

  void ProcessEdge(const Edge& e);
  void ProcessEdges(std::span<const Edge> edges);

  std::uint64_t edges_processed() const { return edges_processed_; }
  double EstimateTriangles() const;
  std::size_t NeighborhoodBytes() const;

  /// Bytes held by the r estimators and their neighborhood sets. The sets
  /// grow with the sampled edges' later degrees, so this grows with the
  /// stream.
  std::size_t MemoryBytes() const {
    return estimators_.capacity() * sizeof(FirstEdgeExhaustiveEstimator) +
           NeighborhoodBytes();
  }

  const std::vector<FirstEdgeExhaustiveEstimator>& estimators() const {
    return estimators_;
  }

 private:
  Rng rng_;
  std::vector<FirstEdgeExhaustiveEstimator> estimators_;
  std::uint64_t edges_processed_ = 0;
};

}  // namespace baseline
}  // namespace tristream

#endif  // TRISTREAM_BASELINE_JOWHARI_GHODSI_H_
