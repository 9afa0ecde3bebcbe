// Streaming triangle counting with r neighborhood-sampling estimators.
//
// Two engines implement the same estimator semantics:
//   * NaiveTriangleCounter -- feeds every edge to every estimator, O(m·r)
//     time (the paper's strawman; kept for differential testing and the
//     bulk-vs-naive ablation);
//   * TriangleCounter -- the bulk algorithm of Sec. 3.3 (Theorem 3.5):
//     batches of w edges are absorbed in O(r + w) time and O(r + w) space,
//     so with w = Θ(r) the whole stream costs O(m + r) -- amortized O(1)
//     per edge. Algorithm 2 runs once per batch into a read-only index
//     (core/bulk_engine.h) against which every estimator resolves its
//     Observation 3.6 events; the per-estimator draws (level-1
//     resampling, the level-2 candidate draw) run as SIMD lane sweeps over
//     counter-based RNG streams (src/core/README.md documents the pipeline
//     and the determinism contract).
//
// Both expose unbiased estimates of the triangle count τ (Lemma 3.2), the
// wedge count ζ (Lemma 3.10), and the transitivity coefficient κ = 3τ/ζ
// (Theorem 3.12), aggregated by plain averaging (Theorem 3.3) or
// median-of-means (Theorem 3.4).

#ifndef TRISTREAM_CORE_TRIANGLE_COUNTER_H_
#define TRISTREAM_CORE_TRIANGLE_COUNTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/serial.h"
#include "core/bulk_engine.h"
#include "core/neighborhood_sampler.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace core {

namespace kernels {
struct KernelTable;
}  // namespace kernels

/// How per-estimator values are combined into one estimate.
enum class Aggregation {
  kMean,           // Theorem 3.3
  kMedianOfMeans,  // Theorem 3.4 (robust to the heavy-tailed estimator)
};

/// Configuration shared by both counter engines.
struct TriangleCounterOptions {
  /// Number of independent estimators r. Accuracy scales like
  /// sqrt(mΔ/(τ·r)) (Theorem 3.3); the paper's experiments use 1K..4M.
  std::uint64_t num_estimators = 1 << 17;

  /// RNG seed; runs are deterministic per seed.
  std::uint64_t seed = 0x7215ee9c7d9dc229ULL;

  /// Aggregation rule for estimates.
  Aggregation aggregation = Aggregation::kMean;

  /// Group count β for median-of-means (Theorem 3.4 uses 12·ln(1/δ)).
  std::uint32_t median_groups = 12;

  /// Bulk batch size w. 0 selects the paper's recommendation w = 8r
  /// (Sec. 4.3 uses w = 8r as the default operating point).
  std::size_t batch_size = 0;

  /// Vector ISA for the per-estimator lane sweeps. Every choice computes
  /// bit-identical estimates (pure integer math over counter-based RNG
  /// draws), so this is a throughput knob only; it is excluded from the
  /// checkpoint fingerprint. Requesting an ISA the host CPU lacks is a
  /// configuration error (MakeEstimator validates; direct construction
  /// CHECK-fails).
  SimdMode simd = SimdMode::kAuto;
};

/// Aggregates per-estimator unbiased values per the configured rule.
double AggregateEstimates(const std::vector<double>& values,
                          Aggregation aggregation,
                          std::uint32_t median_groups);

/// The full state of one bulk estimator (the paper's est_i). 48 bytes.
/// This is the *snapshot* view returned by TriangleCounter::estimators();
/// internally the engine stores the hot fields (r1_pos, c) in separate
/// arrays (SoA) so the per-batch sweeps touch fewer cache lines.
struct EstimatorState {
  Edge r1;                                    // level-1 edge
  Edge r2;                                    // level-2 edge
  EdgeIndex r1_pos = kInvalidEdgeIndex;       // stream position of r1
  EdgeIndex r2_pos = kInvalidEdgeIndex;       // stream position of r2
  std::uint64_t c = 0;                        // |N(r1)| so far
  bool has_triangle = false;                  // wedge r1r2 closed?

  bool has_r1() const { return r1_pos != kInvalidEdgeIndex; }
  bool has_r2() const { return r2_pos != kInvalidEdgeIndex; }
};

/// O(m·r) reference engine: a plain array of NeighborhoodSampler.
class NaiveTriangleCounter {
 public:
  explicit NaiveTriangleCounter(const TriangleCounterOptions& options);

  /// Feeds one stream edge to every estimator.
  void ProcessEdge(const Edge& e);

  /// Feeds a sequence of edges in order.
  void ProcessEdges(std::span<const Edge> edges);

  /// Edges observed so far.
  std::uint64_t edges_processed() const { return edges_processed_; }

  /// Aggregated estimate of the triangle count τ(G).
  double EstimateTriangles() const;

  /// Aggregated estimate of the wedge count ζ(G).
  double EstimateWedges() const;

  /// Estimate of the transitivity κ(G) = 3τ/ζ; 0 when the wedge estimate
  /// is 0 (Theorem 3.12 combines the two unbiased estimators).
  double EstimateTransitivity() const;

  /// Estimator array (for tests and samplers built on top).
  const std::vector<NeighborhoodSampler>& estimators() const {
    return estimators_;
  }

 private:
  TriangleCounterOptions options_;
  Rng rng_;
  std::vector<NeighborhoodSampler> estimators_;
  std::uint64_t edges_processed_ = 0;
};

/// Bulk engine (Theorem 3.5). Edges may be pushed one at a time or in
/// blocks; internally they are absorbed in batches of options.batch_size.
class TriangleCounter {
 public:
  explicit TriangleCounter(const TriangleCounterOptions& options);

  /// Buffers one edge, absorbing a batch when the buffer fills.
  void ProcessEdge(const Edge& e);

  /// Buffers a block of edges (absorbing full batches as reached).
  void ProcessEdges(std::span<const Edge> edges);

  /// Absorbs any buffered edges immediately. Estimates call this
  /// implicitly; it exists so callers can bound staleness themselves.
  void Flush();

  /// Total edges pushed (buffered edges included).
  std::uint64_t edges_processed() const {
    return applied_edges_ + pending_.size();
  }

  /// Edges buffered but not yet absorbed. When zero, Flush() is a no-op
  /// and estimates can be read without perturbing the RNG trajectory --
  /// the condition serve-mode snapshots check before answering a query
  /// mid-stream while preserving bit-identity with an unqueried run.
  std::size_t pending_edges() const { return pending_.size(); }

  /// Aggregated estimate of τ(G) over everything pushed so far.
  double EstimateTriangles();

  /// Aggregated estimate of ζ(G).
  double EstimateWedges();

  /// Estimate of κ(G) = 3τ̂/ζ̂ (0 when ζ̂ = 0).
  double EstimateTransitivity();

  /// Estimator states (flushes first). Primarily for tests and for the
  /// uniform triangle sampler, which consumes (c, triangle) pairs.
  /// Materialized from the internal SoA layout on each call; the reference
  /// stays valid until the next non-const member call.
  const std::vector<EstimatorState>& estimators();

  /// Raw per-estimator unbiased values (flushes first). Exposed for tests
  /// and single-shard consumers; multi-shard wrappers should prefer
  /// ComputePartials, which reduces without materializing r doubles.
  std::vector<double> PerEstimatorTriangleEstimates();
  std::vector<double> PerEstimatorWedgeEstimates();

  /// Shard-local reduction of the per-estimator unbiased values, for
  /// multi-shard wrappers (core::ParallelTriangleCounter): each shard
  /// folds its own estimators -- on its own worker thread -- and the
  /// caller combines O(shards) partials instead of concatenating r
  /// doubles. Covers both aggregation rules in one pass:
  ///   * mean (Theorem 3.3): triangle_sum / wedge_sum over `count`;
  ///   * median-of-means (Theorem 3.4): per-group partial sums against the
  ///     *global* contiguous partition of util::MedianOfMeans -- group g
  ///     covers global estimator indices [g*n/G, (g+1)*n/G) where n =
  ///     `global_count`, G = `median_groups` -- so group boundaries are
  ///     identical to aggregating the concatenated vector, whichever
  ///     shards a group straddles.
  struct EstimatorPartials {
    std::uint64_t count = 0;      // estimators reduced (this shard's r)
    double triangle_sum = 0.0;    // Σ per-estimator triangle values
    double wedge_sum = 0.0;       // Σ per-estimator wedge values
    /// First global group this shard's range overlaps; the vectors below
    /// cover consecutive groups starting there. Empty when the caller
    /// requested a mean-only reduction (median_groups == 0).
    std::size_t first_group = 0;
    std::vector<double> triangle_group_sums;
    std::vector<double> wedge_group_sums;
    std::vector<std::uint64_t> group_counts;
  };

  /// Reduces this shard's estimators, which occupy global indices
  /// [global_first, global_first + r) of a `global_count`-estimator
  /// ensemble. `median_groups` == 0 (or a degenerate grouping, G <= 1 or
  /// global_count <= G) skips the per-group sums. Flushes first.
  EstimatorPartials ComputePartials(std::uint64_t global_first,
                                    std::uint64_t global_count,
                                    std::uint32_t median_groups);

  /// Effective batch size w in use.
  std::size_t batch_size() const { return batch_size_; }

  /// The instruction set the lane sweeps actually run on, after resolving
  /// options.simd against the host CPU ("scalar", "avx2", "avx512").
  /// Config echoes and bench JSON record this so results name the ISA.
  const char* simd_isa_name() const { return SimdIsaName(isa_); }

  /// Serializes the complete stream state -- the batch counter that
  /// positions the counter-based RNG, the SoA estimator arrays, and the
  /// partially filled pending batch -- without flushing (a flush would
  /// absorb a partial batch and perturb the draw trajectory relative to an
  /// uninterrupted run).
  void SaveState(ckpt::ByteSink& sink) const;

  /// Restores a SaveState blob into this counter. The counter must be
  /// configured with the same (r, seed, batch) options as the saver -- but
  /// not the same simd mode; snapshots are ISA-portable -- the estimator
  /// count is re-validated here, everything else by the caller's config
  /// fingerprint. On failure the state is unspecified.
  Status RestoreState(ckpt::ByteSource& source);

  /// Memory accounting, mirroring the paper's Sec. 4.3 discussion
  /// (estimator state vs. transient per-batch working space).
  struct MemoryStats {
    std::size_t estimator_bytes = 0;      // persistent: r states
    std::size_t per_estimator_bytes = 0;  // sizeof one state
    std::size_t batch_scratch_bytes = 0;  // transient per-batch tables
  };
  MemoryStats ApproxMemoryUsage() const;

  /// Steady-state footprint in bytes of a counter with r estimators that
  /// absorbs batches of w edges: the estimator arrays plus every batch
  /// table at the size ApplyBatch gives it when the batch touches 2w
  /// vertices and every lane is a candidate. A function of (r, w) alone,
  /// so it holds from construction on, before any batch table exists.
  static std::size_t SteadyStateBytes(std::uint64_t r, std::size_t w);

  /// SteadyStateBytes at this counter's r and batch size (for a
  /// self-batching counter; the parallel wrapper sizes its shards at its
  /// own w).
  std::size_t MemoryBytes() const {
    return SteadyStateBytes(cold_.size(), batch_size_);
  }

 private:
  /// Cold per-estimator fields, touched only when an estimator resamples
  /// or completes a level-2 event. The hot fields of EstimatorState --
  /// r1_pos (the has_r1 test), c (read and written in the Step-2b
  /// candidate-count pass and swept by both estimate gathers), and the r1
  /// endpoints (probed for every lane by the SIMD candidate filter) --
  /// live in the r1_pos_/c_/r1_uv_ arrays instead, so those sweeps
  /// stream over narrow contiguous entries rather than 48-byte structs.
  struct ColdState {
    Edge r2;                               // level-2 edge
    EdgeIndex r2_pos = kInvalidEdgeIndex;  // stream position of r2
    bool has_triangle = false;             // wedge r1r2 closed?
  };

  struct CloserLink {    // one Q subscription
    std::uint32_t next;  // next entry in its chain, kNil at the end
    std::uint32_t from;  // first batch position that may close the wedge
  };

  void ApplyBatch(std::span<const Edge> batch);

  TriangleCounterOptions options_;
  std::size_t batch_size_;
  SimdIsa isa_;                             // resolved from options_.simd
  const kernels::KernelTable* kernels_;     // lane-sweep kernels for isa_
  std::uint64_t batch_no_ = 0;  // Threefry counter word: batches absorbed
  std::vector<ColdState> cold_;      // SoA: cold estimator fields
  std::vector<EdgeIndex> r1_pos_;    // SoA: stream position of r1 (hot)
  std::vector<std::uint64_t> c_;     // SoA: |N(r1)| so far (hot)
  std::vector<std::uint64_t> r1_uv_;  // SoA: level-1 endpoints, packed
                                      //   (u = low 32 bits, v = high 32)
  std::vector<EstimatorState> snapshot_;  // lazily built by estimators()
  std::vector<Edge> pending_;
  std::uint64_t applied_edges_ = 0;

  // Reusable per-batch scratch (rebuilt per batch; see Sec. 3.3.2).
  BatchIndex index_;                      // Algorithm 2's events over B
  FlatHashMap<std::uint32_t> closers_;    // Q: awaited edge key -> chain head
  std::vector<CloserLink> closer_chain_;  // Q chain storage (per candidate)
  std::vector<std::uint64_t> draw2_;      // per-lane Step-2b draw word
  std::vector<std::uint32_t> replacers_;  // lanes replacing r1 (ascending)
  std::vector<std::uint32_t> replace_batch_idx_;  // their chosen batch edge
  std::vector<std::uint32_t> candidates_;  // lanes passing the Bloom filter
  std::vector<std::uint64_t> bloom_;       // batch-vertex Bloom bits
  std::vector<std::uint64_t> closer_filter_;  // Q key filter bits
};

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_TRIANGLE_COUNTER_H_
