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
//     and the determinism contract), on the caller or on worker threads.
//     Estimators meet a batch only at their r1 endpoints, so one Bloom
//     filter trims the larger side of that join: at w <= r/8 the batch's
//     vertices filter the lane sweep, at w > r/8 (every default w = 8r)
//     the lanes' r1 endpoints filter the index, which then holds only the
//     incidences some lane can read. Neither filter moves an estimate.
//
// Both expose unbiased estimates of the triangle count τ (Lemma 3.2), the
// wedge count ζ (Lemma 3.10), and the transitivity coefficient κ = 3τ/ζ
// (Theorem 3.12), aggregated by plain averaging (Theorem 3.3) or
// median-of-means (Theorem 3.4).

#ifndef TRISTREAM_CORE_TRIANGLE_COUNTER_H_
#define TRISTREAM_CORE_TRIANGLE_COUNTER_H_

#include <barrier>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/serial.h"
#include "core/bulk_engine.h"
#include "core/neighborhood_sampler.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace tristream {
namespace core {

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

  /// Bulk engine only: worker threads that absorb batches. 0 absorbs each
  /// batch inline on the calling thread; T >= 1 absorbs on a T-worker pool
  /// while the caller buffers the next batch. Lanes draw from their
  /// global RNG streams whichever worker runs them, so, like simd, this
  /// never changes an estimate and is excluded from the checkpoint
  /// fingerprint. Clamped to num_estimators.
  std::uint32_t num_threads = 0;

  /// Pin worker k to the k-th cpu (mod count) of the process affinity
  /// mask (util::AffinityPinPlan). Placement only; off by default, since
  /// pinning helps when the workers own their cores and hurts when the
  /// machine is shared.
  bool pin_threads = false;
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
///
/// With num_threads = T >= 1 the counter owns a T-worker pool and two
/// batch buffers: the caller fills one while the workers absorb the other.
/// Each batch is one pool generation, and worker k owns the k-th of T
/// contiguous lane ranges. At w <= r/8 worker 0 builds the batch's Bloom
/// filter and the batch index, and after a barrier worker k runs the lane
/// sweep, Steps 1/2a/2b and the closer pass over its range. At w > r/8
/// worker k sweeps its range first; after a barrier worker 0 builds the
/// lane filter and the filtered index, and after a second one worker k
/// runs Steps 1/2a/2b and the closer pass. Each worker compacts into its
/// own slice of the lane-sized scratch arrays with its own Q table. The
/// caller reads estimates after waiting for the pool. Estimator state is
/// touched only by the workers while a batch is in flight and only by the
/// caller otherwise, so none of it is locked.
class TriangleCounter {
 public:
  explicit TriangleCounter(const TriangleCounterOptions& options);
  /// The workers hold `this`, so a counter is neither copied nor moved.
  TriangleCounter(const TriangleCounter&) = delete;
  TriangleCounter& operator=(const TriangleCounter&) = delete;

  /// Buffers one edge, absorbing a batch when the buffer fills.
  void ProcessEdge(const Edge& e);

  /// Buffers a block of edges (absorbing full batches as reached).
  void ProcessEdges(std::span<const Edge> edges);

  /// The zero-copy ingest hook engine adapters drive. A view of exactly
  /// batch_size() edges that starts at a batch boundary is absorbed in
  /// place; any other view is buffered like ProcessEdges. Either way batch
  /// boundaries fall every w edges, so estimates do not depend on how the
  /// stream is cut into views. With worker threads the call may return
  /// while the workers still read the view: it must stay valid until the
  /// next call into the counter returns.
  void AbsorbBatchView(std::span<const Edge> view);

  /// Absorbs any buffered edges and waits for the workers (a full
  /// barrier). Estimates call this implicitly; it exists so callers can
  /// bound staleness themselves.
  void Flush();

  /// Total edges pushed (buffered edges included).
  std::uint64_t edges_processed() const {
    return applied_edges_ + pending_.size();
  }

  /// Edges buffered but not yet absorbed. When zero, Flush() only waits
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

  /// Raw per-estimator unbiased values in lane order (flushes first).
  std::vector<double> PerEstimatorTriangleEstimates();
  std::vector<double> PerEstimatorWedgeEstimates();

  /// Effective batch size w in use.
  std::size_t batch_size() const { return batch_size_; }

  /// Worker threads absorbing batches (0 = inline on the caller).
  std::uint32_t num_threads() const {
    return pool_ != nullptr ? static_cast<std::uint32_t>(pool_->size()) : 0;
  }

  /// True when every worker was bound to its planned cpu (false when
  /// pinning was off or unavailable, or any pin failed).
  bool pinned() const { return all_pinned_; }

  /// The instruction set the lane sweeps actually run on, after resolving
  /// options.simd against the host CPU ("scalar", "avx2", "avx512").
  /// Config echoes and bench JSON record this so results name the ISA.
  const char* simd_isa_name() const { return SimdIsaName(isa_); }

  /// Serializes the complete stream state -- the batch counter that
  /// positions the counter-based RNG, the SoA estimator arrays, and the
  /// partially filled pending batch -- without flushing (a flush would
  /// absorb a partial batch and perturb the draw trajectory relative to an
  /// uninterrupted run). Waits for an in-flight batch first. The bytes do
  /// not depend on num_threads.
  void SaveState(ckpt::ByteSink& sink);

  /// Restores a SaveState blob into this counter. The counter must be
  /// configured with the same (r, seed, batch) options as the saver -- but
  /// not the same simd mode or thread count; snapshots are portable
  /// across both -- the estimator count is re-validated here, everything
  /// else by the caller's config fingerprint. On failure the state is
  /// unspecified.
  Status RestoreState(ckpt::ByteSource& source);

  /// Memory accounting, mirroring the paper's Sec. 4.3 discussion
  /// (estimator state vs. transient per-batch working space).
  struct MemoryStats {
    std::size_t estimator_bytes = 0;      // persistent: r states
    std::size_t per_estimator_bytes = 0;  // sizeof one state
    std::size_t batch_scratch_bytes = 0;  // transient per-batch tables
  };
  /// What the counter holds now (waits for an in-flight batch first).
  MemoryStats ApproxMemoryUsage();

  /// Steady-state footprint in bytes: the estimator arrays plus every
  /// batch table at the size a batch of w edges that touches 2w vertices
  /// gives it when every lane is a candidate and (at w > r/8) the lane
  /// filter passes every vertex, and the batch buffers. A
  /// function of (r, w, num_threads) alone, so it holds from construction
  /// on, before any batch table exists; flat in num_threads.
  std::size_t MemoryBytes() const;

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

  /// Lanes [first, end) and the Q table their open wedges subscribe in.
  /// One per worker (one in all when inline).
  struct LaneRange {
    std::uint32_t first = 0;
    std::uint32_t end = 0;
    kernels::SweepCounts swept{};              // this batch's list lengths
    FlatHashMap<std::uint32_t> closers;        // Q: edge key -> chain head
    std::vector<std::uint64_t> closer_filter;  // Q key filter bits
  };

  /// The batch being absorbed, fixed by StartBatch on the caller and read
  /// by the workers.
  struct BatchJob {
    std::span<const Edge> edges;
    std::uint64_t m_before = 0;  // edges applied before this batch
    std::uint64_t batch_no = 0;  // its Threefry counter word
    bool filter_lanes = false;   // the batch's vertices filter the sweep;
                                 //   else the lanes filter the index
    int log2_bits = 6;           // that filter's size
  };

  /// Absorbs the filled pending buffer as one batch.
  void SubmitPending();
  /// Absorbs `batch`: inline to completion, or dispatched to the pool.
  void StartBatch(std::span<const Edge> batch);
  /// Worker `slot`'s part of the current batch.
  void RunBatch(std::size_t slot);
  /// With workers: waits until every worker has arrived.
  void AwaitWorkers();
  /// The shared per-batch tables: the filter on one side of the lane/batch
  /// join and the batch index.
  void BuildBatchTables();
  /// The lane sweep over one lane range.
  void SweepLanes(LaneRange& range);
  /// Steps 1/2a/2b and the closer pass over one swept lane range.
  void ResolveLanes(LaneRange& range);
  /// Blocks until no batch is in flight on the pool.
  void WaitForInFlight();

  TriangleCounterOptions options_;
  std::size_t batch_size_;
  SimdIsa isa_;                             // resolved from options_.simd
  const kernels::KernelTable* kernels_;     // lane-sweep kernels for isa_
  std::uint64_t batch_no_ = 0;  // Threefry counter word: batches started
  std::vector<ColdState> cold_;      // SoA: cold estimator fields
  std::vector<EdgeIndex> r1_pos_;    // SoA: stream position of r1 (hot)
  std::vector<std::uint64_t> c_;     // SoA: |N(r1)| so far (hot)
  std::vector<std::uint64_t> r1_uv_;  // SoA: level-1 endpoints, packed
                                      //   (u = low 32 bits, v = high 32)
  std::vector<EstimatorState> snapshot_;  // lazily built by estimators()
  std::vector<Edge> pending_;    // the batch being filled by the caller
  std::vector<Edge> absorbing_;  // with workers: the batch they absorb
  std::uint64_t applied_edges_ = 0;  // edges in batches started so far

  // Reusable per-batch scratch (rebuilt per batch; see Sec. 3.3.2). The
  // lane-sized arrays are split by lane range: range [first, end) owns
  // entries [first, end) of each.
  BatchJob job_;
  BatchIndex index_;                      // Algorithm 2's events over B
  std::vector<std::uint64_t> bloom_;      // the batch-vertex or lane filter
  std::vector<LaneRange> ranges_;
  std::vector<CloserLink> closer_chain_;  // Q chain storage (per candidate)
  std::vector<std::uint64_t> draw2_;      // per-lane Step-2b draw word
  std::vector<std::uint32_t> replacers_;  // lanes replacing r1 (ascending)
  std::vector<std::uint32_t> replace_batch_idx_;  // their chosen batch edge
  std::vector<std::uint32_t> candidates_;  // lanes passing the Bloom filter

  // Worker threads (num_threads >= 1 only).
  bool in_flight_ = false;       // a batch is dispatched and not waited for
  bool view_in_flight_ = false;  // ... and it is a caller's view
  bool all_pinned_ = false;
  /// Separates a batch's phases: the tables from the sweeps that read or
  /// feed them, and at w > r/8 the build from the steps that probe it.
  std::unique_ptr<std::barrier<>> batch_barrier_;
  /// Declared last: destroyed first, draining an in-flight batch while
  /// everything it touches is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_TRIANGLE_COUNTER_H_
