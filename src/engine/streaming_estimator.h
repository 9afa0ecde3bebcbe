// The estimator side of the unified stream engine.
//
// The paper's evaluation compares its neighborhood-sampling counter
// head-to-head against prior streaming estimators (Buriol et al.,
// colorful counting, Jowhari–Ghodsi) under *identical* stream conditions:
// same edge order, same batching, same ingest path. StreamingEstimator is
// the contract that makes that comparison mechanical -- every triangle
// estimator in the repo (the four core counters and the four baselines)
// is adapted to this interface by one template (engine/estimators.h) and
// driven by the single checked engine::StreamEngine, instead of each
// counter owning its own hand-rolled edge loop.
//
// Contract:
//   * ProcessEdges(view) absorbs the next contiguous run of stream edges
//     in order. Implementations MAY return before the edges are fully
//     absorbed (the bulk counter on worker threads dispatches a
//     whole-batch view to its workers and returns); the view must stay
//     valid until the next ProcessEdges or Flush call. The engine's
//     double-buffered fetch honors exactly that lifetime.
//   * Flush() is the barrier: after it returns, every edge passed to
//     ProcessEdges has been absorbed, estimate reads are consistent, and
//     no previously passed view is referenced anymore.
//   * Reset() discards all stream state, returning the estimator to its
//     freshly constructed configuration (same options, same seed), so a
//     multi-trial experiment can reuse one estimator across runs.

#ifndef TRISTREAM_ENGINE_STREAMING_ESTIMATOR_H_
#define TRISTREAM_ENGINE_STREAMING_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <string>

#include "ckpt/serial.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace engine {

/// Empty; kept with BeginStream only because perfbench's TracedEstimator
/// overrides it. Delete both in the next benchmark change.
struct StreamSourceTraits {};

/// One streaming triangle estimator behind the engine's uniform driver.
class StreamingEstimator {
 public:
  virtual ~StreamingEstimator() = default;

  /// Short stable identifier ("tsb", "buriol", ...) for logs and JSON.
  virtual const char* name() const = 0;

  /// Never called (see StreamSourceTraits).
  virtual void BeginStream(const StreamSourceTraits&) {}

  /// Absorbs the next contiguous run of stream edges, in order. May return
  /// before absorption completes; `edges` must remain valid until the next
  /// ProcessEdges or Flush call (see the file comment).
  virtual void ProcessEdges(std::span<const Edge> edges) = 0;

  /// True when the estimator can absorb delete events (turnstile model).
  /// The engine rejects delete-carrying batches for estimators that return
  /// false -- with an InvalidArgument naming the estimator, never a
  /// silently wrong estimate.
  virtual bool supports_deletions() const { return false; }

  /// Event-model absorption. The engine routes every batch through here;
  /// the default forwards the edge span, which is exactly right for
  /// insert-only estimators because the engine guarantees the batch is
  /// all-inserts before calling them (see supports_deletions). Turnstile
  /// estimators override this and consume view.op(i). Same view-lifetime
  /// rules as ProcessEdges (both spans).
  virtual void ProcessEvents(const EventBatchView& view) {
    ProcessEdges(view.edges);
  }

  /// Barrier: blocks until everything passed to ProcessEdges is absorbed.
  /// Afterwards estimates are consistent and no view is still referenced.
  virtual void Flush() = 0;

  /// Returns to the freshly constructed state (same configuration and
  /// seed, so the same stream replays to the same estimates).
  virtual void Reset() = 0;

  /// Stream edges absorbed (or buffered) so far.
  virtual std::uint64_t edges_processed() const = 0;

  // ------------------------------------------------- typed estimates
  // Triangles are universal; wedges and transitivity exist only where the
  // algorithm defines them (the neighborhood-sampling family). Callers
  // gate on has_wedge_estimates() instead of interpreting a 0.

  /// Aggregated estimate of the triangle count τ. Implies Flush().
  virtual double EstimateTriangles() = 0;

  /// True when the algorithm also estimates wedges ζ and transitivity κ.
  virtual bool has_wedge_estimates() const { return false; }

  /// Aggregated wedge estimate (0 when unsupported). Implies Flush().
  virtual double EstimateWedges() { return 0.0; }

  /// Transitivity estimate 3τ̂/ζ̂ (0 when unsupported). Implies Flush().
  virtual double EstimateTransitivity() { return 0.0; }

  /// Batch size the estimator would pick for itself (its own algorithmic
  /// operating point, e.g. the bulk counter's w = 8r). 0 means no
  /// preference: the engine falls back to kDefaultBatchSize.
  virtual std::size_t preferred_batch_size() const { return 0; }

  /// True when reading the typed estimates RIGHT NOW would not change the
  /// estimator's trajectory -- i.e. the implied Flush() is a no-op or a
  /// pure barrier. False exactly when a partial batch is buffered and
  /// Flush would absorb it early, perturbing the RNG sequence relative to
  /// an unqueried run. Serve-mode snapshots only read estimates when this
  /// holds, which is how a mid-ingest query stays invisible to the
  /// bit-identity guarantee. Default true (estimators with no batch
  /// buffering are always safe).
  virtual bool estimates_nonperturbing() const { return true; }

  /// Rough resident footprint in bytes of the estimator's stream state
  /// (samples, counters, buffers) -- the admission-control currency for
  /// serve mode's per-session memory accounting. 0 means unknown; the
  /// server then charges only its own per-session overhead. Cheap to call;
  /// an estimate, not an audit.
  virtual std::size_t approx_memory_bytes() const { return 0; }

  // ------------------------------------------------- checkpointing
  // The neighborhood-sampling family serializes its full stream state
  // (samples, counters, RNG positions, buffered edges) so a killed run can
  // resume bit-identically; baselines keep the defaults and report
  // FailedPrecondition. See ckpt/checkpoint.h for the on-disk container.

  /// True when SaveState/RestoreState are implemented. The engine refuses
  /// to checkpoint estimators that return false.
  virtual bool checkpointable() const { return false; }

  /// Stable hash of every configuration knob that determines the
  /// estimator's trajectory (r, seed, shard count, batch size, window...).
  /// A checkpoint refuses to restore into an estimator whose fingerprint
  /// differs from the one it was saved with. 0 when not checkpointable.
  virtual std::uint64_t config_fingerprint() const { return 0; }

  /// Serializes the complete stream state into `sink`. Implementations
  /// quiesce themselves first (the bulk counter waits for its in-flight
  /// batch), so it is safe to call between ProcessEdges calls without an
  /// explicit Flush -- which matters, because Flush on a batch-structured
  /// counter applies a partial batch and would perturb the RNG trajectory.
  virtual Status SaveState(ckpt::ByteSink& sink) {
    (void)sink;
    return Status::FailedPrecondition(std::string(name()) +
                                      " is not checkpointable");
  }

  /// Inverse of SaveState. Call on a freshly constructed (or Reset)
  /// estimator with the identical configuration; on failure the state is
  /// unspecified and the estimator must be Reset before reuse.
  virtual Status RestoreState(ckpt::ByteSource& source) {
    (void)source;
    return Status::FailedPrecondition(std::string(name()) +
                                      " is not checkpointable");
  }
};

}  // namespace engine
}  // namespace tristream

#endif  // TRISTREAM_ENGINE_STREAMING_ESTIMATOR_H_
