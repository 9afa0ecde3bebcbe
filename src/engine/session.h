// One estimator-on-a-stream run, sliced into schedulable quanta.
//
// StreamEngine::Run used to hold an entire run on its stack: the batch
// cursor, double buffers, checkpoint and report cadences, timers, and the
// final sticky status all lived inside one blocking loop, so the process
// could drive exactly one stream at a time. Session extracts that loop
// state into an object whose Step() advances the run by a bounded quantum
// (a few batches), which is what lets engine::Scheduler multiplex many
// concurrent runs -- serve mode's sessions -- over a small worker pool
// while StreamEngine::Run survives unchanged as the one-session special
// case.
//
// Determinism is the load-bearing invariant: for a fixed batch size,
// Step()-until-done issues exactly the same sequence of event pulls
// (NextEventBatchView: same sizes, same order, same double-buffer
// discipline) as the old monolithic Run loop, so estimates are
// bit-identical regardless of how the quanta interleave with other
// sessions. The parity suite (tests/engine) locks this.
//
// Threading: Step() must be called by one thread at a time (the scheduler
// guarantees exclusive claim), but *which* thread may change between
// quanta. snapshot()/RequestSnapshot() are safe from any thread
// concurrently with Step() -- that is the serve-mode query path, answered
// from a cached snapshot so a query never forces a Flush into the
// estimator mid-batch (which would perturb batch-structured RNG
// trajectories; see StreamingEstimator::estimates_nonperturbing).

#ifndef TRISTREAM_ENGINE_SESSION_H_
#define TRISTREAM_ENGINE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>

#include "engine/streaming_estimator.h"
#include "stream/edge_stream.h"
#include "util/status.h"
#include "util/timer.h"

namespace tristream {
namespace engine {

class Session;

/// What one run measured. Reset when the session (re)initializes.
/// (Historically StreamEngineMetrics; the alias in stream_engine.h keeps
/// that name alive for existing callers.)
struct SessionMetrics {
  std::uint64_t edges = 0;    // edges delivered to the estimator
  std::uint64_t batches = 0;  // ProcessEdges calls issued
  /// Batch size the run fetched at.
  std::size_t batch_size = 0;
  double total_seconds = 0.0;    // wall clock, fetch + absorb + flush
  double io_seconds = 0.0;       // source-attributed (reads, waits)
  double compute_seconds = 0.0;  // ingest thread blocked in the estimator
  std::uint64_t checkpoints = 0;  // snapshots written this run
  double checkpoint_seconds = 0.0;  // wall clock inside SaveCheckpoint

  double edges_per_second() const {
    return total_seconds > 0.0 ? static_cast<double>(edges) / total_seconds
                               : 0.0;
  }
};

/// Configuration of one session's drive loop, not of any estimator.
/// (Historically StreamEngineOptions; aliased in stream_engine.h.)
struct SessionOptions {
  /// Fetch size w per pull. 0 defers to the estimator's
  /// preferred_batch_size(), then to kDefaultBatchSize.
  std::size_t batch_size = 0;

  /// When nonzero, on_report fires after any batch that crosses a multiple
  /// of this many edges -- the live-monitoring hook. Invoked from the
  /// thread that called Step(), i.e. a scheduler worker in serve mode.
  std::uint64_t report_every_edges = 0;
  std::function<void(StreamingEstimator&, const SessionMetrics&)> on_report;

  /// Crash-safe TRICKPT snapshot cadence; see stream_engine.h. Requires a
  /// checkpointable() estimator and a fixed batch size.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every_edges = 0;

  /// Amortized durability: fsync only every Nth checkpoint (the atomic
  /// rename sequence still protects every save against process crashes;
  /// intermediate saves merely risk loss on power failure, where the
  /// .prev generation and resume replay cover the gap). <= 1 syncs every
  /// save -- the standalone default. Serve mode raises this so dozens of
  /// sessions checkpointing on cadence do not serialize on fsync.
  std::uint64_t checkpoint_sync_every = 1;

  /// Batches advanced per Step() call -- the scheduling quantum. Larger
  /// quanta amortize scheduler overhead; smaller ones bound how long one
  /// session can occupy a worker while others wait. 0 behaves as 1.
  std::size_t quantum_batches = 1;

  /// Cooperative stepping: Step() attempts a pump only while the source
  /// reports ready(), ending the quantum early instead of blocking on an
  /// idle producer -- so one stalled connection can never pin a scheduler
  /// worker that other sessions need. Leave false for dedicated-thread
  /// drives (StreamEngine::Run), where blocking in the source *is* the
  /// desired backpressure. Never changes which batches are fetched, only
  /// when -- bit-identity is unaffected.
  bool cooperative = false;
};

/// Fallback fetch size when neither the caller nor the estimator has an
/// opinion (64K edges = 512 KiB per buffer, comfortably past the regime
/// where per-batch substrate cost dominates).
inline constexpr std::size_t kDefaultBatchSize = std::size_t{1} << 16;

/// Where a session is in its lifecycle.
enum class SessionState {
  kInit,      // Step() not yet called; the first call validates options
  kPumping,   // mid-stream
  kFinished,  // stream ended with a healthy source; estimates are final
  kFailed,    // option validation, checkpoint write, or source failure
};

/// Read-side view of a session's estimates, refreshed only at moments
/// when reading them cannot perturb the estimator (see file comment).
struct SessionSnapshot {
  std::uint64_t edges = 0;
  double triangles = 0.0;
  double wedges = 0.0;
  double transitivity = 0.0;
  bool has_wedges = false;
  /// False until the first refresh: a query that lands before any
  /// non-perturbing moment sees {valid:false} rather than zeros
  /// masquerading as an estimate.
  bool valid = false;
  /// True once the stream finished (the snapshot is the final answer).
  bool final_result = false;
};

/// One estimator pulled through one stream in schedulable quanta.
/// Non-owning: the estimator and source must outlive the session.
class Session {
 public:
  Session(StreamingEstimator& estimator, stream::EdgeStream& source,
          SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Advances the run by one quantum (up to quantum_batches batches; the
  /// first call also validates options).
  /// Returns the state afterwards; once kFinished/kFailed, further calls
  /// are no-ops. Exactly one thread may be inside Step() at a time.
  SessionState Step();

  SessionState state() const {
    return state_.load(std::memory_order_acquire);
  }
  bool done() const {
    const SessionState s = state();
    return s == SessionState::kFinished || s == SessionState::kFailed;
  }

  /// Scheduling hint: true when Step() would make progress without
  /// blocking on a producer. Always true before the first Step (option
  /// validation must run regardless); false once done.
  bool ready() const;

  /// The run's sticky outcome: meaningful once done(). OK means the
  /// stream ended cleanly; anything else means the absorbed edges are a
  /// prefix (source failure) or the run aborted (validation, checkpoint).
  const Status& status() const { return status_; }

  /// Measurements so far (final once done()). Read from the stepping
  /// thread or after done(); mid-step reads from other threads are racy.
  const SessionMetrics& metrics() const { return metrics_; }

  /// Asks the stepping thread to refresh the snapshot at the next
  /// non-perturbing moment. Safe from any thread; returns immediately.
  void RequestSnapshot();

  /// The latest cached estimates. Never blocks, never touches the
  /// estimator -- serve mode's query path. Check .valid.
  SessionSnapshot snapshot() const;

  StreamingEstimator& estimator() { return estimator_; }
  stream::EdgeStream& source() { return source_; }
  const SessionOptions& options() const { return options_; }

 private:
  /// One fetch + dispatch at size `w`; returns edges delivered (0 = end).
  std::size_t PumpOne();

  /// First-Step bring-up: w resolution, checkpoint validation, cadence
  /// anchoring. Returns false when validation failed (state_ is kFailed
  /// with status_ set).
  bool Initialize();

  /// Final barrier + metrics + sticky status once the source is drained.
  void Finish();

  /// Reads estimates into the cached snapshot. Only called from the
  /// stepping thread at non-perturbing moments (or after the final
  /// Flush).
  void RefreshSnapshot(bool final_result);

  StreamingEstimator& estimator_;
  stream::EdgeStream& source_;
  SessionOptions options_;
  SessionMetrics metrics_;

  std::atomic<SessionState> state_{SessionState::kInit};
  Status status_;

  // ---- drive-loop state, touched only by the stepping thread ----
  bool stable_views_ = false;
  std::size_t w_ = 0;
  int fill_ = 0;
  /// Double buffer for non-stable sources: while the estimator may still
  /// reference the view from buffer A, the next fetch fills buffer B.
  /// Event scratch (edges + ops) so the same discipline covers turnstile
  /// sources.
  stream::EventScratch event_buffers_[2];
  double io_before_ = 0.0;
  std::uint64_t ckpt_base_ = 0;
  std::uint64_t next_ckpt_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t next_report_ = std::numeric_limits<std::uint64_t>::max();
  WallTimer total_;

  // ---- query path, shared with reader threads ----
  std::atomic<bool> snapshot_requested_{false};
  mutable std::mutex snapshot_mu_;
  SessionSnapshot snapshot_;
};

}  // namespace engine
}  // namespace tristream

#endif  // TRISTREAM_ENGINE_SESSION_H_
