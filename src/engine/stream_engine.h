// The one-session stream driver every estimator runs under.
//
// Before the engine existed, each counter owned a private ProcessStream
// loop (and several benches hand-rolled their own), so only the core
// counters could consume mmap/queue/socket sources, only some callers
// checked the source's sticky status, and batching policy was copy-pasted
// per counter. StreamEngine centralized everything those loops duplicated
// -- batched double-buffered fetch, sticky-status propagation, per-run
// metrics, checkpoint cadence.
//
// That drive loop now lives in engine::Session (one run, advanced in
// schedulable quanta) and engine::Scheduler (which session steps next),
// so serve mode can multiplex many concurrent runs over a worker pool.
// StreamEngine survives as the one-session convenience wrapper: Run()
// builds a Session from its options, drives it to completion through an
// inline Scheduler, and returns the session's sticky status. Nothing
// about the observable contract changed -- same option struct (aliased
// below), same metrics, same call sequence into the source and estimator.
//
// Determinism: with a fixed batch_size (explicit or the estimator's
// preference) the session pulls exactly the same batches as the drivers
// it replaced, so estimates are bit-identical to pre-engine output for a
// fixed seed -- the parity suite (tests/engine) locks this.

#ifndef TRISTREAM_ENGINE_STREAM_ENGINE_H_
#define TRISTREAM_ENGINE_STREAM_ENGINE_H_

#include "engine/session.h"
#include "engine/streaming_estimator.h"
#include "stream/edge_stream.h"
#include "util/status.h"

namespace tristream {
namespace engine {

/// Historical names, kept for the many call sites (CLI, benches, tests)
/// that configure single-session runs: the structs moved to session.h
/// when the drive loop became Session.
using StreamEngineMetrics = SessionMetrics;
using StreamEngineOptions = SessionOptions;

/// Drives any EdgeStream through any StreamingEstimator (see file
/// comment): the one-session wrapper over Session + Scheduler.
class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineOptions options = {});

  /// Pulls `source` to exhaustion through `estimator`, then Flush()es it.
  /// Returns the source's sticky status(): OK means the stream ended
  /// cleanly; anything else means the source failed mid-read and the
  /// absorbed edges are a *prefix* -- estimates computed anyway describe
  /// that prefix, not the stream, so callers must check. (Option
  /// validation and checkpoint-write failures surface the same way.)
  [[nodiscard]] Status Run(StreamingEstimator& estimator,
                           stream::EdgeStream& source);

  /// Measurements of the most recent Run().
  const StreamEngineMetrics& metrics() const { return metrics_; }

 private:
  StreamEngineOptions options_;
  StreamEngineMetrics metrics_;
};

}  // namespace engine
}  // namespace tristream

#endif  // TRISTREAM_ENGINE_STREAM_ENGINE_H_
