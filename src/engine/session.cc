#include "engine/session.h"

#include <string>
#include <utility>

#include "ckpt/checkpoint.h"

namespace tristream {
namespace engine {

Session::Session(StreamingEstimator& estimator, stream::EdgeStream& source,
                 SessionOptions options)
    : estimator_(estimator),
      source_(source),
      options_(std::move(options)) {}

std::size_t Session::PumpOne() {
  if (state() == SessionState::kFailed) return 0;
  // Stable sources yield spans into their own storage that outlive the
  // dispatch; others fill the idle half of the double buffer. Either way
  // the fetch (disk read, page fault, queue wait) runs while a pipelined
  // estimator is still absorbing the previous batch.
  stream::EventScratch* scratch =
      stable_views_ ? nullptr : &event_buffers_[fill_];
  const EventBatchView view = source_.NextEventBatchView(w_, scratch);
  if (view.empty()) return 0;
  // The delete gate of the whole spine: a batch carrying delete events
  // reaches an insert-only estimator exactly never. Failing the run with
  // a diagnostic naming the estimator beats a silently wrong estimate.
  if (!view.all_inserts() && !estimator_.supports_deletions() &&
      view.has_deletes()) {
    status_ = Status::InvalidArgument(
        "estimator '" + std::string(estimator_.name()) +
        "' is insert-only and cannot absorb delete events; use a "
        "turnstile-capable estimator (e.g. 'dynamic') for this stream");
    state_.store(SessionState::kFailed, std::memory_order_release);
    return 0;
  }
  WallTimer compute;
  estimator_.ProcessEvents(view);
  metrics_.compute_seconds += compute.Seconds();
  metrics_.edges += view.size();
  ++metrics_.batches;
  // The estimator may still reference `view` until its next barrier; the
  // next fetch must not overwrite it, so alternate buffers.
  fill_ ^= 1;
  return view.size();
}

bool Session::Initialize() {
  metrics_ = SessionMetrics{};
  stable_views_ = source_.stable_views();
  io_before_ = source_.io_seconds();
  w_ = options_.batch_size;
  if (w_ == 0) w_ = estimator_.preferred_batch_size();
  if (w_ == 0) w_ = kDefaultBatchSize;

  const bool checkpointing = !options_.checkpoint_path.empty();
  if (checkpointing) {
    if (options_.checkpoint_every_edges == 0) {
      status_ = Status::InvalidArgument(
          "checkpoint_path is set but checkpoint_every_edges is 0");
      state_.store(SessionState::kFailed, std::memory_order_release);
      return false;
    }
    if (!estimator_.checkpointable()) {
      status_ = Status::FailedPrecondition(std::string(estimator_.name()) +
                                           " is not checkpointable");
      state_.store(SessionState::kFailed, std::memory_order_release);
      return false;
    }
  }
  // Resume support: the estimator may arrive mid-stream (RestoreState +
  // SkipToCheckpoint), in which case metrics_.edges counts only this run's
  // edges while the snapshot cadence stays anchored to absolute stream
  // positions.
  ckpt_base_ = estimator_.edges_processed();
  next_ckpt_ = std::numeric_limits<std::uint64_t>::max();
  if (checkpointing) {
    next_ckpt_ = (ckpt_base_ / options_.checkpoint_every_edges + 1) *
                 options_.checkpoint_every_edges;
  }

  fill_ = 0;
  total_.Restart();
  metrics_.batch_size = w_;
  next_report_ = options_.report_every_edges != 0 && options_.on_report
                     ? options_.report_every_edges
                     : std::numeric_limits<std::uint64_t>::max();
  return true;
}

void Session::Finish() {
  // The final barrier: everything dispatched is absorbed before the
  // clock stops and before anyone reads estimates.
  WallTimer flush_timer;
  estimator_.Flush();
  metrics_.compute_seconds += flush_timer.Seconds();
  metrics_.total_seconds = total_.Seconds();
  metrics_.io_seconds = source_.io_seconds() - io_before_;

  // A short batch only means end of stream when the source is healthy;
  // surface a mid-stream failure (truncated file, dead socket, producer
  // Close(error)) instead of letting a prefix pass as the whole stream.
  status_ = source_.status();
  RefreshSnapshot(/*final_result=*/true);
  state_.store(status_.ok() ? SessionState::kFinished : SessionState::kFailed,
               std::memory_order_release);
}

void Session::RefreshSnapshot(bool final_result) {
  SessionSnapshot snap;
  // Absolute stream position, not this run's delta: a session resumed
  // from a checkpoint reports positions the producer can act on (the
  // resume handshake acks snapshot.edges as "events delivered so far").
  snap.edges = estimator_.edges_processed();
  snap.triangles = estimator_.EstimateTriangles();
  snap.has_wedges = estimator_.has_wedge_estimates();
  if (snap.has_wedges) {
    snap.wedges = estimator_.EstimateWedges();
    snap.transitivity = estimator_.EstimateTransitivity();
  }
  snap.valid = true;
  snap.final_result = final_result;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = snap;
}

void Session::RequestSnapshot() {
  snapshot_requested_.store(true, std::memory_order_release);
}

SessionSnapshot Session::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool Session::ready() const {
  switch (state()) {
    case SessionState::kInit:
      return true;
    case SessionState::kPumping:
      // A pending snapshot request makes a cooperative session worth
      // stepping even with no data: the quantum pumps nothing but
      // refreshes the query cache at its boundary (Step never blocks in
      // cooperative mode, so this cannot pin a worker). Only when the
      // refresh would actually be served, though -- otherwise the request
      // would keep reporting ready and spin the scheduler. Reading the
      // estimator here is safe: ready() is only consulted while no thread
      // is inside Step().
      return source_.ready(w_) ||
             (options_.cooperative &&
              snapshot_requested_.load(std::memory_order_acquire) &&
              estimator_.estimates_nonperturbing());
    default:
      return false;
  }
}

SessionState Session::Step() {
  {
    const SessionState s = state();
    if (s == SessionState::kFinished || s == SessionState::kFailed) return s;
    if (s == SessionState::kInit) {
      if (!Initialize()) return state();
      state_.store(SessionState::kPumping, std::memory_order_release);
    }
  }
  const std::size_t quantum =
      options_.quantum_batches != 0 ? options_.quantum_batches : 1;
  for (std::size_t i = 0; i < quantum; ++i) {
    if (options_.cooperative && !source_.ready(w_)) break;
    if (PumpOne() == 0) {
      // PumpOne fails the session itself when a delete-carrying batch hit
      // an insert-only estimator; Finish would overwrite that diagnostic
      // with the (healthy) source status.
      if (state() == SessionState::kFailed) return SessionState::kFailed;
      Finish();
      return state();
    }
    const std::uint64_t position = ckpt_base_ + metrics_.edges;
    if (position >= next_ckpt_) {
      WallTimer ckpt_timer;
      const bool sync =
          options_.checkpoint_sync_every <= 1 ||
          (metrics_.checkpoints + 1) % options_.checkpoint_sync_every == 0;
      const Status saved = ckpt::SaveCheckpoint(options_.checkpoint_path,
                                                estimator_, w_, sync);
      if (!saved.ok()) {
        // Mirror the old StreamEngine::Run: a failed checkpoint write
        // aborts the run immediately, without a final Flush (the next
        // resume replays from the last good snapshot anyway).
        status_ = saved;
        state_.store(SessionState::kFailed, std::memory_order_release);
        return SessionState::kFailed;
      }
      metrics_.checkpoint_seconds += ckpt_timer.Seconds();
      ++metrics_.checkpoints;
      while (next_ckpt_ <= position) {
        next_ckpt_ += options_.checkpoint_every_edges;
      }
    }
    if (metrics_.edges >= next_report_) {
      metrics_.total_seconds = total_.Seconds();
      metrics_.io_seconds = source_.io_seconds() - io_before_;
      options_.on_report(estimator_, metrics_);
      while (next_report_ <= metrics_.edges) {
        next_report_ += options_.report_every_edges;
      }
    }
  }
  // Quantum boundary: honor a pending query only when reading estimates
  // cannot perturb the estimator's trajectory -- this is what keeps a
  // queried serve session bit-identical to an unqueried run.
  if (snapshot_requested_.load(std::memory_order_acquire) &&
      estimator_.estimates_nonperturbing()) {
    RefreshSnapshot(/*final_result=*/false);
    snapshot_requested_.store(false, std::memory_order_release);
  }
  return SessionState::kPumping;
}

}  // namespace engine
}  // namespace tristream
