// Live in-process ingest: a bounded, blocking edge queue.
//
// The paper's headline use case is real-time monitoring of live interaction
// streams, where edges arrive from producers (network receivers, log
// tailers, simulators) rather than files. QueueEdgeStream is the bridge:
// any number of producer threads Push() edges into a bounded buffer and the
// consumer side is an ordinary EdgeStream, so the engine::StreamEngine
// driver runs every estimator unchanged on live traffic.
//
// Semantics:
//   * Bounded + blocking both ways. Push() blocks while the buffer holds
//     `capacity()` edges (backpressure -- a slow consumer throttles its
//     producers instead of growing without bound); a pull blocks until a
//     full batch (min(max_edges, capacity) edges) is buffered or the
//     queue is closed, so an idle feed looks like slow I/O, not end of
//     stream, and batch boundaries are decided by the consumer's request
//     size, never by producer timing -- making estimates bit-identical to
//     file/memory ingest of the same edges. Time spent blocked in a pull
//     is reported as io_seconds(), mirroring the file readers' read-time
//     accounting.
//   * Close(status) ends the stream. Producers report clean EOF with
//     Close() / Close(Status::Ok()) and failure (disconnect, truncated
//     frame, upstream error) with Close(some error). Buffered edges are
//     still drained after Close; once empty, a pull returns nothing and
//     status() is the close status -- the sticky-status contract of
//     EdgeStream, so a failed feed can never masquerade as a clean prefix.
//     The queue closes at the first Close() call, but a later non-OK close
//     still upgrades an OK status (a straggler producer reporting failure
//     after a clean close must not be silenced).
//   * Multi-producer, single-consumer. Push may be called from any number
//     of threads; pulls and Reset must come from one consumer thread at a
//     time. A span Push is admitted atomically (its edges are contiguous
//     in the stream) unless it exceeds the whole capacity, in which case
//     it is admitted in capacity-sized runs that may interleave with
//     other producers.
//   * Reset() reopens an emptied queue for reuse (a live feed cannot
//     replay); the caller must ensure no producer is active across Reset.
//   * Turnstile-capable: producers may push events (edge + op), and the
//     event pull delivers them verbatim.
#ifndef TRISTREAM_STREAM_QUEUE_STREAM_H_
#define TRISTREAM_STREAM_QUEUE_STREAM_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "stream/edge_stream.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace stream {

/// Bounded blocking multi-producer edge queue, consumed as an EdgeStream.
class QueueEdgeStream : public EdgeStream {
 public:
  /// A queue holding at most `capacity_edges` buffered edges (at least 1).
  explicit QueueEdgeStream(std::size_t capacity_edges = 1 << 16);

  // ------------------------------------------------------- producer side

  /// Appends one edge, blocking while the queue is full. Returns false
  /// (dropping the edge) when the queue is closed.
  bool Push(const Edge& e);

  /// Appends a run of edges, blocking as needed. Returns the number
  /// admitted -- short only when the queue closes mid-push.
  std::size_t Push(std::span<const Edge> edges);

  /// Non-blocking Push: admits as much of `edges` as fits right now and
  /// returns the number admitted (0 when full or closed), never waiting.
  /// The admitted prefix is contiguous in the stream. This is the event-
  /// loop discipline (engine serve mode): a full queue is backpressure --
  /// the producer parks the remainder and stops reading its connection
  /// until the consumer drains (see SetSpaceHook).
  std::size_t TryPush(std::span<const Edge> edges);

  /// Appends one event, blocking while the queue is full. Returns false
  /// (dropping the event) when the queue is closed.
  bool PushEvent(const EdgeEvent& e);

  /// Blocking span push of events. `ops` is either empty (all inserts) or
  /// exactly parallel to `edges`. Returns the number admitted.
  std::size_t PushEvents(std::span<const Edge> edges,
                         std::span<const EdgeOp> ops);

  /// Non-blocking event push with TryPush's contract; `ops` empty means
  /// all inserts.
  std::size_t TryPushEvents(std::span<const Edge> edges,
                            std::span<const EdgeOp> ops);

  /// Registers a hook invoked (without the queue lock held, on the
  /// consumer's thread) whenever a pop transitions the queue from full to
  /// not-full -- the signal a parked producer needs to resume pushing.
  /// Must be set before concurrent use and not changed afterwards.
  void SetSpaceHook(std::function<void()> hook);

  /// Closes the queue: producers are unblocked and further pushes fail;
  /// the consumer drains what is buffered, then sees end of stream with
  /// `status` as the sticky status(). First close wins, except that a
  /// non-OK status still replaces an earlier OK one.
  void Close(Status status = Status::Ok());

  /// Buffer capacity in edges.
  std::size_t capacity() const { return capacity_; }

  /// Edges currently buffered (racy by nature; for monitoring/tests).
  std::size_t buffered() const;

  /// True once Close() has been called.
  bool closed() const;

  // ------------------------------------------------------- consumer side

  /// Blocks as described in the file comment, then fills `*scratch`
  /// (non-null) and returns a view of it; the ops span is empty when the
  /// batch is all-inserts.
  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    EventScratch* scratch) override;
  /// True once any delete event has been pushed.
  bool turnstile() const override;
  /// True when a pull of `max_edges` would return without waiting: a full
  /// batch (min(max_edges, capacity)) is buffered, or the queue is closed
  /// (the remainder drains, then end of stream).
  bool ready(std::size_t max_edges) const override;
  void Reset() override;
  std::uint64_t edges_delivered() const override;
  /// Seconds the consumer spent blocked waiting for producers (the live
  /// analogue of file-read time).
  double io_seconds() const override;
  Status status() const override;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable can_push_;  // signals producers: space freed
  std::condition_variable can_pop_;   // signals consumer: events or close
  std::deque<EdgeEvent> buffer_;
  bool closed_ = false;
  bool delete_pushed_ = false;
  Status status_;
  std::uint64_t delivered_ = 0;
  double wait_seconds_ = 0.0;
  /// Set once before concurrent use; invoked outside mu_ (see SetSpaceHook).
  std::function<void()> space_hook_;
};

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_QUEUE_STREAM_H_
