// The adjacency-stream abstraction.
//
// The paper's model (Sec. 1): a simple graph presented as a sequence of
// edges in arbitrary, possibly adversarial order. EdgeStream is the pull
// interface the counters consume -- batched, because the bulk algorithm
// (Sec. 3.3) and the paper's own experimental setup ("the algorithm
// receives edges in bulk, e.g. block reads from disk") are batch-oriented.
// A batch size of 1 degenerates to pure per-edge streaming.

#ifndef TRISTREAM_STREAM_EDGE_STREAM_H_
#define TRISTREAM_STREAM_EDGE_STREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace stream {

/// Caller-owned staging for the event-batch pull (the SoA counterpart of
/// the plain std::vector<Edge> scratch): sources without stable views fill
/// these; sources with stable views ignore them and return spans into
/// their own storage.
struct EventScratch {
  std::vector<Edge> edges;
  std::vector<EdgeOp> ops;
};

/// Pull-based edge source. Implementations are single-pass but resettable
/// (the paper's algorithms are strictly one-pass; Reset exists for
/// multi-trial experiments).
///
/// Two pull surfaces exist:
///   * the edge-only NextBatch/NextBatchView (the historical insert-only
///     API). On a turnstile source this MUST fail loudly -- a sticky
///     InvalidArgument the moment an actual delete event is encountered --
///     never silently drop or misread ops.
///   * the event-model NextEventBatchView, which every consumer that can
///     handle (or at least detect) deletions uses. Insert-only sources
///     keep the default shim: it wraps the edge view with an empty ops
///     span, so the refactor costs them nothing.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Appends up to `max_edges` next edges to `*batch` (which is cleared
  /// first) and returns the number delivered; 0 signals end of stream.
  virtual std::size_t NextBatch(std::size_t max_edges,
                                std::vector<Edge>* batch) = 0;

  /// Zero-copy variant: returns a view of up to `max_edges` next edges; an
  /// empty span signals end of stream. Sources whose edges already live in
  /// memory (MemoryEdgeStream, MmapEdgeStream) return a view straight into
  /// their backing storage; the default shim copies through NextBatch into
  /// `*scratch` and returns a view of it. Unless stable_views() is true,
  /// the view is invalidated by the next NextBatch/NextBatchView/Reset call
  /// (and by any mutation of `*scratch`).
  virtual std::span<const Edge> NextBatchView(std::size_t max_edges,
                                              std::vector<Edge>* scratch) {
    NextBatch(max_edges, scratch);
    return std::span<const Edge>(*scratch);
  }

  /// Event-model pull: a view of up to `max_edges` next events; an empty
  /// view signals end of stream. Same lifetime rules as NextBatchView
  /// (stable_views() covers both spans). The default shim serves
  /// insert-only sources: it returns the edge view with an empty ops span
  /// (all_inserts() == true) at zero extra cost. Turnstile sources
  /// override it to deliver real ops.
  virtual EventBatchView NextEventBatchView(std::size_t max_edges,
                                            EventScratch* scratch) {
    const std::span<const Edge> edges =
        NextBatchView(max_edges, scratch != nullptr ? &scratch->edges
                                                    : nullptr);
    return EventBatchView{edges, {}};
  }

  /// True when this source may emit delete events (so edge-only reads can
  /// fail mid-stream with InvalidArgument). Purely informational; the
  /// per-batch truth is EventBatchView::all_inserts().
  virtual bool turnstile() const { return false; }

  /// True when every span returned by NextBatchView stays valid until the
  /// stream is destroyed (not merely until the next call). Pipelined
  /// consumers (engine::StreamEngine driving a threaded counter) use this
  /// to dispatch views to workers while already fetching the next batch.
  virtual bool stable_views() const { return false; }

  /// Scheduling hint: true when a NextBatch/NextBatchView(max_edges) call
  /// right now would return promptly instead of blocking on a producer.
  /// Sources that never block (files, memory, mmap) keep the default;
  /// live sources (QueueEdgeStream) report whether a full batch is
  /// buffered or the stream has closed. engine::Scheduler's ready queue
  /// is driven by this, so one stalled stream never parks a worker that
  /// other sessions need. Purely advisory: a false positive costs a
  /// blocking fetch, never a wrong estimate.
  virtual bool ready(std::size_t max_edges) const {
    (void)max_edges;
    return true;
  }

  /// Restarts the stream from the first edge.
  virtual void Reset() = 0;

  /// Total edges delivered since construction/Reset.
  virtual std::uint64_t edges_delivered() const = 0;

  /// Cumulative wall-clock seconds spent on I/O (0 for in-memory sources).
  /// The paper reports I/O time separately from processing time (Table 3).
  virtual double io_seconds() const { return 0.0; }

  /// Sticky I/O health. A short batch with ok() status means end of
  /// stream; a short batch with a non-OK status means the source failed
  /// mid-read and the edges delivered so far are a prefix, not the whole
  /// stream. Reset() clears it.
  virtual Status status() const { return Status::Ok(); }
};

/// In-memory stream over an EdgeList's arrival order.
class MemoryEdgeStream : public EdgeStream {
 public:
  explicit MemoryEdgeStream(const graph::EdgeList& edges)
      : edges_(&edges) {}

  std::size_t NextBatch(std::size_t max_edges,
                        std::vector<Edge>* batch) override;
  std::span<const Edge> NextBatchView(std::size_t max_edges,
                                      std::vector<Edge>* scratch) override;
  bool stable_views() const override { return true; }
  void Reset() override { cursor_ = 0; }
  std::uint64_t edges_delivered() const override { return cursor_; }

 private:
  const graph::EdgeList* edges_;
  std::uint64_t cursor_ = 0;
};

/// Returns a copy of `edges` in a uniformly random arrival order
/// (deterministic per seed). This is how benches turn a generated graph
/// into an "arbitrary order" adjacency stream.
graph::EdgeList ShuffleStreamOrder(const graph::EdgeList& edges,
                                   std::uint64_t seed);

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_EDGE_STREAM_H_
