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

/// Caller-owned staging for the event pull. A source with stable views
/// returns spans into its own storage and ignores it; others may fill it
/// and return views into it. So `scratch` may be null exactly when
/// stable_views() is true, which is what engine::Session passes.
struct EventScratch {
  std::vector<Edge> edges;
  std::vector<EdgeOp> ops;
};

/// Pull-based edge source. Implementations are single-pass but resettable
/// (the paper's algorithms are strictly one-pass; Reset exists for
/// multi-trial experiments).
///
/// Every source implements one pull, NextEventBatchView. The edge-only
/// NextBatch/NextBatchView are defined once, here, on top of it, with one
/// rule for every source: an edge-only pull returns exactly the events
/// the event pull delivers before its first delete. From that delete on,
/// status() is a sticky InvalidArgument (a source error that came first
/// keeps winning) and every edge-only pull returns nothing, until
/// Reset(). A delete is never dropped or read as an insert.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// The pull: a view of up to `max_edges` next events; an empty view
  /// signals end of stream. An empty ops span means every event is an
  /// insert. Unless stable_views() is true, the view is invalidated by
  /// the next pull or Reset() and by any mutation of `*scratch`.
  virtual EventBatchView NextEventBatchView(std::size_t max_edges,
                                            EventScratch* scratch) = 0;

  /// Edge-only pull: the events before the first delete, as a view (see
  /// the class comment). Lifetimes as for NextEventBatchView, with
  /// `*scratch`'s storage standing in for EventScratch::edges; `*scratch`
  /// may hold events past the view. Virtual only so that decorators can
  /// forward it.
  virtual std::span<const Edge> NextBatchView(std::size_t max_edges,
                                              std::vector<Edge>* scratch);

  /// NextBatchView copied into `*batch`; returns the number delivered (0
  /// at end of stream). Virtual only so that decorators can forward it.
  virtual std::size_t NextBatch(std::size_t max_edges,
                                std::vector<Edge>* batch);

  /// True when this source may emit delete events. Purely informational;
  /// the per-batch truth is EventBatchView::all_inserts().
  virtual bool turnstile() const { return false; }

  /// True when every span a pull returns stays valid until the stream is
  /// destroyed (not merely until the next pull). Pipelined consumers
  /// (engine::Session driving a threaded counter) use this to hand views
  /// to workers while already fetching the next batch, and pass no
  /// scratch.
  virtual bool stable_views() const { return false; }

  /// Scheduling hint: true when a pull of `max_edges` right now would
  /// return promptly instead of blocking on a producer. Sources that never
  /// block (files, memory, mmap) keep the default; live sources
  /// (QueueEdgeStream) report whether a full batch is buffered or the
  /// stream has closed. engine::Scheduler's ready queue is driven by this,
  /// so one stalled stream never parks a worker that other sessions need.
  /// Purely advisory: a false positive costs a blocking fetch, never a
  /// wrong estimate.
  virtual bool ready(std::size_t max_edges) const {
    (void)max_edges;
    return true;
  }

  /// Restarts the stream from the first edge. Overrides call
  /// ClearEdgeOnlyFailure().
  virtual void Reset() = 0;

  /// Total events delivered by the event pull since construction/Reset.
  virtual std::uint64_t edges_delivered() const = 0;

  /// Cumulative wall-clock seconds spent on I/O (0 for in-memory sources).
  /// The paper reports I/O time separately from processing time (Table 3).
  virtual double io_seconds() const { return 0.0; }

  /// Sticky I/O health. A short batch with ok() status means end of
  /// stream; a short batch with a non-OK status means the source failed
  /// mid-read and the edges delivered so far are a prefix, not the whole
  /// stream. Reset() clears it. Sources with a sticky status of their own
  /// override this and return MergeEdgeOnlyFailure(own).
  virtual Status status() const { return edge_only_failure_; }

 protected:
  /// What status() reports for a source whose own sticky status is `own`:
  /// the edge-only failure once an edge-only pull met a delete, else
  /// `own`.
  Status MergeEdgeOnlyFailure(Status own) const {
    return edge_only_failure_.ok() ? own : edge_only_failure_;
  }

  /// Forgets the edge-only failure.
  void ClearEdgeOnlyFailure() { edge_only_failure_ = Status::Ok(); }

 private:
  /// Set by the edge-only pull at the first delete: InvalidArgument, or
  /// the source's own error when it had already failed.
  Status edge_only_failure_;
};

/// In-memory stream over borrowed storage: an EdgeList's arrival order
/// (all inserts) or an EdgeEventList's events. Views point straight into
/// that storage, which must outlive the stream.
class MemoryEdgeStream : public EdgeStream {
 public:
  explicit MemoryEdgeStream(const graph::EdgeList& edges)
      : edges_(&edges.edges()) {}
  explicit MemoryEdgeStream(const EdgeEventList& events)
      : edges_(&events.edges), ops_(&events.ops) {}

  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    EventScratch* scratch) override;
  bool turnstile() const override;
  bool stable_views() const override { return true; }
  void Reset() override {
    cursor_ = 0;
    ClearEdgeOnlyFailure();
  }
  std::uint64_t edges_delivered() const override { return cursor_; }

 private:
  const std::vector<Edge>* edges_;
  const std::vector<EdgeOp>* ops_ = nullptr;  // null or empty: all inserts
  std::size_t cursor_ = 0;
};

/// Returns a copy of `edges` in a uniformly random arrival order
/// (deterministic per seed). This is how benches turn a generated graph
/// into an "arbitrary order" adjacency stream.
graph::EdgeList ShuffleStreamOrder(const graph::EdgeList& edges,
                                   std::uint64_t seed);

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_EDGE_STREAM_H_
