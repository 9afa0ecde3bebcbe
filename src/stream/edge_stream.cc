#include "stream/edge_stream.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace tristream {
namespace stream {

std::span<const Edge> EdgeStream::NextBatchView(std::size_t max_edges,
                                                std::vector<Edge>* scratch) {
  if (!edge_only_failure_.ok()) return {};
  TRISTREAM_DCHECK(scratch != nullptr || stable_views());
  // The event pull stages its edges in `*scratch`'s buffer (swapped in and
  // back out), so a view into the staging survives this call.
  EventScratch staging;
  if (scratch != nullptr) staging.edges.swap(*scratch);
  const EventBatchView view = NextEventBatchView(max_edges, &staging);
  if (scratch != nullptr) staging.edges.swap(*scratch);
  std::size_t inserts = 0;
  while (inserts < view.size() && view.op(inserts) == EdgeOp::kInsert) {
    ++inserts;
  }
  if (inserts < view.size()) {
    const Status own = status();
    edge_only_failure_ =
        own.ok() ? Status::InvalidArgument(
                       "turnstile stream with delete events; this consumer "
                       "reads edges only -- use the event API or an "
                       "estimator that supports deletions")
                 : own;
  }
  return view.edges.first(inserts);
}

std::size_t EdgeStream::NextBatch(std::size_t max_edges,
                                  std::vector<Edge>* batch) {
  const std::span<const Edge> view = NextBatchView(max_edges, batch);
  if (view.data() == batch->data()) {
    batch->resize(view.size());  // the view is a prefix of *batch
  } else {
    batch->assign(view.begin(), view.end());
  }
  return view.size();
}

EventBatchView MemoryEdgeStream::NextEventBatchView(
    std::size_t max_edges, EventScratch* /*scratch*/) {
  const std::size_t take = std::min(max_edges, edges_->size() - cursor_);
  EventBatchView view{std::span<const Edge>(*edges_).subspan(cursor_, take),
                      {}};
  if (ops_ != nullptr && !ops_->empty()) {
    view.ops = std::span<const EdgeOp>(*ops_).subspan(cursor_, take);
  }
  cursor_ += take;
  return view;
}

bool MemoryEdgeStream::turnstile() const {
  return ops_ != nullptr &&
         std::find(ops_->begin(), ops_->end(), EdgeOp::kDelete) !=
             ops_->end();
}

graph::EdgeList ShuffleStreamOrder(const graph::EdgeList& edges,
                                   std::uint64_t seed) {
  std::vector<Edge> shuffled = edges.edges();
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  return graph::EdgeList(std::move(shuffled));
}

}  // namespace stream
}  // namespace tristream
