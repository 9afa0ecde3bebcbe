// FaultyEdgeStream: the stream-seam injection wrapper.
//
// Decorates any EdgeStream and breaks it at the exact edge positions a
// FaultSchedule names. Every pull is capped at the next scheduled
// position, so a fault fires after precisely `at` delivered events --
// never somewhere inside an oversized batch -- and the decorated stream's
// views pass through uncopied below the cap (batch *content* up to the
// fault is byte-identical to the clean run; only boundaries may split,
// which per-edge and self-batching estimators are insensitive to; pin
// the consumer's batch size to a divisor of the fault positions when
// boundary identity matters).
//
// Kind mapping at this seam:
//   kIoError / kConnReset / kMidFrameCut / kEnospc -> sticky kIoError
//     (the stream analogue of "the transport died"), message naming the
//     injected kind and position.
//   kCorruptData / kTornRename -> sticky kCorruptData.
//   kStall -> delivery sleeps `param` ms (charged to io_seconds(), like
//     a slow disk), then continues; not sticky.
//
// Reset() resets the inner stream, rewinds the schedule, and clears the
// sticky status -- a faulted run can replay under the same schedule.

#ifndef TRISTREAM_TESTS_FAULT_FAULTY_STREAM_H_
#define TRISTREAM_TESTS_FAULT_FAULTY_STREAM_H_

#include <cstdint>
#include <vector>

#include "stream/edge_stream.h"
#include "tests/fault/fault.h"
#include "util/status.h"

namespace tristream {
namespace fault {

/// An EdgeStream that fails on schedule (see file comment). Non-owning:
/// `inner` must outlive the wrapper.
class FaultyEdgeStream : public stream::EdgeStream {
 public:
  FaultyEdgeStream(stream::EdgeStream& inner, FaultSchedule schedule)
      : inner_(inner), schedule_(std::move(schedule)) {}

  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    stream::EventScratch* scratch) override;
  bool turnstile() const override { return inner_.turnstile(); }
  bool stable_views() const override { return inner_.stable_views(); }
  bool ready(std::size_t max_edges) const override;
  void Reset() override;
  std::uint64_t edges_delivered() const override { return delivered_; }
  /// Inner I/O time plus injected stall time.
  double io_seconds() const override {
    return inner_.io_seconds() + stall_seconds_;
  }
  /// The injected sticky failure once a point fired; the inner stream's
  /// status otherwise.
  Status status() const override {
    return MergeEdgeOnlyFailure(injected_.ok() ? inner_.status()
                                               : injected_);
  }

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  /// Applies every point due at the current position. Returns false when
  /// an injected failure ended the stream (sticky injected_ set); stalls
  /// sleep and return true.
  bool ApplyDueFaults();
  /// max_edges capped so the pull cannot cross the next fault position.
  std::size_t CapPull(std::size_t max_edges) const;

  stream::EdgeStream& inner_;
  FaultSchedule schedule_;
  std::uint64_t delivered_ = 0;
  double stall_seconds_ = 0.0;
  Status injected_;
};

}  // namespace fault
}  // namespace tristream

#endif  // TRISTREAM_TESTS_FAULT_FAULTY_STREAM_H_
