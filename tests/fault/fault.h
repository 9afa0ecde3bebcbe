// Deterministic fault injection: a seeded schedule of "break *here*"
// points that every chaos suite in the repo shares.
//
// The first crash suite proved "kill anywhere, resume bit-identical" by
// racing SIGKILL against the file system -- effective, but timing-based
// and per-suite. FaultSchedule replaces the timing with positions: a
// fault fires when a counter (edges delivered, bytes written, calls
// made -- whatever the seam counts) reaches an exact value, so a failing
// run replays under a debugger with the identical trigger. Schedules are
// either pinned (FromPoints) or drawn from a seeded generator (Random):
// same seed, same schedule, on every host.
//
// The schedule itself is pure bookkeeping; the injection wrappers live
// next to their seams:
//   * stream seam  -- tests/fault/faulty_stream.h (FaultyEdgeStream)
//   * fs seam      -- ckpt/checkpoint.h (SetPersistFaultHookForTesting)

#ifndef TRISTREAM_TESTS_FAULT_FAULT_H_
#define TRISTREAM_TESTS_FAULT_FAULT_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace tristream {
namespace fault {

/// What breaks when a fault point fires. One enum across all three I/O
/// seams; each wrapper documents which kinds it understands and maps the
/// rest to its closest native failure (never silently ignores them).
enum class FaultKind : std::uint8_t {
  kIoError = 0,    // transport/file read-write failure (sticky kIoError)
  kCorruptData,    // bytes arrive, but wrong (sticky kCorruptData)
  kStall,          // delivery pauses for `param` milliseconds, then resumes
  kConnReset,      // socket: hard RST (SO_LINGER 0 close)
  kMidFrameCut,    // socket: connection dies `param` bytes into a frame
  kEnospc,         // fs: write fails as if the disk filled
  kTornRename,     // fs: crash between the two renames of atomic persist
};

/// Stable name of a FaultKind ("io-error", "torn-rename", ...): chaos
/// suites embed it in diagnostics so a failure names its injected cause.
const char* FaultKindName(FaultKind kind);

/// One scheduled fault: fire when the observed position reaches `at`.
/// `param` is kind-specific (stall milliseconds, cut byte offset).
struct FaultPoint {
  std::uint64_t at = 0;
  FaultKind kind = FaultKind::kIoError;
  std::uint64_t param = 0;
};

/// An ordered sequence of FaultPoints consumed front to back. Positions
/// are whatever the consuming seam counts (edges, bytes, calls); Due()
/// hands out each point exactly once.
class FaultSchedule {
 public:
  /// An empty schedule (never fires).
  FaultSchedule() = default;

  /// A pinned schedule; points are sorted by `at` (stable for ties).
  static FaultSchedule FromPoints(std::vector<FaultPoint> points);

  /// `count` points drawn deterministically from `seed`: positions
  /// uniform in [1, max_at], kinds cycling through `kinds` with
  /// seed-dependent order, stall params in [1, 50] ms. Same arguments,
  /// same schedule, on every host.
  static FaultSchedule Random(std::uint64_t seed, std::size_t count,
                              std::uint64_t max_at,
                              std::span<const FaultKind> kinds);

  /// The next scheduled point with at <= `position`, or nullptr. Each
  /// point is returned exactly once; callers apply it and call Due again
  /// (several points can share a position).
  const FaultPoint* Due(std::uint64_t position);

  /// Position of the next unfired point; max uint64 when exhausted.
  /// Wrappers cap their pulls at this so a fault fires at exactly `at`,
  /// never somewhere inside an oversized batch.
  std::uint64_t next_at() const {
    return next_ < points_.size()
               ? points_[next_].at
               : std::numeric_limits<std::uint64_t>::max();
  }

  bool exhausted() const { return next_ >= points_.size(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<FaultPoint>& points() const { return points_; }

  /// Rewinds so the same points fire again (replaying a run).
  void Reset() { next_ = 0; }

 private:
  std::vector<FaultPoint> points_;
  std::size_t next_ = 0;
};

}  // namespace fault
}  // namespace tristream

#endif  // TRISTREAM_TESTS_FAULT_FAULT_H_
