// Zero-copy TRIS ingest via mmap(2).
//
// BinaryFileEdgeStream pays one copy per batch (kernel page cache ->
// stdio buffer -> Edge vector). MmapEdgeStream maps the whole file
// MAP_PRIVATE/PROT_READ instead and serves every batch as a
// std::span<const Edge> pointing straight into the mapping: the payload
// layout (packed little-endian u32 pairs at an 8-aligned offset) is
// exactly the in-memory layout of Edge, so no staging buffer exists on
// the read path at all.
//
// I/O accounting: with mmap the disk reads happen at page-fault time, not
// at a read(2) call site. To keep the paper's I/O-vs-processing split
// (Table 3) meaningful -- and to let a pipelined consumer overlap disk
// latency with estimator work -- each pull prefaults the pages of the
// batch it returns (one touch per 4 KiB page) on the calling thread under
// the io stopwatch, after advising the kernel of sequential access
// (madvise MADV_SEQUENTIAL doubles the readahead window). The spans stay
// valid until the stream is destroyed (stable_views() == true), which is
// what lets engine::StreamEngine hand a mapped batch to the bulk
// counter's workers while already faulting in the next one.
//
// TRIS v2 (turnstile) files map just as well: the SoA layout keeps the
// pair section bit-identical to v1, so the Edge spans still come straight
// from the mapping, and the trailing op section is served as a second
// zero-copy span (EdgeOp is a single byte, no alignment concerns). Both
// sections are prefaulted under the io stopwatch, each behind its own
// watermark since they live at distant file offsets.

#ifndef TRISTREAM_STREAM_MMAP_IO_H_
#define TRISTREAM_STREAM_MMAP_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "stream/edge_stream.h"
#include "util/status.h"
#include "util/timer.h"

namespace tristream {
namespace stream {

/// Streams a TRIS file through a read-only memory mapping, serving
/// zero-copy batches.
class MmapEdgeStream : public EdgeStream {
 public:
  /// Opens and maps `path`, validating the header and that the payload
  /// holds the promised edge count (a short payload -- truncation or an
  /// odd-byte tail -- is CorruptData, exactly like the FILE reader).
  static Result<std::unique_ptr<MmapEdgeStream>> Open(
      const std::string& path);

  ~MmapEdgeStream() override;
  MmapEdgeStream(const MmapEdgeStream&) = delete;
  MmapEdgeStream& operator=(const MmapEdgeStream&) = delete;

  /// v2 files deliver both spans straight from the mapping (scratch is
  /// ignored); v1 files keep the empty-ops fast path.
  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    EventScratch* scratch) override;
  bool turnstile() const override;
  bool stable_views() const override { return true; }
  void Reset() override;
  std::uint64_t edges_delivered() const override { return cursor_; }
  /// Seconds spent prefaulting mapped pages (the mmap analogue of read
  /// time; cold-cache faults dominate it, warm-cache runs show ~0).
  double io_seconds() const override { return io_timer_.Seconds(); }

  /// Sticky: CorruptData when an op byte is neither insert nor delete.
  /// Cleared by Reset().
  Status status() const override { return MergeEdgeOnlyFailure(status_); }

  /// Total edges/events in the file.
  std::uint64_t total_edges() const { return total_edges_; }

  /// TRIS format version of the file (1 or 2).
  std::uint32_t version() const { return version_; }

  /// The whole pair payload as one span (valid for the stream's lifetime).
  std::span<const Edge> edges() const {
    return std::span<const Edge>(payload_, total_edges_);
  }

 private:
  MmapEdgeStream(void* map, std::size_t map_bytes, std::uint32_t version,
                 const Edge* payload, const EdgeOp* ops,
                 std::uint64_t total_edges, std::string path);

  /// Touches one byte per page of payload events [cursor_, end) -- pair
  /// section and, for v2, op section -- that have not been faulted in yet,
  /// on the io stopwatch.
  void Prefault(std::uint64_t end_edge);

  void* map_;
  std::size_t map_bytes_;
  std::uint32_t version_;
  const Edge* payload_;
  const EdgeOp* ops_;  // nullptr for v1
  std::uint64_t total_edges_;
  std::string path_;  // names the file in errors
  std::uint64_t cursor_ = 0;
  std::size_t prefaulted_bytes_ = 0;
  std::size_t prefaulted_op_bytes_ = 0;
  Status status_;
  mutable WallTimer io_timer_;
};

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_MMAP_IO_H_
