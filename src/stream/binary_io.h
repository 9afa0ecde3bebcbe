// Binary edge-file format ("TRIS") and file-backed streaming with I/O
// accounting.
//
// The paper's experiments stream graphs from a laptop hard drive and report
// I/O time separately from processing time (Table 3: "median I/O time").
// BinaryFileEdgeStream reproduces that methodology: a compact binary format
// (fixed header + little-endian u32 endpoint pairs) read in blocks, with
// the read syscalls timed on a dedicated I/O stopwatch.
//
// TRIS format (native little-endian, versions 1 and 2):
//   bytes 0..3   magic "TRIS"
//   bytes 4..7   format version (u32: 1 = insert-only, 2 = turnstile)
//   bytes 8..15  edge/event count (u64)
//   v1 payload: count * 8 bytes of (u32 u, u32 v) endpoint pairs, in
//   stream (arrival) order.
//   v2 payload: the same count * 8 pair bytes, then count * 1 op bytes
//   (EdgeOp: 0 = insert, 1 = delete; anything else is CorruptData). The
//   two sections are SoA on purpose: the pair section keeps the exact v1
//   layout and 8-byte alignment, so the mmap reader serves zero-copy Edge
//   *and* op spans straight from the mapping. Version is sniffed from the
//   header -- every v1 file opens unchanged and decodes as all-inserts.
//   Readers treat a payload shorter than its section math -- including a
//   tail that ends mid-pair or inside the op section -- as CorruptData,
//   and a read(2)-level failure as IoError. Edge-only reads of a v2 file
//   stop with a sticky InvalidArgument at the first actual delete event
//   (EdgeStream's one rule; see stream/README.md).
//
// Readers of this format:
//   * BinaryFileEdgeStream (here): buffered FILE reads, batch = one copy.
//   * MmapEdgeStream (mmap_io.h): zero-copy batches served as spans into a
//     memory mapping.
//   * OpenEdgeSource (edge_source.h): the one-door front end. It sniffs the
//     first 4 bytes of the file: exactly "TRIS" selects a binary reader
//     (mmap by default, FILE reads on request); anything else -- including
//     files shorter than 4 bytes -- is parsed as SNAP-style text
//     (text_io.h). File extensions play no part in the decision, so
//     renamed files keep working.

#ifndef TRISTREAM_STREAM_BINARY_IO_H_
#define TRISTREAM_STREAM_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "graph/edge_list.h"
#include "stream/edge_stream.h"
#include "util/status.h"
#include "util/timer.h"

namespace tristream {
namespace stream {

/// TRIS header constants, shared by the FILE- and mmap-backed readers and
/// the OpenEdgeSource sniffer. kTrisVersion stays the insert-only v1 --
/// every existing writer keeps producing v1 files and frames bit-for-bit;
/// kTrisVersion2 is the turnstile format with the trailing op section.
inline constexpr char kTrisMagic[4] = {'T', 'R', 'I', 'S'};
inline constexpr std::uint32_t kTrisVersion = 1;
inline constexpr std::uint32_t kTrisVersion2 = 2;
inline constexpr std::size_t kTrisHeaderBytes = 16;

/// Bytes one event occupies in a v2 payload (8 pair bytes + 1 op byte,
/// split across the two SoA sections in files, interleaved in socket
/// frames).
inline constexpr std::size_t kTrisEventBytes = 9;

/// A decoded TRIS header (a file's, or one socket frame's).
struct TrisHeader {
  std::uint32_t version = 0;  // kTrisVersion or kTrisVersion2
  std::uint64_t count = 0;    // edges (v1) or events (v2)
};

/// Decodes the kTrisHeaderBytes bytes at `bytes`. CorruptData naming the
/// bad field ("<context>: bad magic", "<context>: unsupported version N")
/// when the magic is not "TRIS" or the version is neither 1 nor 2. `raw`,
/// when non-null, receives the version and count as stored, whether or
/// not they pass (inspect prints a header before it judges it).
Result<TrisHeader> ParseTrisHeader(const char* bytes,
                                   std::string_view context,
                                   TrisHeader* raw = nullptr);

/// Validates a batch of raw op bytes (anything above kDelete is wire
/// corruption). Returns the offending byte via `*bad` when non-null.
bool ValidateOpBytes(const std::uint8_t* ops, std::size_t count,
                     std::uint8_t* bad);

/// "<what> '<path>': <strerror(errno)>" -- shared error formatting for the
/// stream readers/writers.
std::string ErrnoMessage(const std::string& what, const std::string& path);

/// Writes `edges` to `path` in the tristream binary format (v1).
Status WriteBinaryEdges(const std::string& path, const graph::EdgeList& edges);

/// Writes an event sequence to `path`. Insert-only sequences (empty or
/// all-insert ops) are written as plain v1 -- byte-identical to
/// WriteBinaryEdges -- so a churn-capable producer never gratuitously
/// breaks v1-only readers; anything with a delete becomes v2.
Status WriteBinaryEvents(const std::string& path, const EdgeEventList& events);

/// Reads an entire binary edge file into memory: ReadBinaryEvents, then
/// InvalidArgument when the file holds an actual delete event.
Result<graph::EdgeList> ReadBinaryEdges(const std::string& path);

/// Reads an entire binary edge/event file (v1 or v2) into memory; v1
/// decodes as all-inserts (empty ops).
Result<EdgeEventList> ReadBinaryEvents(const std::string& path);

/// Streams a binary edge file from disk, timing read calls.
class BinaryFileEdgeStream : public EdgeStream {
 public:
  /// Opens `path` and validates the header.
  static Result<std::unique_ptr<BinaryFileEdgeStream>> Open(
      const std::string& path);

  ~BinaryFileEdgeStream() override;
  BinaryFileEdgeStream(const BinaryFileEdgeStream&) = delete;
  BinaryFileEdgeStream& operator=(const BinaryFileEdgeStream&) = delete;

  /// v2 files deliver real ops (read from the trailing op section with a
  /// second positioned read per batch); v1 files keep the empty-ops fast
  /// path. Views point into `*scratch`, which must be non-null.
  EventBatchView NextEventBatchView(std::size_t max_edges,
                                    EventScratch* scratch) override;
  bool turnstile() const override { return version_ == kTrisVersion2; }
  void Reset() override;
  std::uint64_t edges_delivered() const override { return delivered_; }
  double io_seconds() const override { return io_timer_.Seconds(); }

  /// Sticky: IoError when a read failed mid-stream, CorruptData when the
  /// payload ended before the header's edge count (a short batch then
  /// means a damaged prefix, not end of file) or an op byte is neither
  /// insert nor delete. Cleared by Reset().
  Status status() const override { return MergeEdgeOnlyFailure(status_); }

  /// Total edges/events in the file.
  std::uint64_t total_edges() const { return total_edges_; }

  /// TRIS format version of the file (1 or 2).
  std::uint32_t version() const { return version_; }

 private:
  BinaryFileEdgeStream(std::FILE* file, std::uint32_t version,
                       std::uint64_t total_edges, std::string path);

  /// Positioned read of `want` pairs at the stream cursor into `edges`
  /// (resized to the delivered count) and, for v2, the matching op bytes
  /// into `ops`. Sets the sticky status on truncation/IoError/bad op byte.
  std::size_t ReadRecords(std::size_t want, std::vector<Edge>* edges,
                          std::vector<EdgeOp>* ops);

  std::FILE* file_;
  std::uint32_t version_;
  std::uint64_t total_edges_;
  std::uint64_t delivered_ = 0;
  std::string path_;
  Status status_;
  std::vector<std::uint32_t> raw_;  // pair staging, reused across batches
  mutable WallTimer io_timer_;
};

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_BINARY_IO_H_
