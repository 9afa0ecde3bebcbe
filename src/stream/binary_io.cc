#include "stream/binary_io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <vector>

#include "util/logging.h"

namespace tristream {
namespace stream {
namespace {

/// Shared writer for both TRIS versions: header + pair section, then (v2
/// only) the op section. `ops` empty selects v1.
Status WriteTrisFile(const std::string& path, std::span<const Edge> edges,
                     std::span<const EdgeOp> ops) {
  const bool v2 = !ops.empty();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError(ErrnoMessage("cannot open", path));
  Status status = Status::Ok();
  const std::uint64_t count = edges.size();
  const std::uint32_t version = v2 ? kTrisVersion2 : kTrisVersion;
  if (std::fwrite(kTrisMagic, 1, 4, f) != 4 ||
      std::fwrite(&version, sizeof(version), 1, f) != 1 ||
      std::fwrite(&count, sizeof(count), 1, f) != 1) {
    status = Status::IoError(ErrnoMessage("cannot write header to", path));
  }
  if (status.ok()) {
    std::vector<std::uint32_t> buffer;
    buffer.reserve(2 << 16);
    // Count raw u32 elements, not pairs: a short fwrite can end on an odd
    // element, which a pair count computed as fwrite(...)/2 would round
    // away and report as a complete write.
    std::uint64_t elements_written = 0;
    for (const Edge& e : edges) {
      buffer.push_back(e.u);
      buffer.push_back(e.v);
      if (buffer.size() == (2 << 16)) {
        elements_written += std::fwrite(buffer.data(), sizeof(std::uint32_t),
                                        buffer.size(), f);
        buffer.clear();
        if (std::ferror(f)) break;
      }
    }
    if (!buffer.empty() && !std::ferror(f)) {
      elements_written += std::fwrite(buffer.data(), sizeof(std::uint32_t),
                                      buffer.size(), f);
    }
    if (elements_written != 2 * count || std::ferror(f)) {
      status = Status::IoError(ErrnoMessage("short write to", path));
    }
  }
  if (status.ok() && v2) {
    static_assert(sizeof(EdgeOp) == 1, "op section layout");
    if (std::fwrite(ops.data(), 1, ops.size(), f) != ops.size()) {
      status = Status::IoError(ErrnoMessage("short write to", path));
    }
  }
  // fclose flushes the stdio buffer; a flush failure (e.g. disk full) must
  // surface even when every fwrite "succeeded" into the buffer.
  if (std::fclose(f) != 0 && status.ok()) {
    status = Status::IoError(ErrnoMessage("cannot close", path));
  }
  return status;
}

}  // namespace

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

bool ValidateOpBytes(const std::uint8_t* ops, std::size_t count,
                     std::uint8_t* bad) {
  for (std::size_t i = 0; i < count; ++i) {
    if (ops[i] > static_cast<std::uint8_t>(EdgeOp::kDelete)) {
      if (bad != nullptr) *bad = ops[i];
      return false;
    }
  }
  return true;
}

Status WriteBinaryEdges(const std::string& path,
                        const graph::EdgeList& edges) {
  return WriteTrisFile(path, std::span<const Edge>(edges.edges()), {});
}

Status WriteBinaryEvents(const std::string& path,
                         const EdgeEventList& events) {
  if (!events.ops.empty() && events.ops.size() != events.edges.size()) {
    return Status::InvalidArgument(
        "event list has " + std::to_string(events.edges.size()) +
        " edges but " + std::to_string(events.ops.size()) + " ops");
  }
  // Insert-only sequences stay v1 so every existing reader keeps working;
  // only a real delete forces the v2 op section.
  const bool v2 = events.has_deletes();
  return WriteTrisFile(path, std::span<const Edge>(events.edges),
                       v2 ? std::span<const EdgeOp>(events.ops)
                          : std::span<const EdgeOp>{});
}

Result<graph::EdgeList> ReadBinaryEdges(const std::string& path) {
  auto events = ReadBinaryEvents(path);
  if (!events.ok()) return events.status();
  if (events->has_deletes()) {
    return Status::InvalidArgument(
        "edge file '" + path + "' is a turnstile (TRIS v2) stream with "
        "delete events; this consumer reads edges only -- use the event "
        "API or an estimator that supports deletions");
  }
  return graph::EdgeList(std::move(events->edges));
}

Result<EdgeEventList> ReadBinaryEvents(const std::string& path) {
  auto opened = BinaryFileEdgeStream::Open(path);
  if (!opened.ok()) return opened.status();
  BinaryFileEdgeStream& stream = **opened;
  EdgeEventList out;
  EventScratch scratch;
  for (;;) {
    const EventBatchView view = stream.NextEventBatchView(1 << 16, &scratch);
    if (view.empty()) break;
    for (std::size_t i = 0; i < view.size(); ++i) {
      out.Add(view.edges[i], view.op(i));
    }
  }
  // A read failure and a truncated file both end the batch loop early;
  // distinguish them so disk faults are not reported as file corruption.
  if (!stream.status().ok()) return stream.status();
  if (out.size() != stream.total_edges()) {
    return Status::CorruptData("edge file '" + path +
                               "' truncated: header promises " +
                               std::to_string(stream.total_edges()) +
                               " events, got " + std::to_string(out.size()));
  }
  return out;
}

Result<TrisHeader> ParseTrisHeader(const char* bytes,
                                   std::string_view context,
                                   TrisHeader* raw) {
  TrisHeader header;
  std::memcpy(&header.version, bytes + 4, sizeof(header.version));
  std::memcpy(&header.count, bytes + 8, sizeof(header.count));
  if (raw != nullptr) *raw = header;
  if (std::memcmp(bytes, kTrisMagic, 4) != 0) {
    return Status::CorruptData(std::string(context) + ": bad magic");
  }
  if (header.version != kTrisVersion && header.version != kTrisVersion2) {
    return Status::CorruptData(std::string(context) +
                               ": unsupported version " +
                               std::to_string(header.version));
  }
  return header;
}

Result<std::unique_ptr<BinaryFileEdgeStream>> BinaryFileEdgeStream::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError(ErrnoMessage("cannot open", path));
  char bytes[kTrisHeaderBytes];
  if (std::fread(bytes, 1, sizeof(bytes), f) != sizeof(bytes)) {
    // ferror distinguishes an unreadable file (a directory, a failing
    // device) from a well-formed-but-short one.
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
      return Status::IoError(ErrnoMessage("cannot read header of", path));
    }
    return Status::CorruptData("edge file '" + path + "': header too short");
  }
  auto header = ParseTrisHeader(bytes, "edge file '" + path + "'");
  if (!header.ok()) {
    std::fclose(f);
    return header.status();
  }
  return std::unique_ptr<BinaryFileEdgeStream>(
      new BinaryFileEdgeStream(f, header->version, header->count, path));
}

BinaryFileEdgeStream::BinaryFileEdgeStream(std::FILE* file,
                                           std::uint32_t version,
                                           std::uint64_t total_edges,
                                           std::string path)
    : file_(file),
      version_(version),
      total_edges_(total_edges),
      path_(std::move(path)) {
  io_timer_.Restart();
  io_timer_.Pause();
}

BinaryFileEdgeStream::~BinaryFileEdgeStream() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t BinaryFileEdgeStream::ReadRecords(std::size_t want,
                                              std::vector<Edge>* edges,
                                              std::vector<EdgeOp>* ops) {
  edges->clear();
  ops->clear();
  const std::uint64_t remaining = total_edges_ - delivered_;
  const std::size_t take =
      static_cast<std::size_t>(std::min<std::uint64_t>(want, remaining));
  if (take == 0) return 0;
  raw_.resize(take * 2);
  io_timer_.Resume();
  if (version_ == kTrisVersion2) {
    // v2 alternates between the pair and op sections, so every batch read
    // is positioned (the v1 path stays purely sequential).
    std::fseek(file_,
               static_cast<long>(kTrisHeaderBytes +
                                 delivered_ * sizeof(Edge)),
               SEEK_SET);
  }
  const std::size_t got =
      std::fread(raw_.data(), sizeof(std::uint32_t), raw_.size(), file_);
  io_timer_.Pause();
  if (got != raw_.size() && status_.ok()) {
    // A short read inside the promised payload is never a clean end of
    // stream: ferror means the device failed, EOF means the file is
    // shorter than its header claims. Either way streaming consumers
    // must not mistake the delivered prefix for the whole stream.
    if (std::ferror(file_) != 0) {
      status_ =
          Status::IoError(ErrnoMessage("read failed mid-stream in", path_));
    } else {
      status_ = Status::CorruptData(
          "edge file '" + path_ + "' truncated: header promises " +
          std::to_string(total_edges_) + " edges, payload ends at " +
          std::to_string(delivered_ + got / 2));
    }
  }
  std::size_t count = got / 2;
  if (version_ == kTrisVersion2 && count > 0) {
    ops->resize(count);
    io_timer_.Resume();
    std::fseek(file_,
               static_cast<long>(kTrisHeaderBytes +
                                 total_edges_ * sizeof(Edge) + delivered_),
               SEEK_SET);
    const std::size_t op_got = std::fread(
        reinterpret_cast<std::uint8_t*>(ops->data()), 1, count, file_);
    io_timer_.Pause();
    if (op_got != count && status_.ok()) {
      if (std::ferror(file_) != 0) {
        status_ =
            Status::IoError(ErrnoMessage("read failed mid-stream in", path_));
      } else {
        status_ = Status::CorruptData(
            "edge file '" + path_ + "' truncated: op section ends at event " +
            std::to_string(delivered_ + op_got) + " of " +
            std::to_string(total_edges_));
      }
    }
    // Deliver only events whose op arrived: the pair prefix beyond op_got
    // is indistinguishable from a torn tail.
    count = std::min(count, op_got);
    ops->resize(count);
    std::uint8_t bad = 0;
    if (!ValidateOpBytes(reinterpret_cast<const std::uint8_t*>(ops->data()),
                         count, &bad) &&
        status_.ok()) {
      status_ = Status::CorruptData(
          "edge file '" + path_ + "': op byte " + std::to_string(bad) +
          " is neither insert nor delete");
      count = 0;
      ops->clear();
    }
  }
  edges->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges->emplace_back(raw_[2 * i], raw_[2 * i + 1]);
  }
  delivered_ += count;
  return count;
}

EventBatchView BinaryFileEdgeStream::NextEventBatchView(
    std::size_t max_edges, EventScratch* scratch) {
  TRISTREAM_DCHECK(scratch != nullptr);
  ReadRecords(max_edges, &scratch->edges, &scratch->ops);
  // v1 leaves the ops empty: the all-inserts fast path.
  return EventBatchView{std::span<const Edge>(scratch->edges),
                        std::span<const EdgeOp>(scratch->ops)};
}

void BinaryFileEdgeStream::Reset() {
  std::clearerr(file_);
  std::fseek(file_, static_cast<long>(kTrisHeaderBytes), SEEK_SET);
  delivered_ = 0;
  status_ = Status::Ok();
  ClearEdgeOnlyFailure();
  io_timer_.Restart();
  io_timer_.Pause();
}

}  // namespace stream
}  // namespace tristream
