#include "stream/edge_source.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "graph/edge_list.h"
#include "stream/binary_io.h"
#include "stream/mmap_io.h"
#include "stream/text_io.h"
#include "util/timer.h"

namespace tristream {
namespace stream {
namespace {

/// The text path's source: a MemoryEdgeStream over the parsed events it
/// owns, reporting the one-time parse as io_seconds(). The events live in
/// a base initialized before the MemoryEdgeStream that borrows them.
struct ParsedEvents {
  EdgeEventList events;
};
class ParsedTextStream : private ParsedEvents, public MemoryEdgeStream {
 public:
  ParsedTextStream(EdgeEventList parsed, double load_seconds)
      : ParsedEvents{std::move(parsed)},
        MemoryEdgeStream(events),
        load_seconds_(load_seconds) {}

  double io_seconds() const override { return load_seconds_; }

 private:
  double load_seconds_;
};

/// Reads the first 4 bytes of `path`. Returns false (with `*error` set)
/// when the file cannot be opened or read; a file shorter than 4 bytes
/// yields got < 4 and sniffs as text.
bool SniffMagic(const std::string& path, char magic[4], std::size_t* got,
                Status* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = Status::IoError("cannot open '" + path + "'");
    return false;
  }
  *got = std::fread(magic, 1, 4, f);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    *error = Status::IoError("cannot read '" + path + "'");
    return false;
  }
  return true;
}

}  // namespace

DedupEdgeStream::DedupEdgeStream(std::unique_ptr<EdgeStream> inner,
                                 std::size_t expected_edges)
    : inner_(std::move(inner)),
      filter_(expected_edges),
      expected_edges_(expected_edges) {}

bool DedupEdgeStream::FilterOneEventBatch(std::size_t max_edges,
                                          EventScratch* out) {
  // `out` is empty on entry (the pop path loops until an event survives).
  const EventBatchView raw =
      inner_->NextEventBatchView(max_edges, &event_scratch_);
  if (raw.empty()) return false;
  const bool carry_ops = !raw.all_inserts();
  // Room for every event up front: grown by push_back from empty, a buffer
  // would leave each outgrown copy with the allocator for the whole run.
  out->edges.reserve(out->edges.size() + raw.size());
  if (carry_ops) out->ops.reserve(out->ops.size() + raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const EdgeOp op = raw.op(i);
    if (filter_.AdmitEvent(raw.edges[i], op)) {
      out->edges.push_back(raw.edges[i]);
      if (carry_ops) out->ops.push_back(op);
    }
  }
  return true;
}

EventBatchView DedupEdgeStream::NextEventBatchView(std::size_t max_edges,
                                                   EventScratch* /*scratch*/) {
  // Alternate between two output buffers so the previous view survives
  // this call (the pipelined consumer dispatches view N to its workers
  // while fetching view N+1).
  event_slot_ ^= 1;
  EventScratch& out = event_bufs_[event_slot_];
  out.edges.clear();
  out.ops.clear();
  // Keep pulling until at least one event survives the filter (or the
  // inner stream ends) so that a run of duplicates cannot masquerade as
  // end of stream.
  while (out.edges.empty()) {
    if (!FilterOneEventBatch(max_edges, &out)) break;
  }
  delivered_ += out.edges.size();
  return EventBatchView{std::span<const Edge>(out.edges),
                        std::span<const EdgeOp>(out.ops)};
}

void DedupEdgeStream::Reset() {
  inner_->Reset();
  filter_ = DedupFilter(expected_edges_);
  delivered_ = 0;
  for (EventScratch& buf : event_bufs_) {
    buf.edges.clear();
    buf.ops.clear();
  }
  ClearEdgeOnlyFailure();
}

Result<std::unique_ptr<EdgeStream>> OpenEdgeSource(
    const std::string& path, const EdgeSourceOptions& options,
    EdgeSourceInfo* info) {
  char magic[4] = {0, 0, 0, 0};
  std::size_t got = 0;
  Status sniff_error = Status::Ok();
  if (!SniffMagic(path, magic, &got, &sniff_error)) return sniff_error;

  std::unique_ptr<EdgeStream> source;
  EdgeSourceInfo built;
  if (got == 4 && std::memcmp(magic, kTrisMagic, 4) == 0) {
    if (options.prefer_mmap) {
      auto mapped = MmapEdgeStream::Open(path);
      if (mapped.ok()) {
        built.reader = EdgeSourceInfo::Reader::kMmap;
        built.total_edges = (*mapped)->total_edges();
        built.turnstile = (*mapped)->turnstile();
        source = std::move(*mapped);
      } else if (mapped.status().code() == StatusCode::kCorruptData) {
        // A malformed file is malformed under any reader; only mapping
        // *infrastructure* failures fall back to FILE reads.
        return mapped.status();
      }
    }
    if (source == nullptr) {
      auto opened = BinaryFileEdgeStream::Open(path);
      if (!opened.ok()) return opened.status();
      built.reader = EdgeSourceInfo::Reader::kFile;
      built.total_edges = (*opened)->total_edges();
      built.turnstile = (*opened)->turnstile();
      source = std::move(*opened);
    }
  } else {
    WallTimer load_timer;
    auto parsed = ReadTextEvents(path);
    if (!parsed.ok()) return parsed.status();
    built.reader = EdgeSourceInfo::Reader::kText;
    built.total_edges = parsed->size();
    built.turnstile = parsed->has_deletes();
    source = std::make_unique<ParsedTextStream>(std::move(*parsed),
                                                load_timer.Seconds());
  }
  if (options.dedup) {
    // Size the filter for the source's real edge count: the default hint
    // would make the hash set rehash repeatedly on the producer thread.
    source = std::make_unique<DedupEdgeStream>(
        std::move(source),
        std::max<std::size_t>(static_cast<std::size_t>(built.total_edges),
                              1 << 12));
  }
  if (info != nullptr) *info = built;
  return source;
}

}  // namespace stream
}  // namespace tristream
