// TRIS-framed edge chunks over a stream socket: the frame format and
// the producer-side helpers.
//
// A remote producer (collector, packet tap, another tristream process)
// sends edges over TCP to `serve`, which decodes them in
// engine::Server::ParseIngest. The wire format reuses the TRIS on-disk
// layout, chunked so the stream can be unbounded:
//
//   v1 frame := "TRIS" magic (4) | version u32 = 1 | edge count n u64
//               | n * 8 bytes of (u32 u, u32 v) endpoint pairs
//   v2 frame := "TRIS" magic (4) | version u32 = 2 | event count n u64
//               | n * 9 bytes of (u32 u, u32 v, u8 op) records
//
// i.e. every v1 frame looks exactly like a little TRIS file (binary_io.h),
// in native little-endian byte order, and a connection carries any number
// of frames back to back -- v1 and v2 may interleave freely, the version
// field of each frame header decides. Unlike the on-disk v2 layout (SoA
// sections), socket records interleave the op byte so a frame can be
// parsed incrementally with bounded memory -- a socket cannot seek ahead
// to an op section. An n == 0 frame is a keep-alive delivering nothing.
// Orderly shutdown *between* frames is clean end of stream; EOF
// mid-frame, a bad magic, an unsupported version and a bad op byte are
// CorruptData, never a silent prefix.
//
// The helpers below cover the listen/connect/frame-writing boilerplate
// for serve, the feed client and tests.

#ifndef TRISTREAM_STREAM_SOCKET_STREAM_H_
#define TRISTREAM_STREAM_SOCKET_STREAM_H_

#include <cstdint>
#include <span>

#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace stream {

/// A bound, listening TCP socket (loopback only).
struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;  // actual port (useful when asked for port 0)
};

/// Binds and listens on 127.0.0.1:`port` (0 picks an ephemeral port,
/// reported back in the result). The caller owns the returned fd.
Result<TcpListener> ListenOnLoopback(std::uint16_t port);

/// Connects to 127.0.0.1:`port`; returns the connected fd (caller owns).
Result<int> ConnectToLoopback(std::uint16_t port);

/// Producer-side framing: sends `edges` as one TRIS v1 frame (header +
/// payload) with a full-write loop. An empty span sends a keep-alive
/// frame. IoError when the peer is gone or the write fails.
Status WriteEdgeFrame(int fd, std::span<const Edge> edges);

/// Event framing: insert-only spans (empty or all-insert `ops`) go out as
/// plain v1 frames -- byte-identical to WriteEdgeFrame, so v1-only peers
/// keep working; anything with a delete becomes one v2 frame of
/// interleaved 9-byte records. `ops` is either empty or parallel to
/// `edges`.
Status WriteEventFrame(int fd, std::span<const Edge> edges,
                       std::span<const EdgeOp> ops);

}  // namespace stream
}  // namespace tristream

#endif  // TRISTREAM_STREAM_SOCKET_STREAM_H_
