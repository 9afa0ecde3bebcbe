#include "stream/socket_stream.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "stream/binary_io.h"

namespace tristream {
namespace stream {
namespace {

/// "<what>: <strerror(errno)>" for socket-level failures (no path here).
std::string SocketErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Full-write loop; MSG_NOSIGNAL keeps a dead peer an IoError instead of a
/// SIGPIPE. Falls back to write(2) for non-socket fds (pipes in tests).
Status WriteAll(int fd, const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < bytes) {
    ssize_t n = ::send(fd, p + sent, bytes - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, p + sent, bytes - sent);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(SocketErrnoMessage("send on edge socket"));
    }
    if (n == 0) {
      return Status::IoError("edge socket closed mid-send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Result<TcpListener> ListenOnLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(SocketErrnoMessage("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = Status::IoError(SocketErrnoMessage("bind"));
    ::close(fd);
    return s;
  }
  // SOMAXCONN, not a small constant: serve mode legitimately sees dozens
  // of simultaneous connects, and a short backlog turns them into resets.
  if (::listen(fd, SOMAXCONN) < 0) {
    const Status s = Status::IoError(SocketErrnoMessage("listen"));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const Status s = Status::IoError(SocketErrnoMessage("getsockname"));
    ::close(fd);
    return s;
  }
  TcpListener listener;
  listener.fd = fd;
  listener.port = ntohs(addr.sin_port);
  return listener;
}

Result<int> ConnectToLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(SocketErrnoMessage("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    const Status s = Status::IoError(SocketErrnoMessage("connect"));
    ::close(fd);
    return s;
  }
  // Disable Nagle (serve does the same on its accepted end): a 16-byte
  // TRIQ header trailing a burst of edge frames must not sit out a
  // delayed-ACK window -- query latency is an acceptance criterion of
  // serve mode.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WriteEdgeFrame(int fd, std::span<const Edge> edges) {
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion, sizeof(kTrisVersion));
  const std::uint64_t count = edges.size();
  std::memcpy(header + 8, &count, sizeof(count));
  TRISTREAM_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  static_assert(sizeof(Edge) == 8, "frame payload layout");
  return WriteAll(fd, edges.data(), edges.size() * sizeof(Edge));
}

Status WriteEventFrame(int fd, std::span<const Edge> edges,
                       std::span<const EdgeOp> ops) {
  if (!ops.empty() && ops.size() != edges.size()) {
    return Status::InvalidArgument(
        "event frame has " + std::to_string(edges.size()) + " edges but " +
        std::to_string(ops.size()) + " ops");
  }
  // Insert-only spans go out as plain v1 so v1-only peers keep working.
  const bool has_delete =
      std::find(ops.begin(), ops.end(), EdgeOp::kDelete) != ops.end();
  if (!has_delete) return WriteEdgeFrame(fd, edges);
  char header[kTrisHeaderBytes];
  std::memcpy(header, kTrisMagic, 4);
  std::memcpy(header + 4, &kTrisVersion2, sizeof(kTrisVersion2));
  const std::uint64_t count = edges.size();
  std::memcpy(header + 8, &count, sizeof(count));
  TRISTREAM_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  std::vector<std::uint8_t> payload(edges.size() * kTrisEventBytes);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    std::uint8_t* rec = payload.data() + i * kTrisEventBytes;
    std::memcpy(rec, &edges[i], sizeof(Edge));
    rec[8] = static_cast<std::uint8_t>(ops[i]);
  }
  return WriteAll(fd, payload.data(), payload.size());
}

}  // namespace stream
}  // namespace tristream
