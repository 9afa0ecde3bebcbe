#include "engine/serve.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <utility>

#include "ckpt/checkpoint.h"
#include "stream/binary_io.h"
#include "stream/queue_stream.h"
#include "stream/socket_stream.h"
#include "util/logging.h"

namespace tristream {
namespace engine {
namespace {

/// epoll user-data ids for the two non-connection fds.
constexpr std::uint64_t kWakeId = 0;
constexpr std::uint64_t kListenId = 1;

/// Per-read chunk; also the bound on a paused connection's unparsed
/// backlog (we stop reading while bytes remain unpushed).
constexpr std::size_t kReadChunkBytes = 64 * 1024;

/// Retained terminal outcomes (finished snapshots / failure tombstones)
/// per kind; oldest ids forgotten first. Bounds server memory against a
/// workload that churns through stream ids forever.
constexpr std::size_t kMaxRetainedOutcomes = 4096;

/// TRIE payload prefix (see FormatTrieMessage).
constexpr char kTriePrefix[] = "TRIE/";

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Blocking best-effort full write (refusal diagnostics only: the fd is
/// fresh, the frame is tiny, and the peer may already be gone).
void WriteAllBestEffort(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// 16-byte header in the shared TRIS shape with an arbitrary magic.
void WriteFrameHeader(char out[16], const char magic[4],
                      std::uint64_t count) {
  std::memcpy(out, magic, 4);
  std::memcpy(out + 4, &stream::kTrisVersion, sizeof(stream::kTrisVersion));
  std::memcpy(out + 8, &count, sizeof(count));
}

/// The admission-control charge formula, shared by Admit and
/// EstimateSessionCharge: estimator state + ingest queue + the session's
/// double batch buffers + the parse backlog bound. An estimate (the
/// point is refusing before allocating, not auditing after).
std::size_t ChargeForSession(const StreamingEstimator& estimator,
                             const ServeOptions& options) {
  std::size_t w = options.batch_size;
  if (w == 0) w = estimator.preferred_batch_size();
  if (w == 0) w = kDefaultBatchSize;
  return estimator.approx_memory_bytes() +
         options.queue_capacity * sizeof(Edge) + 2 * w * sizeof(Edge) +
         kReadChunkBytes;
}

/// Effective per-session fetch size (what Session::Initialize resolves).
std::size_t EffectiveBatchSize(const StreamingEstimator& estimator,
                               const ServeOptions& options) {
  std::size_t w = options.batch_size;
  if (w == 0) w = estimator.preferred_batch_size();
  if (w == 0) w = kDefaultBatchSize;
  return w;
}

}  // namespace

std::string FormatTrieMessage(const Status& status) {
  std::string out = kTriePrefix;
  out += StatusCodeToken(status.code());
  out += ": ";
  out += status.message();
  return out;
}

TrieError ParseTrieMessage(std::string_view payload) {
  TrieError error;
  error.message = std::string(payload);
  constexpr std::size_t kPrefixLen = sizeof(kTriePrefix) - 1;
  if (payload.substr(0, kPrefixLen) != kTriePrefix) return error;
  const std::size_t colon = payload.find(": ", kPrefixLen);
  if (colon == std::string_view::npos) return error;
  StatusCode code = StatusCode::kInternal;
  if (!StatusCodeFromToken(
          payload.substr(kPrefixLen, colon - kPrefixLen), &code)) {
    return error;
  }
  error.code = code;
  error.message = std::string(payload.substr(colon + 2));
  return error;
}

void EncodeSnapshotBody(const SessionSnapshot& snap, char out[40]) {
  std::memcpy(out, &snap.edges, 8);
  std::memcpy(out + 8, &snap.triangles, 8);
  std::memcpy(out + 16, &snap.wedges, 8);
  std::memcpy(out + 24, &snap.transitivity, 8);
  std::uint64_t flags = 0;
  if (snap.has_wedges) flags |= 1;
  if (snap.final_result) flags |= 2;
  if (snap.valid) flags |= 4;
  std::memcpy(out + 32, &flags, 8);
}

Result<SnapshotWire> DecodeSnapshotBody(const char* data, std::size_t size) {
  if (size < kSnapshotBodyBytes) {
    return Status::CorruptData("short TRIR snapshot body");
  }
  SnapshotWire wire;
  std::memcpy(&wire.edges, data, 8);
  std::memcpy(&wire.triangles, data + 8, 8);
  std::memcpy(&wire.wedges, data + 16, 8);
  std::memcpy(&wire.transitivity, data + 24, 8);
  std::uint64_t flags = 0;
  std::memcpy(&flags, data + 32, 8);
  wire.has_wedges = (flags & 1) != 0;
  wire.final_result = (flags & 2) != 0;
  wire.valid = (flags & 4) != 0;
  return wire;
}

/// Everything the event loop owns about one admitted connection.
struct Server::Conn {
  std::uint64_t id = 0;
  int fd = -1;
  bool epoll_registered = false;

  std::unique_ptr<StreamingEstimator> estimator;
  std::unique_ptr<stream::QueueEdgeStream> queue;
  std::unique_ptr<Session> session;

  /// Unparsed received bytes; [inbuf_off, size) is live. Bounded: reads
  /// pause while anything here cannot be pushed yet.
  std::vector<char> inbuf;
  std::size_t inbuf_off = 0;
  /// Events the current TRIS frame still owes (payload parse cursor --
  /// frames never buffer whole, however large).
  std::uint64_t frame_edges_remaining = 0;
  /// Version of the in-flight frame: sets the record size (8-byte pairs
  /// for v1, 9-byte edge+op records for v2). Frames of either version may
  /// interleave freely on one connection.
  std::uint32_t frame_version = stream::kTrisVersion;

  std::vector<char> wbuf;
  std::size_t wbuf_off = 0;

  bool want_read = true;
  bool want_write = false;
  bool peer_eof = false;      // read side saw FIN
  bool read_done = false;     // no more reads (EOF, error, protocol fail)
  bool queue_closed = false;  // ingest queue Close() issued
  bool reaped = false;        // session finished; final frame queued
  bool close_after_flush = false;

  // ---- self-healing state ----
  /// Nonzero once a TRIH attached this connection to a durable identity.
  std::uint64_t stream_id = 0;
  bool named = false;
  /// Any frame header consumed (TRIH must be the first).
  bool saw_frame = false;
  /// Session handed to the scheduler (deferred past Admit; see
  /// EnsureSessionScheduled).
  bool scheduled = false;
  /// TRIF received: a disconnect after this finishes, never detaches.
  bool finish_requested = false;
  /// Events admitted into the queue on this stream identity -- the
  /// number a resume handshake acks. Carried across reconnects by the
  /// detached record.
  std::uint64_t events_pushed = 0;
  /// The queue's space hook routes through this indirection (the hook
  /// itself can never be replaced once the consumer runs): it holds the
  /// id of the conn currently attached to the queue, 0 while detached.
  std::shared_ptr<std::atomic<std::uint64_t>> hook_target;

  std::size_t memory_charge = 0;
  std::chrono::steady_clock::time_point last_activity;
};

/// A named session parked between connections: everything a reconnect
/// needs to adopt it in place. The queue stays OPEN -- the session keeps
/// absorbing already-pushed events, then parks on its empty queue until
/// the client returns (or eviction checkpoints it away).
struct Server::Detached {
  std::uint64_t stream_id = 0;
  std::unique_ptr<StreamingEstimator> estimator;
  std::unique_ptr<stream::QueueEdgeStream> queue;
  std::unique_ptr<Session> session;
  std::shared_ptr<std::atomic<std::uint64_t>> hook_target;
  std::uint64_t events_pushed = 0;
  std::size_t charge = 0;
  bool scheduled = false;
  std::chrono::steady_clock::time_point detached_at;
};

Server::Server(ServeOptions options) : options_(std::move(options)) {}

Server::~Server() {
  Stop();
  Wait();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Result<std::uint16_t> Server::Start() {
  TRISTREAM_CHECK(!started_ && "Server::Start called twice");
  auto listener = stream::ListenOnLoopback(options_.port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener->fd;
  port_ = listener->port;
  SetNonBlocking(listen_fd_);
  listener_open_ = true;

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  SchedulerOptions sched_options;
  sched_options.num_workers = std::max<std::size_t>(options_.num_workers, 1);
  sched_options.on_session_done = [this](Session& session) {
    {
      std::lock_guard<std::mutex> lock(mail_mu_);
      done_sessions_.push_back(&session);
    }
    WakeLoop();
  };
  scheduler_ = std::make_unique<Scheduler>(std::move(sched_options));
  scheduler_->Start();

  started_ = true;
  loop_thread_ = std::thread([this] { EventLoop(); });
  return port_;
}

void Server::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Server::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) WakeLoop();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Server::WakeLoop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

Server::Conn* Server::FindConn(std::uint64_t id) {
  for (auto& conn : conns_) {
    if (conn->id == id) return conn.get();
  }
  return nullptr;
}

Server::Conn* Server::FindConnBySession(const Session* session) {
  for (auto& conn : conns_) {
    if (conn->session.get() == session) return conn.get();
  }
  return nullptr;
}

void Server::CloseListener() {
  if (!listener_open_) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_fd_ = -1;
  listener_open_ = false;
}

void Server::Refuse(int fd, const Status& status) {
  const std::string message = FormatTrieMessage(status);
  std::vector<char> frame(stream::kTrisHeaderBytes + message.size());
  WriteFrameHeader(frame.data(), kServeErrorMagic, message.size());
  std::memcpy(frame.data() + stream::kTrisHeaderBytes, message.data(),
              message.size());
  WriteAllBestEffort(fd, frame.data(), frame.size());
  ::close(fd);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.refused;
}

void Server::HandleAccept() {
  while (listener_open_) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient failure: next event retries
    }
    // Query replies are 56-byte writes racing client edge bursts; Nagle
    // would park them behind a delayed ACK and inflate TRIQ latency.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++accepts_;
    Admit(fd);
    if (options_.max_accepts != 0 && accepts_ >= options_.max_accepts) {
      CloseListener();
      return;
    }
  }
}

std::size_t Server::EstimateSessionCharge(const ServeOptions& options) {
  auto estimator = MakeEstimator(options.algo, options.config);
  if (!estimator.ok()) return 0;
  return ChargeForSession(**estimator, options);
}

SessionOptions Server::MakeSessionOptions(std::string checkpoint_path) const {
  SessionOptions session_options;
  session_options.batch_size = options_.batch_size;
  session_options.quantum_batches = options_.quantum_batches;
  session_options.cooperative = true;
  session_options.report_every_edges = options_.report_every_edges;
  session_options.on_report = options_.on_report;
  if (!checkpoint_path.empty() && options_.checkpoint_every_edges != 0) {
    session_options.checkpoint_path = std::move(checkpoint_path);
    session_options.checkpoint_every_edges = options_.checkpoint_every_edges;
    session_options.checkpoint_sync_every = options_.checkpoint_sync_every;
  }
  return session_options;
}

std::string Server::CheckpointPathFor(std::uint64_t stream_id) const {
  return options_.checkpoint_dir + "/stream-" + std::to_string(stream_id) +
         ".ckpt";
}

void Server::Admit(int fd) {
  const std::size_t max_sessions =
      std::max<std::size_t>(options_.max_sessions, 1);
  if (conns_.size() >= max_sessions) {
    Refuse(fd, Status::Unavailable(
                   "session limit reached (max_sessions=" +
                   std::to_string(max_sessions) + "); connection refused"));
    return;
  }
  auto estimator = MakeEstimator(options_.algo, options_.config);
  if (!estimator.ok()) {
    Refuse(fd, Status(estimator.status().code(),
                      "estimator construction failed: " +
                          estimator.status().message()));
    return;
  }
  const std::size_t charge = ChargeForSession(**estimator, options_);
  {
    std::size_t used = 0;
    bool over_budget = false;
    const auto reserve = [&] {
      std::lock_guard<std::mutex> lock(stats_mu_);
      used = stats_.memory_used;
      over_budget = options_.memory_budget_bytes != 0 &&
                    used + charge > options_.memory_budget_bytes;
      if (!over_budget) stats_.memory_used += charge;
    };
    reserve();
    // Memory pressure relief: detached sessions are idle state waiting
    // on a maybe-reconnect; checkpointing the coldest to disk and freeing
    // it beats refusing live work.
    while (over_budget && EvictColdestDetached()) reserve();
    if (over_budget) {
      Refuse(fd, Status::Unavailable(
                     "memory budget exceeded: session needs ~" +
                     std::to_string(charge) + " bytes, " +
                     std::to_string(used) + " of " +
                     std::to_string(options_.memory_budget_bytes) +
                     " in use; connection refused"));
      return;
    }
  }
  auto conn = std::make_unique<Conn>();
  conn->id = next_id_++;
  conn->fd = fd;
  conn->estimator = std::move(*estimator);
  conn->queue = std::make_unique<stream::QueueEdgeStream>(
      std::max<std::size_t>(options_.queue_capacity, 1));
  // The space hook is pinned to the queue for its lifetime, but the
  // queue can outlive this connection (detach/adopt) -- so it routes
  // through a shared atomic holding the currently-attached conn id.
  conn->hook_target =
      std::make_shared<std::atomic<std::uint64_t>>(conn->id);
  const std::shared_ptr<std::atomic<std::uint64_t>> target =
      conn->hook_target;
  conn->queue->SetSpaceHook([this, target] {
    {
      std::lock_guard<std::mutex> lock(mail_mu_);
      resume_ids_.push_back(target->load(std::memory_order_acquire));
    }
    WakeLoop();
  });
  conn->session = std::make_unique<Session>(*conn->estimator, *conn->queue,
                                            MakeSessionOptions({}));
  conn->memory_charge = charge;
  conn->last_activity = std::chrono::steady_clock::now();

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.memory_used -= charge;
    ::close(fd);
    return;
  }
  conn->epoll_registered = true;

  conns_.push_back(std::move(conn));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
    stats_.active_sessions = conns_.size();
  }
  // Scheduling is deferred to the first frame (EnsureSessionScheduled):
  // a TRIH hello may replace this fresh session with an adopted or
  // restored one, which must happen before any worker steps it.
}

void Server::EnsureSessionScheduled(Conn& conn) {
  if (conn.scheduled || conn.session == nullptr) return;
  conn.scheduled = true;
  scheduler_->Add(conn.session.get());
}

void Server::FailConn(Conn& conn, Status status) {
  if (!conn.queue_closed) {
    conn.queue->Close(std::move(status));
    conn.queue_closed = true;
  }
  conn.read_done = true;
  conn.want_read = false;
  // The session must run to reap: that is where the coded TRIE goes out
  // and the completed/failed accounting happens.
  EnsureSessionScheduled(conn);
  scheduler_->Kick();
}

void Server::SendHelloAck(Conn& conn, std::uint64_t acked) {
  // Only the edges field carries meaning in a hello ack (the
  // acknowledged delivered-event count); estimates are zeroed and
  // neither valid nor final.
  SessionSnapshot snap;
  snap.edges = acked;
  char frame[stream::kTrisHeaderBytes + kSnapshotBodyBytes];
  WriteFrameHeader(frame, kServeSnapshotMagic, kSnapshotBodyBytes);
  EncodeSnapshotBody(snap, frame + stream::kTrisHeaderBytes);
  QueueWrite(conn, frame, sizeof(frame));
  FlushWrites(conn);  // cannot destroy: close_after_flush is not set
}

void Server::DetachConn(Conn& conn) {
  auto rec = std::make_unique<Detached>();
  rec->stream_id = conn.stream_id;
  rec->estimator = std::move(conn.estimator);
  rec->queue = std::move(conn.queue);
  rec->session = std::move(conn.session);
  rec->hook_target = conn.hook_target;
  rec->events_pushed = conn.events_pushed;
  rec->charge = conn.memory_charge;
  rec->scheduled = conn.scheduled;
  rec->detached_at = std::chrono::steady_clock::now();
  // Space-hook wakeups stop resolving to a connection until re-adoption.
  rec->hook_target->store(0, std::memory_order_release);
  detached_.push_back(std::move(rec));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.detached;
  }
  conn.memory_charge = 0;  // the detached record holds the charge now
  DestroyConn(conn);
}

bool Server::AttachHello(Conn& conn, std::uint64_t stream_id) {
  if (stream_id == 0) {
    FailConn(conn, Status::InvalidArgument(
                       "stream id 0 is reserved (anonymous sessions simply "
                       "omit the TRIH hello)"));
    return false;
  }
  // Duplicate attach: one live connection per identity. Unavailable (not
  // FailedPrecondition) on purpose -- the usual cause is a reconnect
  // racing the server's discovery that the old connection died, which a
  // backoff retry resolves by itself.
  for (const auto& other : conns_) {
    if (other.get() != &conn && other->stream_id == stream_id) {
      FailConn(conn, Status::Unavailable(
                         "stream id " + std::to_string(stream_id) +
                         " is already attached to a live connection; retry "
                         "after it detaches"));
      return false;
    }
  }
  // A terminally failed identity replays its failure -- a retrying
  // client must learn the true outcome, not silently start over.
  if (const auto it = tombstones_.find(stream_id); it != tombstones_.end()) {
    FailConn(conn, it->second);
    return false;
  }
  // A finished identity replays its final TRIR; this connection's fresh
  // session never runs.
  if (const auto it = finished_.find(stream_id); it != finished_.end()) {
    char frame[stream::kTrisHeaderBytes + kSnapshotBodyBytes];
    WriteFrameHeader(frame, kServeSnapshotMagic, kSnapshotBodyBytes);
    EncodeSnapshotBody(it->second, frame + stream::kTrisHeaderBytes);
    QueueWrite(conn, frame, sizeof(frame));
    conn.reaped = true;
    conn.read_done = true;
    conn.want_read = false;
    conn.close_after_flush = true;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.completed;
    }
    return FlushWrites(conn);
  }
  conn.named = true;
  conn.stream_id = stream_id;
  // Adopt a detached session: the reconnect case. Everything transfers
  // in place; the estimate trajectory never notices the gap.
  for (auto it = detached_.begin(); it != detached_.end(); ++it) {
    if ((*it)->stream_id != stream_id) continue;
    std::unique_ptr<Detached> rec = std::move(*it);
    detached_.erase(it);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.memory_used -= conn.memory_charge;  // release the fresh charge
      ++stats_.resumed;
    }
    conn.memory_charge = rec->charge;
    conn.estimator = std::move(rec->estimator);
    conn.queue = std::move(rec->queue);
    conn.session = std::move(rec->session);
    conn.hook_target = rec->hook_target;
    conn.events_pushed = rec->events_pushed;
    conn.scheduled = rec->scheduled;
    conn.hook_target->store(conn.id, std::memory_order_release);
    SendHelloAck(conn, conn.events_pushed);
    scheduler_->Kick();
    return false;
  }
  // No live state for this identity: rebuild the session under its
  // durable checkpoint path, restoring the estimator from disk when an
  // (evicted or crash-survived) snapshot exists.
  std::uint64_t acked = 0;
  const bool checkpointing = !options_.checkpoint_dir.empty() &&
                             options_.checkpoint_every_edges != 0;
  std::string ckpt_path =
      checkpointing ? CheckpointPathFor(stream_id) : std::string();
  if (checkpointing) {
    auto loaded = ckpt::LoadCheckpoint(ckpt_path, *conn.estimator);
    if (loaded.ok()) {
      const std::size_t w = EffectiveBatchSize(*conn.estimator, options_);
      if (loaded->batch_size != w) {
        FailConn(conn,
                 Status::InvalidArgument(
                     "checkpoint for stream id " + std::to_string(stream_id) +
                     " was taken at batch size " +
                     std::to_string(loaded->batch_size) +
                     " but this server runs " + std::to_string(w) +
                     "; restart the server with the original batch size"));
        return false;
      }
      acked = loaded->edges_processed;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.restored;
    } else if (loaded.status().code() != StatusCode::kUnavailable) {
      // Both generations unreadable: loud, coded, named -- never a
      // silent fresh start that would desynchronize the client's resume
      // position.
      FailConn(conn, loaded.status());
      return false;
    }
  }
  conn.session = std::make_unique<Session>(
      *conn.estimator, *conn.queue, MakeSessionOptions(std::move(ckpt_path)));
  SendHelloAck(conn, acked);
  return false;
}

bool Server::EvictColdestDetached() {
  if (options_.checkpoint_dir.empty() ||
      options_.checkpoint_every_edges == 0) {
    return false;  // nowhere to persist the parked state
  }
  // Coldest first: the longest-detached identity is the least likely to
  // reconnect soon.
  std::vector<std::size_t> order(detached_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return detached_[a]->detached_at < detached_[b]->detached_at;
  });
  for (const std::size_t idx : order) {
    Detached& rec = *detached_[idx];
    const bool was_scheduled = rec.scheduled;
    if (was_scheduled && !scheduler_->Remove(rec.session.get())) {
      // A worker is stepping it right now (or it just finished and its
      // reap is in the mailbox): not claimable this pass.
      continue;
    }
    rec.scheduled = false;
    // Always fsync an eviction: this snapshot is about to become the
    // session's only copy.
    const Status saved = ckpt::SaveCheckpoint(
        CheckpointPathFor(rec.stream_id), *rec.estimator,
        EffectiveBatchSize(*rec.estimator, options_), /*sync=*/true);
    if (!saved.ok()) {
      // A failed write must not kill a healthy parked session; put it
      // back and try the next candidate.
      if (was_scheduled) {
        rec.scheduled = true;
        scheduler_->Add(rec.session.get());
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.memory_used -= rec.charge;
      ++stats_.evicted;
    }
    detached_.erase(detached_.begin() +
                    static_cast<std::ptrdiff_t>(idx));
    return true;
  }
  return false;
}

void Server::RememberOutcome(std::uint64_t stream_id, Session& session,
                             const Status& status) {
  if (stream_id == 0) return;
  if (status.ok()) {
    if (finished_.emplace(stream_id, session.snapshot()).second) {
      finished_order_.push_back(stream_id);
      if (finished_order_.size() > kMaxRetainedOutcomes) {
        finished_.erase(finished_order_.front());
        finished_order_.pop_front();
      }
    }
  } else {
    if (tombstones_.emplace(stream_id, status).second) {
      tombstone_order_.push_back(stream_id);
      if (tombstone_order_.size() > kMaxRetainedOutcomes) {
        tombstones_.erase(tombstone_order_.front());
        tombstone_order_.pop_front();
      }
    }
  }
}

void Server::UpdateEpoll(Conn& conn) {
  if (!conn.epoll_registered) return;
  epoll_event ev{};
  ev.events = (conn.want_read ? EPOLLIN : 0u) |
              (conn.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::HandleReadable(Conn& conn) {
  if (conn.read_done || !conn.want_read) return;
  char buf[kReadChunkBytes];
  const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
  if (n > 0) {
    conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
    conn.last_activity = std::chrono::steady_clock::now();
    ParseIngest(conn);
    return;
  }
  if (n == 0) {
    // A named connection that disappears without TRIF is a client that
    // may come back: park the session instead of finishing it. (Partial
    // frames and unparsed bytes are dropped -- the resume ack tells the
    // client exactly where to resend from.)
    if (conn.named && !conn.finish_requested && !conn.reaped &&
        !conn.queue_closed) {
      DetachConn(conn);  // destroys the conn
      return;
    }
    // Half-close: the client is done sending; the session drains what is
    // buffered and the final TRIR/TRIE still goes out on our half.
    conn.peer_eof = true;
    conn.read_done = true;
    conn.want_read = false;
    EnsureSessionScheduled(conn);
    MaybeFinishIngest(conn);
    UpdateEpoll(conn);
    return;
  }
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
  if (conn.named && !conn.finish_requested && !conn.reaped &&
      !conn.queue_closed) {
    DetachConn(conn);
    return;
  }
  conn.read_done = true;
  conn.want_read = false;
  if (!conn.queue_closed) {
    conn.queue->Close(Status::IoError(
        std::string("read on serve connection: ") + std::strerror(errno)));
    conn.queue_closed = true;
    EnsureSessionScheduled(conn);
    scheduler_->Kick();
  }
  UpdateEpoll(conn);
}

void Server::ParseIngest(Conn& conn) {
  if (conn.queue_closed || conn.reaped) return;
  bool stalled = false;
  while (true) {
    const char* data = conn.inbuf.data() + conn.inbuf_off;
    const std::size_t avail = conn.inbuf.size() - conn.inbuf_off;
    if (conn.frame_edges_remaining > 0) {
      const bool v2 = conn.frame_version == stream::kTrisVersion2;
      const std::size_t record =
          v2 ? stream::kTrisEventBytes : sizeof(Edge);
      const std::size_t whole = static_cast<std::size_t>(
          std::min<std::uint64_t>(conn.frame_edges_remaining,
                                  avail / record));
      if (whole == 0) break;  // need more bytes for even one event
      // Stage into aligned Edge storage (inbuf offsets are arbitrary; v2
      // records are 9 bytes, so their pairs are never aligned in place).
      edge_scratch_.resize(whole);
      if (v2) {
        op_scratch_.resize(whole);
        bool bad_op = false;
        std::uint8_t bad = 0;
        for (std::size_t i = 0; i < whole; ++i) {
          const char* rec = data + i * stream::kTrisEventBytes;
          std::memcpy(&edge_scratch_[i], rec, sizeof(Edge));
          const auto op = static_cast<std::uint8_t>(rec[sizeof(Edge)]);
          if (op > static_cast<std::uint8_t>(EdgeOp::kDelete)) {
            bad = op;
            bad_op = true;
            break;
          }
          op_scratch_[i] = static_cast<EdgeOp>(op);
        }
        if (bad_op) {
          FailConn(conn, Status::CorruptData(
                             "serve connection sent op byte " +
                             std::to_string(bad) +
                             " (neither insert nor delete)"));
          break;
        }
      } else {
        std::memcpy(edge_scratch_.data(), data, whole * sizeof(Edge));
      }
      const std::size_t admitted =
          v2 ? conn.queue->TryPushEvents(
                   std::span<const Edge>(edge_scratch_.data(), whole),
                   std::span<const EdgeOp>(op_scratch_.data(), whole))
             : conn.queue->TryPush(
                   std::span<const Edge>(edge_scratch_.data(), whole));
      if (admitted > 0) {
        conn.inbuf_off += admitted * record;
        conn.frame_edges_remaining -= admitted;
        conn.events_pushed += admitted;  // the resume handshake's ack
        scheduler_->Kick();
      }
      if (admitted < whole) {
        // Queue full: backpressure. Park the remainder (bounded -- we
        // stop reading) until the consumer's space hook resumes us.
        stalled = true;
        break;
      }
      continue;
    }
    if (avail < stream::kTrisHeaderBytes) break;
    std::uint64_t count = 0;
    std::memcpy(&count, data + 8, sizeof(count));
    if (std::memcmp(data, stream::kTrisMagic, 4) == 0) {
      auto header =
          stream::ParseTrisHeader(data, "serve connection sent TRIS frame");
      if (!header.ok()) {
        FailConn(conn, header.status());
        break;
      }
      conn.inbuf_off += stream::kTrisHeaderBytes;
      conn.saw_frame = true;
      EnsureSessionScheduled(conn);
      conn.frame_version = header->version;
      conn.frame_edges_remaining = header->count;  // 0 is a keep-alive
      continue;
    }
    if (std::memcmp(data, kServeQueryMagic, 4) == 0) {
      conn.inbuf_off += stream::kTrisHeaderBytes;
      conn.saw_frame = true;
      EnsureSessionScheduled(conn);
      // Reply from the cached snapshot immediately -- never a Flush, so a
      // query cannot stall ingest or perturb the estimate -- and ask the
      // session to refresh at its next non-perturbing quantum boundary.
      SendSnapshot(conn, /*request_refresh=*/true);
      continue;
    }
    if (std::memcmp(data, kServeHelloMagic, 4) == 0) {
      if (conn.saw_frame) {
        FailConn(conn, Status::FailedPrecondition(
                           "TRIH hello must be the first frame on a "
                           "connection"));
        break;
      }
      if (count != 8) {
        FailConn(conn, Status::CorruptData(
                           "TRIH hello frame must carry exactly an 8-byte "
                           "stream id (got count " + std::to_string(count) +
                           ")"));
        break;
      }
      if (avail < stream::kTrisHeaderBytes + 8) break;  // wait for payload
      std::uint64_t stream_id = 0;
      std::memcpy(&stream_id, data + stream::kTrisHeaderBytes, 8);
      conn.inbuf_off += stream::kTrisHeaderBytes + 8;
      conn.saw_frame = true;
      // AttachHello may destroy the conn (finished-identity replay whose
      // final frame drains synchronously): true means hands off.
      if (AttachHello(conn, stream_id)) return;
      if (conn.queue_closed) break;  // attach refused; session will reap
      continue;
    }
    if (std::memcmp(data, kServeFinishMagic, 4) == 0) {
      conn.inbuf_off += stream::kTrisHeaderBytes;
      conn.saw_frame = true;
      // Explicit finish: drain and answer. Unlike a bare disconnect on a
      // named connection, this is a commitment -- never a detach.
      conn.finish_requested = true;
      conn.read_done = true;
      if (!conn.queue_closed) {
        conn.queue->Close(Status::Ok());
        conn.queue_closed = true;
      }
      EnsureSessionScheduled(conn);
      scheduler_->Kick();
      break;
    }
    FailConn(conn,
             Status::CorruptData("serve connection sent bad frame magic"));
    break;
  }
  // Compact the consumed prefix.
  if (conn.inbuf_off == conn.inbuf.size()) {
    conn.inbuf.clear();
    conn.inbuf_off = 0;
  } else if (conn.inbuf_off >= kReadChunkBytes) {
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() +
                         static_cast<std::ptrdiff_t>(conn.inbuf_off));
    conn.inbuf_off = 0;
  }
  conn.want_read = !conn.read_done && !stalled;
  if (conn.peer_eof) MaybeFinishIngest(conn);
  UpdateEpoll(conn);
}

void Server::MaybeFinishIngest(Conn& conn) {
  if (!conn.peer_eof || conn.queue_closed) return;
  const std::size_t avail = conn.inbuf.size() - conn.inbuf_off;
  if (conn.frame_edges_remaining > 0) {
    const std::size_t record = conn.frame_version == stream::kTrisVersion2
                                   ? stream::kTrisEventBytes
                                   : sizeof(Edge);
    if (avail >= record) return;  // payload still pushing through
    conn.queue->Close(
        Status::CorruptData("serve connection closed mid-frame"));
  } else if (avail > 0) {
    // Leftover bytes that never completed a header.
    conn.queue->Close(
        Status::CorruptData("serve connection closed mid-frame"));
  } else {
    conn.queue->Close(Status::Ok());
  }
  conn.queue_closed = true;
  scheduler_->Kick();
}

void Server::QueueWrite(Conn& conn, const char* data, std::size_t size) {
  conn.wbuf.insert(conn.wbuf.end(), data, data + size);
}

void Server::SendSnapshot(Conn& conn, bool request_refresh) {
  const SessionSnapshot snap = conn.session->snapshot();
  char frame[stream::kTrisHeaderBytes + kSnapshotBodyBytes];
  WriteFrameHeader(frame, kServeSnapshotMagic, kSnapshotBodyBytes);
  EncodeSnapshotBody(snap, frame + stream::kTrisHeaderBytes);
  QueueWrite(conn, frame, sizeof(frame));
  FlushWrites(conn);  // cannot destroy: close_after_flush is a reap state
  if (request_refresh) {
    conn.session->RequestSnapshot();
    scheduler_->Kick();
  }
}

void Server::SendError(Conn& conn, const std::string& message) {
  std::vector<char> frame(stream::kTrisHeaderBytes + message.size());
  WriteFrameHeader(frame.data(), kServeErrorMagic, message.size());
  std::memcpy(frame.data() + stream::kTrisHeaderBytes, message.data(),
              message.size());
  QueueWrite(conn, frame.data(), frame.size());
}

bool Server::FlushWrites(Conn& conn) {
  while (conn.wbuf_off < conn.wbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.wbuf.data() + conn.wbuf_off,
               conn.wbuf.size() - conn.wbuf_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.wbuf_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn.want_write = true;
      UpdateEpoll(conn);
      return false;
    }
    // Peer is gone; nothing left to deliver.
    conn.wbuf.clear();
    conn.wbuf_off = 0;
    break;
  }
  conn.wbuf.clear();
  conn.wbuf_off = 0;
  conn.want_write = false;
  if (conn.close_after_flush) {
    DestroyConn(conn);
    return true;
  }
  UpdateEpoll(conn);
  return false;
}

void Server::ReapSession(Session* session) {
  Conn* conn = FindConnBySession(session);
  if (conn == nullptr) {
    // The session may have finished while detached (its queue closed by
    // shutdown, or a checkpoint write failing mid-absorb): record the
    // outcome for the eventual reconnect to replay, free the parked
    // state.
    for (auto it = detached_.begin(); it != detached_.end(); ++it) {
      if ((*it)->session.get() != session) continue;
      std::unique_ptr<Detached> rec = std::move(*it);
      detached_.erase(it);
      const Status status = session->status();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (status.ok()) {
          ++stats_.completed;
        } else {
          ++stats_.failed;
        }
        stats_.memory_used -= rec->charge;
      }
      RememberOutcome(rec->stream_id, *session, status);
      if (options_.on_session_end) options_.on_session_end(*session, status);
      return;
    }
    return;
  }
  if (conn->reaped) return;
  conn->reaped = true;
  conn->read_done = true;
  conn->want_read = false;
  const Status status = session->status();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (status.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  if (conn->named) RememberOutcome(conn->stream_id, *session, status);
  if (status.ok()) {
    // Session::Finish refreshed the snapshot post-Flush: final answer.
    const SessionSnapshot snap = conn->session->snapshot();
    char frame[stream::kTrisHeaderBytes + kSnapshotBodyBytes];
    WriteFrameHeader(frame, kServeSnapshotMagic, kSnapshotBodyBytes);
    EncodeSnapshotBody(snap, frame + stream::kTrisHeaderBytes);
    QueueWrite(*conn, frame, sizeof(frame));
  } else {
    SendError(*conn, FormatTrieMessage(status));
  }
  conn->close_after_flush = true;
  if (options_.on_session_end) options_.on_session_end(*session, status);
  FlushWrites(*conn);  // destroys the conn when the frame drains now
}

void Server::DestroyConn(Conn& conn) {
  if (conn.epoll_registered) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  }
  ::close(conn.fd);
  const std::uint64_t id = conn.id;
  const std::size_t charge = conn.memory_charge;
  conns_.erase(std::find_if(conns_.begin(), conns_.end(),
                            [id](const std::unique_ptr<Conn>& c) {
                              return c->id == id;
                            }));
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.memory_used -= charge;
  stats_.active_sessions = conns_.size();
}

void Server::DrainWake() {
  std::uint64_t drained = 0;
  while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
  }
  std::vector<Session*> done;
  std::vector<std::uint64_t> resume;
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    done.swap(done_sessions_);
    resume.swap(resume_ids_);
  }
  for (const std::uint64_t id : resume) {
    Conn* conn = FindConn(id);
    if (conn != nullptr && !conn->reaped) ParseIngest(*conn);
  }
  for (Session* session : done) ReapSession(session);
}

void Server::SweepIdle() {
  if (options_.idle_timeout_millis <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_millis);
  // Two passes: DetachConn erases from conns_, which would invalidate a
  // live iteration.
  std::vector<std::uint64_t> expired;
  for (const auto& conn : conns_) {
    if (conn->read_done || conn->reaped || conn->queue_closed) continue;
    if (now - conn->last_activity < limit) continue;
    expired.push_back(conn->id);
  }
  for (const std::uint64_t id : expired) {
    Conn* conn = FindConn(id);
    if (conn == nullptr) continue;
    if (conn->named && !conn->finish_requested) {
      // A silent half-open named peer is indistinguishable from a crash
      // in progress: park it like any other disconnect.
      DetachConn(*conn);
      continue;
    }
    conn->queue->Close(Status::DeadlineExceeded(
        "serve connection idle for " +
        std::to_string(options_.idle_timeout_millis) +
        " ms (receive idle timeout)"));
    conn->queue_closed = true;
    conn->read_done = true;
    conn->want_read = false;
    EnsureSessionScheduled(*conn);
    UpdateEpoll(*conn);
    scheduler_->Kick();
  }
}

void Server::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (true) {
    int timeout = -1;
    if (options_.idle_timeout_millis > 0) {
      timeout = std::max(10, options_.idle_timeout_millis / 4);
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        DrainWake();
        continue;
      }
      if (id == kListenId) {
        HandleAccept();
        continue;
      }
      Conn* conn = FindConn(id);
      if (conn == nullptr) continue;  // reaped earlier this round
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Reset / full close. A named session parks for the reconnect
        // (the client resends from the resume ack, so any bytes the RST
        // discarded are recovered); an anonymous one fails -- the conn
        // survives until the scheduler reaps it (the final write will
        // just miss).
        if (conn->named && !conn->finish_requested && !conn->reaped &&
            !conn->queue_closed) {
          DetachConn(*conn);
          continue;
        }
        if (!conn->queue_closed) {
          conn->queue->Close(
              Status::IoError("serve connection reset by peer"));
          conn->queue_closed = true;
          EnsureSessionScheduled(*conn);
          scheduler_->Kick();
        }
        conn->read_done = true;
        conn->want_read = false;
        // Deregister: a 0-mask fd still reports HUP and would spin us.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
        conn->epoll_registered = false;
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(*conn);
      // The conn may have been destroyed inside a handler chain; re-find.
      conn = FindConn(id);
      if (conn == nullptr) continue;
      if (events[i].events & EPOLLOUT) FlushWrites(*conn);
    }
    SweepIdle();
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (!listener_open_ && conns_.empty()) break;  // max_accepts drained
  }
  // Shutdown: fail whatever is still open, stop the workers, then tear
  // the connections down (workers must be joined before their sessions'
  // backing state goes away).
  CloseListener();
  for (auto& conn : conns_) {
    if (!conn->queue_closed) {
      conn->queue->Close(Status::Unavailable("server shutting down"));
      conn->queue_closed = true;
    }
  }
  // Detached sessions fail the same way -- no stat bumps, mirroring the
  // open connections above (a graceful drain happens before Stop).
  for (auto& rec : detached_) {
    rec->queue->Close(Status::Unavailable("server shutting down"));
  }
  scheduler_->Kick();
  scheduler_->Stop();
  while (!conns_.empty()) DestroyConn(*conns_.front());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& rec : detached_) stats_.memory_used -= rec->charge;
  }
  detached_.clear();
}

}  // namespace engine
}  // namespace tristream
