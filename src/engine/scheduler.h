// Multiplexes many Sessions over a small worker pool.
//
// The Session layer turned one estimator-on-a-stream run into an object
// advanced by bounded Step() quanta; the Scheduler is the policy that
// decides which session steps next. Two modes share one ready-queue
// discipline:
//
//   * Inline (Run()): the calling thread drives every added session to
//     completion, round-robin over ready sessions, and -- when none is
//     ready -- steps a pending one anyway, blocking in its source exactly
//     like the old monolithic StreamEngine::Run loop. This is the
//     one-session compatibility mode StreamEngine::Run wraps; with a
//     single session it degenerates to "Step until done".
//   * Threaded (Start()/Stop()): num_workers pool workers pop ready
//     sessions, Step() one quantum each (cooperative sessions never block
//     in their sources), and requeue or park them. Producers -- serve
//     mode's event loop, test feeders -- call Kick() after pushing edges
//     or closing a queue, which promotes now-ready parked sessions and
//     wakes a worker. Serve mode runs hundreds of sessions over a handful
//     of workers this way.
//
// Isolation: a session that fails (source error, checkpoint write,
// validation) reaches kFailed, is reaped, and its on_session_done fires;
// nothing about the failure touches any other session's queue position or
// sticky status. Fairness is FIFO: a stepped session goes to the BACK of
// the ready queue, so no session can starve others by staying ready.
//
// Park/Kick race-safety: a worker parks a session only under the
// scheduler mutex, after a fresh ready() check; a producer always pushes
// into the queue (its own mutex) *before* calling Kick (this mutex). So
// either the park-time check observes the pushed edges, or the Kick
// serializes after the park and finds the session in the parked list --
// a wakeup can be duplicated but never lost.

#ifndef TRISTREAM_ENGINE_SCHEDULER_H_
#define TRISTREAM_ENGINE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/session.h"
#include "util/thread_pool.h"

namespace tristream {
namespace engine {

struct SchedulerOptions {
  /// Worker threads for Start() (at least 1 when threaded). Irrelevant to
  /// inline Run(), which uses only the calling thread.
  std::size_t num_workers = 2;

  /// Invoked once per session when it reaches kFinished/kFailed, from the
  /// worker (or Run()-calling) thread that stepped it, with no scheduler
  /// lock held -- re-entering the scheduler (Add, Kick) is allowed. The
  /// session has already been removed from the scheduler; the callback
  /// owns what happens to it next (serve mode sends the final frame and
  /// tears the connection down here).
  std::function<void(Session&)> on_session_done;
};

/// Ready-queue session multiplexer (see file comment). Sessions are
/// non-owning: the caller keeps them alive until on_session_done fires
/// (or, without a callback, until WaitIdle()/Run() returns).
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  /// Stops workers (without draining unfinished sessions) and joins them.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a session and queues it as ready (the first Step must run
  /// regardless of source readiness -- it validates the options).
  /// Callable before or after Start, and from on_session_done.
  void Add(Session* session);

  /// Inline mode: drives every session (including ones added meanwhile)
  /// to completion on the calling thread, then returns. Must not be mixed
  /// with Start() on the same scheduler.
  void Run();

  /// Threaded mode: spawns the worker pool and returns. Sessions step as
  /// they become ready until Stop().
  void Start();

  /// Signals workers to exit after their current quantum and joins them.
  /// Unfinished sessions simply stop being stepped; callers that want a
  /// drain call WaitIdle() first (after closing the sources).
  void Stop();

  /// Re-examines parked sessions (producers call this after Push/Close)
  /// and wakes workers for any that became ready. Cheap when nothing
  /// changed; safe from any thread.
  void Kick();

  /// Blocks until no sessions remain (every on_session_done returned).
  /// Only meaningful in threaded mode while producers are closing their
  /// sources; an idle parked session with an open source never finishes.
  void WaitIdle();

  /// Withdraws `session` from scheduling without finishing it: removed
  /// from whichever queue holds it, active count decremented, no
  /// on_session_done. Returns false -- and does nothing -- when the
  /// session is neither ready nor parked, i.e. a worker holds the
  /// exclusive claim and is stepping it right now; callers retry later or
  /// pick another victim. This is how serve mode's checkpoint-then-evict
  /// claims an idle session: a true return guarantees no worker will
  /// touch it again until a fresh Add().
  bool Remove(Session* session);

  /// Sessions added but not yet reaped (ready + parked + being stepped).
  std::size_t active_sessions() const;

 private:
  void WorkerLoop();
  /// Moves every now-ready parked session to the ready queue, waking one
  /// worker per promotion. Caller holds mu_.
  void PromoteParkedLocked();
  /// Requeue/park/reap after a Step; invokes on_session_done (outside the
  /// lock) and maintains the active count.
  void Account(Session* session);

  SchedulerOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  // workers: ready session or stop
  std::condition_variable idle_cv_;   // WaitIdle: active_ reached 0
  std::deque<Session*> ready_;
  std::vector<Session*> parked_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace engine
}  // namespace tristream

#endif  // TRISTREAM_ENGINE_SCHEDULER_H_
