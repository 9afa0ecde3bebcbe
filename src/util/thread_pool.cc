#include "util/thread_pool.h"

#include "util/logging.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace tristream {
namespace {

/// Binds a joinable thread to `cpu`. False when the cpu does not exist,
/// the mask is rejected, or the platform has no affinity API.
bool PinThreadToCpu(std::thread& thread, int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(thread.native_handle(), sizeof(set),
                                  &set) == 0;
#else
  (void)thread;
  (void)cpu;
  return false;
#endif
}

}  // namespace

std::vector<int> AffinityPinPlan(std::size_t num_slots) {
  std::vector<int> allowed;
#if defined(__linux__)
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
    }
  }
#endif
  std::vector<int> plan(num_slots, -1);
  for (std::size_t slot = 0; slot < num_slots && !allowed.empty(); ++slot) {
    plan[slot] = allowed[slot % allowed.size()];
  }
  return plan;
}

ThreadPool::ThreadPool(std::size_t num_threads, ThreadPoolOptions options) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  pinned_.assign(num_threads, 0);
  for (std::size_t slot = 0; slot < num_threads; ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
    // Pin from here (not from the worker) so pinned_ is fully written
    // before the constructor returns: no synchronization needed to read
    // it, and the first dispatched generation already runs on-cpu.
    if (slot < options.pin_cpus.size() && options.pin_cpus[slot] >= 0) {
      pinned_[slot] =
          PinThreadToCpu(workers_.back(), options.pin_cpus[slot]) ? 1 : 0;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Dispatch(std::function<void(std::size_t)> task) {
  TRISTREAM_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    task_ = std::move(task);
    remaining_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
}

void ThreadPool::SetTask(std::function<void(std::size_t)> task) {
  TRISTREAM_CHECK(task != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  task_ = std::move(task);
}

void ThreadPool::Dispatch() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    TRISTREAM_CHECK(task_ != nullptr)
        << "Dispatch() without a published task (SetTask first)";
    remaining_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
}

bool ThreadPool::idle() const {
  std::unique_lock<std::mutex> lock(mu_);
  return remaining_ == 0;
}

void ThreadPool::WorkerLoop(std::size_t slot) {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_generation] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    // Invoke the shared callable in place: task_ is only (re)assigned
    // while every worker is idle (remaining_ == 0), and this worker's
    // decrement below is what lets the controller reach that state, so
    // the callable cannot change under us. This keeps the per-batch hot
    // path free of std::function copies on the workers too.
    task_(slot);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--remaining_ == 0) {
        lock.unlock();
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace tristream
