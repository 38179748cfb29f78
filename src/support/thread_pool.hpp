// Fork/join pool behind every concurrent stage that is not one OS thread
// per simulated device: the modeled runners' worker replicas
// (core/replica_set), the forward lanes of probes and serving answers
// (nn/forward_lanes) and the threaded GEMM / direct-conv kernels
// (tensor/kernel_pool.hpp). A pool of n lanes is the calling thread plus
// n − 1 pool threads: whoever waits runs queued tasks itself, so a round
// never parks its caller. Runners that need one thread per device (the
// fabric ranks, async/Hogwild workers) use parallel_for_threads instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace ds {

/// FIFO fork/join pool of `lanes` lanes: the thread that waits plus
/// lanes − 1 pool threads, so a one-lane pool starts no thread and runs
/// everything on the caller. A task handed to submit() must not throw (an
/// escaping exception terminates, on whichever lane ran it); parallel_for
/// catches its own.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t lanes);
  /// Runs what is still queued, then joins the pool threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for some lane.
  void submit(std::function<void()> task);

  /// Run queued tasks on the calling thread until the queue is empty, then
  /// block until the tasks still running on pool threads have finished.
  void wait_idle();

  /// Submit fn(0) … fn(n-1) and wait_idle(). Which lane runs which index
  /// is whatever the FIFO hands out; callers needing determinism must make
  /// the n tasks independent (the compute kernels do: each output tile is
  /// owned by exactly one task). If tasks throw, every task still runs and
  /// the first captured exception is rethrown on the calling thread, as
  /// parallel_for_threads does.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Lanes: the calling thread plus the pool threads.
  std::size_t size() const { return threads_.size() + 1; }

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::int64_t enqueue_ns;  // recorder-epoch stamp for task_wait spans
  };

  /// Runs queued tasks on this thread. A pool thread returns once the pool
  /// stops and the queue is empty; the caller once the queue is empty and
  /// no task is running.
  void run_queue(bool pool_thread);

  std::vector<std::thread> threads_;
  Mutex mutex_;
  std::deque<QueuedTask> queue_ DS_GUARDED_BY(mutex_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t active_ DS_GUARDED_BY(mutex_) = 0;
  bool stop_ DS_GUARDED_BY(mutex_) = false;
};

/// CPUs in the calling thread's affinity mask, at least 1: what a run may
/// use, which under `taskset` is fewer than the machine has.
std::size_t hardware_lanes();

/// Run fn(i) for i in [0, n) across `threads` std::threads and join them all.
/// Used where each logical device must be its own OS thread (Hogwild).
/// If one or more workers throw, every thread is still joined and the first
/// captured exception is rethrown on the calling thread (instead of the
/// std::terminate an escaping thread exception would cause) — note the
/// remaining workers must be able to finish on their own for the join to
/// return, which the fabric's fault mode guarantees via RankFailure.
void parallel_for_threads(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ds
