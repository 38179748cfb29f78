// Fixed-size worker pool used by the asynchronous/Hogwild training
// algorithms: each simulated device runs as one pool task so that lock-free
// master updates experience genuine thread interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace ds {

/// Simple FIFO thread pool. A task handed to submit() must not throw
/// (an escaping exception terminates); parallel_for catches its own.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution on some pool thread.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Submit fn(0) … fn(n-1) and block until the pool drains. The partition
  /// of work across pool threads is whatever the FIFO hands out; callers
  /// needing determinism must make the n tasks independent (the compute
  /// kernels do: each output tile is owned by exactly one task). If tasks
  /// throw, the pool still drains and the first captured exception is
  /// rethrown on the calling thread, as parallel_for_threads does.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return threads_.size(); }

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::int64_t enqueue_ns;  // recorder-epoch stamp for task_wait spans
  };

  void worker_loop();

  std::vector<std::thread> threads_;
  Mutex mutex_;
  std::deque<QueuedTask> queue_ DS_GUARDED_BY(mutex_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t active_ DS_GUARDED_BY(mutex_) = 0;
  bool stop_ DS_GUARDED_BY(mutex_) = false;
};

/// Run fn(i) for i in [0, n) across `threads` std::threads and join them all.
/// Used where each logical device must be its own OS thread (Hogwild).
/// If one or more workers throw, every thread is still joined and the first
/// captured exception is rethrown on the calling thread (instead of the
/// std::terminate an escaping thread exception would cause) — note the
/// remaining workers must be able to finish on their own for the join to
/// return, which the fabric's fault mode guarantees via RankFailure.
void parallel_for_threads(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ds
