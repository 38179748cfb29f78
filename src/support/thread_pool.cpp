#include "support/thread_pool.hpp"

#include <exception>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace ds {

namespace {

struct PoolMetrics {
  obs::Counter& tasks = obs::metrics().counter(obs::names::kPoolTasks);
  obs::Gauge& queue_depth =
      obs::metrics().gauge(obs::names::kPoolQueueDepth);
  obs::AccumDouble& task_wait =
      obs::metrics().accum(obs::names::kPoolTaskWaitSeconds);
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

/// First exception captured across a batch of tasks, rethrown on the
/// caller once every task has finished.
struct FailureSlot {
  Mutex mutex;
  std::exception_ptr first DS_GUARDED_BY(mutex);

  void capture() {
    const MutexLock lock(mutex);
    if (!first) first = std::current_exception();
  }
  void rethrow() {
    // Every task has finished: the slot is quiescent and this thread holds
    // the only reference, but the analysis still wants the capability held.
    const MutexLock lock(mutex);
    if (first) std::rethrow_exception(first);
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  DS_CHECK(threads > 0, "thread pool needs at least one thread");
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  PoolMetrics& pm = pool_metrics();
  pm.tasks.add();
  {
    const MutexLock lock(mutex_);
    queue_.push_back(QueuedTask{std::move(task), obs::wall_now_ns()});
    pm.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mutex_);
  while (!(queue_.empty() && active_ == 0)) cv_idle_.wait(lock);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  FailureSlot failure;
  for (std::size_t i = 0; i < n; ++i) {
    submit([&fn, &failure, i] {
      try {
        fn(i);
      } catch (...) {
        failure.capture();
      }
    });
  }
  wait_idle();
  failure.rethrow();
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    {
      UniqueLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_task_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      pool_metrics().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      ++active_;
    }
    // Enqueue→start wait: how long the task sat in the FIFO behind other
    // work — the pool-side analogue of the fabric's recv_wait.
    const std::int64_t start_ns = obs::wall_now_ns();
    const std::int64_t wait_ns = start_ns - task.enqueue_ns;
    pool_metrics().task_wait.add(static_cast<double>(wait_ns) * 1e-9);
    if (obs::tracing_enabled()) {
      obs::complete_wall("pool", "task_wait", task.enqueue_ns, wait_ns);
    }
    {
      DS_TRACE_SPAN("pool", "task");
      task.fn();
    }
    {
      const MutexLock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_threads(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  FailureSlot failure;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        failure.capture();
      }
    });
  }
  for (auto& t : threads) t.join();
  failure.rethrow();
}

}  // namespace ds
