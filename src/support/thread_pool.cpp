#include "support/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
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

/// One task on whichever lane took it, with its queue wait and span.
/// noexcept: a submitted task that throws terminates on every lane alike.
void run_task(const std::function<void()>& fn,
              std::int64_t enqueue_ns) noexcept {
  // Enqueue→start wait: how long the task sat in the FIFO behind other
  // work — the pool-side analogue of the fabric's recv_wait.
  const std::int64_t wait_ns = obs::wall_now_ns() - enqueue_ns;
  pool_metrics().task_wait.add(static_cast<double>(wait_ns) * 1e-9);
  if (obs::tracing_enabled()) {
    obs::complete_wall("pool", "task_wait", enqueue_ns, wait_ns);
  }
  DS_TRACE_SPAN("pool", "task");
  fn();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t lanes) {
  DS_CHECK(lanes > 0, "thread pool needs at least one lane");
  threads_.reserve(lanes - 1);
  for (std::size_t i = 1; i < lanes; ++i) {
    threads_.emplace_back([this] { run_queue(/*pool_thread=*/true); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
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

void ThreadPool::wait_idle() { run_queue(/*pool_thread=*/false); }

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

void ThreadPool::run_queue(bool pool_thread) {
  UniqueLock lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      if (pool_thread ? stop_ : active_ == 0) return;
      (pool_thread ? cv_task_ : cv_idle_).wait(lock);
      continue;
    }
    const QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    pool_metrics().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    ++active_;
    lock.unlock();
    run_task(task.fn, task.enqueue_ns);
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
  }
}

std::size_t hardware_lanes() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&mask)));
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
