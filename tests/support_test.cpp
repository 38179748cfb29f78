#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/aligned_buffer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "test_util.hpp"

namespace ds {
namespace {

using testing::Rendezvous;

// ------------------------------- Rng ---------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u) << "all residues should appear in 1000 draws";
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianScaled) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(5);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(5), p2(5);
  Rng a = p1.fork(3);
  Rng b = p2.fork(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ReseedResetsSequence) {
  Rng rng(21);
  const auto first = rng();
  rng.reseed(21);
  EXPECT_EQ(rng(), first);
}

// --------------------------- AlignedBuffer ----------------------------------

TEST(AlignedBuffer, AlignedTo64Bytes) {
  AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kAlignment, 0u);
}

TEST(AlignedBuffer, ZeroInitialised) {
  AlignedBuffer buf(257);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBuffer, CopyIsDeep) {
  AlignedBuffer a(8);
  a[3] = 1.5f;
  AlignedBuffer b = a;
  b[3] = 2.5f;
  EXPECT_EQ(a[3], 1.5f);
  EXPECT_EQ(b[3], 2.5f);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(8);
  a[0] = 9.0f;
  const float* ptr = a.data();
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[0], 9.0f);
}

TEST(AlignedBuffer, FillSetsEveryElement) {
  AlignedBuffer buf(33);
  buf.fill(4.25f);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 4.25f);
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.span().empty());
}

TEST(AlignedBuffer, EnsureGrowsOnlyPastCapacity) {
  AlignedBuffer buf(64);
  const float* ptr = buf.data();
  buf.ensure(8);  // shrinks the live size, keeps the allocation
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_GE(buf.capacity(), 64u);
  EXPECT_EQ(buf.data(), ptr);
  buf.ensure(64);
  EXPECT_EQ(buf.size(), 64u);
  EXPECT_EQ(buf.data(), ptr);
  const std::size_t capacity = buf.capacity();
  buf.ensure(capacity + 1);
  EXPECT_EQ(buf.size(), capacity + 1);
  EXPECT_GT(buf.capacity(), capacity);
}

// Grow-only buffers keep their capacity when the live size shrinks; under
// AddressSanitizer the floats past the live size are poisoned, so a read
// past size() that stays inside the allocation still dies.
TEST(AlignedBufferAsan, ReadPastLiveSizeInsideCapacityDies) {
#ifndef DS_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  AlignedBuffer buf(64);
  buf.ensure(8);
  const volatile float* p = buf.data();
  EXPECT_EQ(p[7], 0.0f);
  EXPECT_DEATH((void)p[8], "use-after-poison");
  EXPECT_DEATH((void)p[63], "use-after-poison");
  buf.ensure(64);  // growing back inside the capacity unpoisons
  EXPECT_EQ(p[63], 0.0f);
  // The allocation's rounding slack past an exact size is poisoned too.
  AlignedBuffer odd(3);
  const volatile float* q = odd.data();
  EXPECT_DEATH((void)q[3], "use-after-poison");
#endif
}

// -------------------------------- Error -------------------------------------

TEST(Error, CheckThrowsWithMessage) {
  try {
    DS_CHECK(1 == 2, "the answer is " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the answer is 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(DS_CHECK(true, "never"));
}

// ------------------------------ ThreadPool ----------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ParallelForRethrowsTaskErrorAndStaysUsable) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   DS_CHECK(i != 5, "task " << i << " failed");
                                 }),
               Error);
  EXPECT_EQ(ran.load(), 8) << "the pool must drain every task before rethrowing";

  std::vector<std::atomic<int>> hits(6);
  pool.parallel_for(6, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForThreadsCoversIndices) {
  std::vector<std::atomic<int>> hits(8);
  parallel_for_threads(8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Lanes: the caller plus n − 1 pool threads.

/// Threads of this process, from /proc/self/task.
std::size_t process_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), std::filesystem::directory_iterator{}));
}

TEST(ThreadPoolLanes, OneLaneRunsEverythingOnTheCaller) {
  const std::size_t before = process_threads();
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(process_threads(), before) << "a one-lane pool started a thread";
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(5);
  pool.parallel_for(3, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  pool.submit([&] { ran[3] = std::this_thread::get_id(); });
  pool.submit([&] { ran[4] = std::this_thread::get_id(); });
  pool.wait_idle();
  for (const std::thread::id id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolLanes, NLanesStartNMinusOneThreadsAndTheCallerRunsATask) {
  constexpr std::size_t kLanes = 4;
  const std::size_t before = process_threads();
  ThreadPool pool(kLanes);
  EXPECT_EQ(pool.size(), kLanes);
  EXPECT_EQ(process_threads(), before + kLanes - 1);
  // Every task waits for all the others, so the n tasks run at once, one
  // per lane: the caller has to be one of them.
  Rendezvous meet(kLanes);
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  std::atomic<std::size_t> met{0};
  pool.parallel_for(kLanes, [&](std::size_t) {
    {
      const std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    }
    if (meet.arrive()) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), kLanes) << "the lanes did not all run at once";
  EXPECT_EQ(ids.size(), kLanes);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u)
      << "the caller ran no task";
}

TEST(ThreadPoolLanes, ThrowOnTheCallerRethrowsAfterEveryTaskAndStaysUsable) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous meet(2);
  std::atomic<bool> other_done{false};
  std::atomic<bool> threw{false};
  EXPECT_THROW(
      pool.parallel_for(2,
                        [&](std::size_t) {
                          ASSERT_TRUE(meet.arrive());
                          if (std::this_thread::get_id() == caller) {
                            threw = true;
                            DS_CHECK(false, "task on the caller failed");
                          }
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(20));
                          other_done = true;
                        }),
      Error);
  EXPECT_TRUE(threw.load());
  EXPECT_TRUE(other_done.load())
      << "rethrown before the pool thread's task finished";

  std::vector<std::atomic<int>> hits(6);
  pool.parallel_for(6, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// -------------------------------- Timer -------------------------------------

TEST(Timer, MeasuresNonNegativeTime) {
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.milliseconds(), 0.0);
}

}  // namespace
}  // namespace ds
