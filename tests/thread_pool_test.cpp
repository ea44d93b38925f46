// Unit tests for the exec/ worker pool: lifecycle, the ParallelFor
// completion barrier, exception propagation to the submitting thread, the
// single-thread bypass (no workers, body inline on the caller), the parked
// hand-off of an oversubscribed pool, work stealing across home slices,
// and parking when idle.
#include "exec/thread_pool.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tcsm {
namespace {

TEST(ThreadPoolTest, StartupShutdownWithoutWork) {
  // Pools of every shape construct and join cleanly with no job posted.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), std::max<size_t>(n, 1));
    EXPECT_EQ(pool.pooled(), n > 1);
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForIsACompletionBarrier) {
  ThreadPool pool(4);
  // Bodies stagger their finish; after ParallelFor returns every body
  // must have fully completed (the counter equals n, never less).
  std::atomic<size_t> completed{0};
  const size_t n = 64;
  pool.ParallelFor(n, [&](size_t i) {
    if (i % 7 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    completed.fetch_add(1);
  });
  EXPECT_EQ(completed.load(), n);
  // The pool is reusable: a second job sees a clean slate.
  completed.store(0);
  pool.ParallelFor(n, [&](size_t) { completed.fetch_add(1); });
  EXPECT_EQ(completed.load(), n);
}

TEST(ThreadPoolTest, ActuallyRunsConcurrently) {
  // With 4 threads (3 workers + caller) and 4 bodies that each wait for
  // all 4 to have started, the job can only finish if the bodies really
  // run on distinct threads at the same time.
  ThreadPool pool(4);
  std::atomic<size_t> started{0};
  pool.ParallelFor(4, [&](size_t) {
    started.fetch_add(1);
    while (started.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 4u);
}

TEST(ThreadPoolTest, ExceptionPropagatesToSubmitter) {
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](size_t i) {
                                  if (i == 13) {
                                    throw std::runtime_error("boom");
                                  }
                                  ran.fetch_add(1);
                                }),
               std::runtime_error);
  // The throw happened after the barrier: nothing is still running, and
  // the pool stays usable.
  std::atomic<size_t> after{0};
  pool.ParallelFor(50, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50u);
}

TEST(ThreadPoolTest, SingleThreadBypassStaysOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.pooled());
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.ParallelFor(32, [&](size_t) { seen.insert(std::this_thread::get_id()); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
  // Inline mode propagates exceptions directly too, and skips the rest
  // of the loop (fail-fast, like the pooled cancel).
  size_t ran = 0;
  EXPECT_THROW(pool.ParallelFor(10,
                                [&](size_t i) {
                                  if (i == 3) throw std::runtime_error("x");
                                  ++ran;
                                }),
               std::runtime_error);
  EXPECT_EQ(ran, 3u);
}

TEST(ThreadPoolTest, EmptyJobIsANoOp) {
  ThreadPool pool(4);
  bool touched = false;
  pool.ParallelFor(0, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, OversubscribedPoolRunsTinyJobsExactlyOnce) {
  // Twice as many participants as cores: the pool must park instead of
  // spinning, and every hand-off must still deliver each index once.
  const size_t cores = std::max<unsigned>(1, std::thread::hardware_concurrency());
  ThreadPool pool(2 * cores);
  const size_t max_n = 3 * pool.num_threads();
  std::vector<std::atomic<int>> hits(max_n);
  for (size_t job = 0; job < 10000; ++job) {
    const size_t n = 2 + job % (max_n - 1);
    pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].exchange(0), 1) << "job " << job << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, IdleParticipantsStealFromABlockedHomeSlice) {
  // Body 0 sits in the caller's home slice and blocks until every other
  // index has run, so the rest of that slice must be stolen by workers.
  ThreadPool pool(4);
  const size_t n = 4 * pool.num_threads();
  std::atomic<size_t> others{0};
  std::atomic<bool> timed_out{false};
  pool.ParallelFor(n, [&](size_t i) {
    if (i != 0) {
      others.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (others.load() < n - 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(timed_out.load()) << "only " << others.load() << " of "
                                 << n - 1 << " other indices ran";
  EXPECT_EQ(others.load(), n - 1);
}

TEST(ThreadPoolTest, IdlePoolParks) {
  // After a job, spinning workers must give up and park: 300 ms of
  // idleness may cost the process only a fraction of one core.
  const size_t cores = std::max<unsigned>(1, std::thread::hardware_concurrency());
  ThreadPool pool(std::clamp<size_t>(cores, 2, 4));
  std::atomic<size_t> ran{0};
  pool.ParallelFor(64, [&](size_t) { ran.fetch_add(1); });
  ASSERT_EQ(ran.load(), 64u);
  const auto cpu_ns = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto ns = [](const timeval& t) {
      return int64_t{t.tv_sec} * 1000000000 + int64_t{t.tv_usec} * 1000;
    };
    return ns(usage.ru_utime) + ns(usage.ru_stime);
  };
  const int64_t before = cpu_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const int64_t used = cpu_ns() - before;
  EXPECT_LT(used, 75000000) << "idle pool burned " << used / 1000000
                            << " ms of CPU in 300 ms";
}

}  // namespace
}  // namespace tcsm
