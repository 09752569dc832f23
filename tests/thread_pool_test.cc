// Unit tests for the parallel substrate: the thread pool, ParallelFor and
// the shared atomic cost-bound primitive (CAS-min).

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace movd {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0);
  int ran = 0;
  pool.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // executed synchronously, no Wait needed
  pool.Wait();        // must not deadlock with nothing queued
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int wave = 1; wave <= 3; ++wave) {
    for (int i = 0; i < 10; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(ran.load(), wave * 10);
  }
}

TEST(ThreadPoolTest, NegativeThreadCountClampsToZero) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.thread_count(), 0);
  int ran = 0;
  pool.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<int> hits(1000, 0);
    ParallelFor(threads, hits.size(), [&](size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
        << "threads=" << threads;
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, BlockClaimsRunEveryIndexExactlyOnce) {
  // Covers one-index claims (short loops), multi-index blocks, and a
  // block size that does not divide n.
  for (const size_t n : {0u, 1u, 2u, 7u, 1000u, 100003u}) {
    for (const int threads : {1, 2, 3, 4, 7}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(threads, n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      size_t wrong = 0;
      for (const std::atomic<int>& h : hits) wrong += h.load() != 1;
      EXPECT_EQ(wrong, 0u) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, EmptyAndSingleton) {
  int ran = 0;
  ParallelFor(8, 0, [&](size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  ParallelFor(8, 1, [&](size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ParallelForTest, SlotOutputsMatchSerialBitwise) {
  // The contract the pipeline relies on: per-slot outputs are identical
  // for every thread count because fn(i) depends only on i.
  const size_t n = 257;
  std::vector<double> serial(n);
  ParallelFor(1, n, [&](size_t i) {
    serial[i] = static_cast<double>(i) * 1.25 + 3.0;
  });
  for (const int threads : {2, 5, 8}) {
    std::vector<double> parallel(n);
    ParallelFor(threads, n, [&](size_t i) {
      parallel[i] = static_cast<double>(i) * 1.25 + 3.0;
    });
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(ResolveThreadsTest, LiteralAndAuto) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
  EXPECT_GE(ResolveThreads(0), 1);   // auto: at least one thread
  EXPECT_GE(ResolveThreads(-1), 1);
}

TEST(AtomicMinDoubleTest, LowersMonotonically) {
  std::atomic<double> bound{10.0};
  AtomicMinDouble(&bound, 12.0);
  EXPECT_EQ(bound.load(), 10.0);  // larger value is a no-op
  AtomicMinDouble(&bound, 7.5);
  EXPECT_EQ(bound.load(), 7.5);
  AtomicMinDouble(&bound, 7.5);
  EXPECT_EQ(bound.load(), 7.5);  // equal value is a no-op
}

TEST(AtomicMinDoubleTest, ConcurrentMinIsGlobalMin) {
  std::atomic<double> bound{1e300};
  ParallelFor(8, 5000, [&](size_t i) {
    AtomicMinDouble(&bound, static_cast<double>((i * 7919) % 5000) + 1.0);
  });
  EXPECT_EQ(bound.load(), 1.0);
}

}  // namespace
}  // namespace movd
