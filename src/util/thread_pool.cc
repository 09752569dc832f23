#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace movd {

ThreadPool::ThreadPool(int threads) {
  if (threads < 0) threads = 0;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) task_ready_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

int ResolveThreads(int threads) {
  if (threads >= 1) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  threads = ResolveThreads(threads);
  if (static_cast<size_t>(threads) > n) threads = static_cast<int>(n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Contiguous blocks of indices, about kClaimsPerThread per thread: the
  // shared counter is touched once per block, and the blocks stay small
  // enough to balance uneven iterations. Loops shorter than
  // threads * kClaimsPerThread still claim one index at a time.
  constexpr size_t kClaimsPerThread = 64;
  const size_t block =
      std::max<size_t>(1, n / (static_cast<size_t>(threads) *
                               kClaimsPerThread));
  std::atomic<size_t> next{0};
  const auto drain = [&next, n, block, &fn] {
    for (size_t first;
         (first = next.fetch_add(block, std::memory_order_relaxed)) < n;) {
      const size_t last = std::min(n, first + block);
      for (size_t i = first; i < last; ++i) fn(i);
    }
  };
  ThreadPool pool(threads - 1);
  for (int t = 1; t < threads; ++t) pool.Submit(drain);
  drain();  // the calling thread is the threads-th worker
  pool.Wait();
}

}  // namespace movd
