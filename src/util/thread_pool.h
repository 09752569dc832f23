#ifndef MOVD_UTIL_THREAD_POOL_H_
#define MOVD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace movd {

/// A fixed-size thread pool with one shared FIFO queue (deliberately no
/// work stealing: the pipeline's tasks are coarse — one object set, one
/// grid row range, one Fermat–Weber problem — so a single locked queue is
/// never the bottleneck and keeps the scheduling easy to reason about).
///
/// Tasks must not throw. Submit() may be called from worker tasks; Wait()
/// must only be called from outside the pool.
class ThreadPool {
 public:
  /// Spawns `threads` worker threads (clamped to >= 0). A pool of size 0
  /// runs every submitted task inline in Submit(), which keeps
  /// single-threaded callers free of synchronisation entirely.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.
  void Submit(std::function<void()> task) MOVD_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() MOVD_EXCLUDES(mu_);

  /// Number of worker threads.
  int thread_count() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() MOVD_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_ready_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ MOVD_GUARDED_BY(mu_);
  size_t in_flight_ MOVD_GUARDED_BY(mu_) = 0;  // queued + currently running
  bool stop_ MOVD_GUARDED_BY(mu_) = false;
  /// Written only by the constructor, then immutable; joined by the
  /// destructor. No lock needed.
  std::vector<std::thread> workers_;
};

/// Effective degree of parallelism for a `threads` knob: values >= 1 are
/// taken literally, 0 (and negatives) mean "one per hardware thread".
int ResolveThreads(int threads);

/// Runs fn(i) for every i in [0, n) across `threads` threads (the calling
/// thread participates). Iterations are claimed dynamically off a shared
/// atomic counter in contiguous blocks of max(1, n / (64 · threads))
/// indices, so a short loop (the per-set VD fan-out, a what-if sweep)
/// still spreads one index per claim. The assignment of i to threads is
/// nondeterministic — callers must make fn(i) write only to slot i of
/// pre-sized output and reduce afterwards in index order when determinism
/// matters. With threads <= 1 (or n <= 1) the loop runs inline, in order,
/// with zero threading overhead.
void ParallelFor(int threads, size_t n, const std::function<void(size_t)>& fn);

/// Lowers *target to value when value is smaller (lock-free CAS loop).
/// This is how workers share the §5.4 global cost bound: the bound only
/// ever decreases, so relaxed ordering is sufficient — a stale read can
/// only delay a prune, never admit a wrong answer.
inline void AtomicMinDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace movd

#endif  // MOVD_UTIL_THREAD_POOL_H_
