// Thread pool and deterministic parallel iteration.
//
// All parallelism in OpCQA flows through ParallelFor/ParallelMap so that
// results are reproducible by construction: work items are identified by
// index, per-item results are stored at their index, and callers reduce in
// index order. Which thread executes which index is scheduling-dependent
// (a shared atomic cursor balances load), but because no item reads another
// item's output, the reduction sees identical inputs for every thread
// count — including 1.
//
// Worker threads come from a lazily-started process-global ThreadPool sized
// by DefaultThreads(). Requesting more parallelism than the pool has
// workers is valid (the pool bounds concurrency, not correctness), as is
// calling ParallelFor from inside a pool worker (the nested loop runs
// inline on that worker, avoiding pool starvation deadlocks).
//
// Bodies must not throw: like the rest of the codebase, failures are
// OPCQA_CHECK aborts, and an exception escaping a worker would terminate.

#ifndef OPCQA_UTIL_PARALLEL_H_
#define OPCQA_UTIL_PARALLEL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace opcqa {

/// Default worker count: the OPCQA_THREADS environment variable when set to
/// a positive integer, otherwise std::thread::hardware_concurrency()
/// (always ≥ 1).
size_t DefaultThreads();

/// A fixed-size pool of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-global pool (DefaultThreads() workers, started on first
  /// use and never torn down).
  static ThreadPool& Global();

  size_t size() const { return workers_.size(); }

  /// Enqueues a task for execution on some worker thread.
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this process's pool workers.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Tracks a set of in-flight tasks across threads: Add() before handing a
/// task to an executor, Done() when it completes, Wait() blocks until the
/// outstanding count returns to zero. Unlike ParallelFor (which owns its
/// work items for the duration of one call), a TaskGroup lets a long-lived
/// component — the serving front end draining its units, the repair cache
/// draining its background spills — wait for work that was submitted from
/// many call sites at many times. Done() is safe as a task's last touch of
/// its owner: a Wait() that returns may destroy the group at once.
class TaskGroup {
 public:
  /// Registers `n` not-yet-completed tasks.
  void Add(size_t n = 1);
  /// Marks one task complete; wakes waiters when the count hits zero.
  void Done();
  /// Blocks until every added task has called Done(). Safe to call from
  /// several threads; all of them wake on the zero crossing.
  void Wait();
  /// Wait() bounded by `timeout`: true once the count is zero, false when
  /// the timeout passes with tasks still outstanding.
  bool WaitFor(std::chrono::milliseconds timeout);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

/// Runs body(i) for every i in [0, n), using up to `threads` concurrent
/// executors (the calling thread participates; helpers come from the global
/// pool). threads == 0 means DefaultThreads(). Indices are claimed from a
/// shared cursor, so per-index work may run on any thread and in any order;
/// the call returns only after every index has completed. Runs inline (in
/// index order) when n ≤ 1, threads ≤ 1, or when already on a pool worker.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& body);

/// Maps fn over [0, n) with ParallelFor and returns the results in index
/// order — the deterministic reduction order for parallel aggregation.
/// T must be default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(size_t n, size_t threads, Fn&& fn) {
  std::vector<T> out(n);
  ParallelFor(n, threads, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace opcqa

#endif  // OPCQA_UTIL_PARALLEL_H_
