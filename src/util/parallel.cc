#include "util/parallel.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/logging.h"

namespace opcqa {

namespace {

thread_local bool t_on_pool_worker = false;

}  // namespace

size_t DefaultThreads() {
  if (const char* env = std::getenv("OPCQA_THREADS")) {
    char* end = nullptr;
    long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return static_cast<size_t>(value);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t threads) {
  OPCQA_CHECK_GT(threads, 0u);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Global() {
  // Intentionally leaked: workers must outlive every static destructor that
  // might still schedule work.
  static ThreadPool* pool = new ThreadPool(DefaultThreads());
  return *pool;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    OPCQA_CHECK(!stopping_) << "Submit on a stopping ThreadPool";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::OnWorkerThread() { return t_on_pool_worker; }

void TaskGroup::Add(size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  outstanding_ += n;
}

void TaskGroup::Done() {
  std::lock_guard<std::mutex> lock(mutex_);
  OPCQA_CHECK_GT(outstanding_, 0u) << "TaskGroup::Done without Add";
  // Notify under the lock: a Wait-then-destroy caller may tear the
  // condvar down the instant the predicate holds.
  if (--outstanding_ == 0) cv_.notify_all();
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

bool TaskGroup::WaitFor(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, timeout, [this] { return outstanding_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

// Shared state of one ParallelFor call. Helpers and the caller claim
// indices from `next`; the caller waits until every helper is Done(),
// which keeps the by-reference `body` capture valid for the helpers.
struct ForState {
  const std::function<void(size_t)>* body;
  size_t n;
  std::atomic<size_t> next{0};
  TaskGroup helpers;
};

void DrainLoop(ForState* state) {
  for (;;) {
    size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->n) return;
    (*state->body)(i);
  }
}

}  // namespace

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (threads == 0) threads = DefaultThreads();
  if (n == 1 || threads <= 1 || ThreadPool::OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  size_t helpers = std::min(threads, n) - 1;  // caller participates
  auto state = std::make_shared<ForState>();
  state->body = &body;
  state->n = n;
  state->helpers.Add(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([state] {
      DrainLoop(state.get());
      state->helpers.Done();
    });
  }
  DrainLoop(state.get());
  state->helpers.Wait();
}

}  // namespace opcqa
