#include "exp/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace sgr {

namespace {

thread_local ThreadPool* current_pool = nullptr;

/// One PoolFor's iterations, claimed in ascending order. Helper tasks hold
/// it by shared_ptr: one that starts after the loop has returned finds no
/// index left and touches nothing else.
struct ClaimLoop {
  ClaimLoop(const std::function<void(std::size_t)>& loop_fn,
            std::size_t loop_count)
      : fn(&loop_fn),
        count(loop_count),
        sink(obs::CurrentMetricsSink()),
        error_index(loop_count) {}

  /// Claims and runs iterations until none is left. An exception must not
  /// escape a worker (std::terminate); the lowest throwing index wins, so
  /// which one the caller sees is deterministic.
  void Run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      std::exception_ptr thrown;
      {
        const obs::ScopedMetricsSink open(sink);
        try {
          (*fn)(i);
        } catch (...) {
          thrown = std::current_exception();
        }
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (thrown && i < error_index) {
        error_index = i;
        error = thrown;
      }
      thrown = nullptr;  // drop this thread's reference before unlocking
      if (++done == count) finished.notify_all();
    }
  }

  /// Blocks until every claimed iteration has finished and takes the
  /// error, if any. Called once the caller's own Run() found no index
  /// left, so every iteration is claimed by a thread that is running it.
  std::exception_ptr AwaitClaimed() {
    std::unique_lock<std::mutex> lock(mutex);
    if (done != count) {
      obs::Span wait_span("wait", "pool");
      finished.wait(lock, [this] { return done == count; });
    }
    return std::move(error);
  }

  const std::function<void(std::size_t)>* const fn;
  const std::size_t count;
  obs::MetricsSink* const sink;  ///< the caller's open sink, or nullptr
  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards done, error_index and error
  std::condition_variable finished;
  std::size_t done = 0;
  std::size_t error_index;
  std::exception_ptr error;
};

}  // namespace

std::size_t ResolveThreadCount(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::uint64_t DeriveSeed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64 (Steele, Lea & Flood): one round over base + index * phi.
  std::uint64_t z = base_seed + index * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = ResolveThreadCount(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(Task{std::move(task), obs::CurrentMetricsSink()});
    ++in_flight_;
    depth = queue_.size();
  }
  obs::MetricMax("pool.queue_peak", depth);
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  obs::Span wait_span("wait", "pool");
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

ThreadPool* ThreadPool::Current() { return current_pool; }

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      const obs::ScopedMetricsSink sink(task.sink);
      // Worker utilization: busy time needs a clock read on both sides of
      // the task, so it is gated rather than left to MetricAdd's own check.
      const bool metered = obs::MetricsEnabled();
      const std::uint64_t begin_us = metered ? obs::SteadyNowMicros() : 0;
      {
        obs::Span task_span("task", "pool");
        task.fn();
        task.fn = nullptr;  // what it captured is gone before Wait() returns
      }
      if (metered) {
        obs::MetricAdd("pool.tasks", 1);
        obs::MetricAdd("pool.busy_us", obs::SteadyNowMicros() - begin_us);
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min(ResolveThreadCount(threads), count == 0 ? std::size_t{1}
                                                       : count);
  if (count == 0) return;
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(workers);
  PoolFor(pool, count, fn);
}

void PoolFor(ThreadPool& pool, std::size_t count,
             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // A single iteration still goes to a worker, so a PoolFor nested in it
  // finds the pool instead of starting one of its own.
  if (pool.size() <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const auto loop = std::make_shared<ClaimLoop>(fn, count);
  const auto claim = [loop] { loop->Run(); };
  std::exception_ptr error;
  if (ThreadPool::Current() == &pool) {
    {
      // Helpers open the caller's sink only around the iterations they
      // claim, so one that starts after the loop (and maybe the caller's
      // sink) is gone records nothing into it.
      const obs::ScopedMetricsSink none(nullptr);
      const std::size_t helpers = std::min(pool.size() - 1, count - 1);
      for (std::size_t h = 0; h < helpers; ++h) pool.Submit(claim);
    }
    loop->Run();
    error = loop->AwaitClaimed();
  } else {
    const std::size_t workers = std::min(pool.size(), count);
    for (std::size_t w = 0; w < workers; ++w) pool.Submit(claim);
    pool.Wait();
    error = std::move(loop->error);
  }
  // The error has left `loop`, which a late helper may be the one to free.
  if (error) std::rethrow_exception(error);
}

}  // namespace sgr
