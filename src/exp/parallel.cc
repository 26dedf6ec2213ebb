#include "exp/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace sgr {

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

void ThreadPool::WorkerLoop() {
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
  if (pool.size() <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  // An exception must not escape a worker (std::terminate); the lowest
  // throwing index wins, so which one the caller sees is deterministic.
  std::mutex error_mutex;
  std::size_t error_index = count;
  std::exception_ptr error;
  const std::size_t workers = std::min(pool.size(), count);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.Submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
      }
    });
  }
  pool.Wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace sgr
