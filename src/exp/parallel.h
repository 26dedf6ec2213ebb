#ifndef SGR_EXP_PARALLEL_H_
#define SGR_EXP_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sgr {

namespace obs {
class MetricsSink;
}  // namespace obs

/// Number of worker threads to use for `requested`: 0 means "all hardware
/// threads" (never less than 1).
std::size_t ResolveThreadCount(std::size_t requested);

/// Largest worker count a flag or environment variable may request.
inline constexpr std::size_t kMaxThreads = 1024;

/// Utility for callers that need decorrelated per-task seed streams:
/// mixes `base_seed` and `index` through one SplitMix64 round, so
/// adjacent indices map to statistically independent generator states.
/// Note the trial runner (RunExperiments) deliberately does NOT use it —
/// it seeds trial i with `seed_base + i` to stay byte-compatible with
/// sequential RunExperiment calls (mt19937_64's constructor already
/// scrambles consecutive seeds adequately).
std::uint64_t DeriveSeed(std::uint64_t base_seed, std::uint64_t index);

/// Fixed-size pool of worker threads with a shared FIFO task queue.
///
/// The restoration experiments are embarrassingly parallel: every Monte
/// Carlo trial reads the same immutable CsrGraph snapshot and writes only
/// its own result slot. The pool exists so the scenario engine's trial
/// scheduler (behind `--threads N`) can keep all cores
/// busy without spawning a thread per trial. A task runs with the metrics
/// sink (obs/metrics.h) that was open on the thread that submitted it.
class ThreadPool {
 public:
  /// Starts `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, inside a `wait`
  /// span (category `pool`), so a trace attributes the blocked time to
  /// waiting rather than to the caller's enclosing span. A running task
  /// may Submit() more work (a nested PoolFor's helpers): the submitter is
  /// still in flight, so Wait() waits for that work too. Only tasks may
  /// submit concurrently with Wait(); other threads must not. Never call
  /// Wait() from one of the pool's own workers: it would wait for itself.
  void Wait();

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// The pool whose worker is running the calling thread, or nullptr on
  /// any other thread.
  static ThreadPool* Current();

 private:
  struct Task {
    std::function<void()> fn;
    obs::MetricsSink* sink;  ///< the submitter's open sink, or nullptr
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs `fn(i)` for every i in [0, count) on up to `threads` workers
/// (0 = hardware concurrency). Iterations are claimed dynamically, so
/// uneven per-trial costs still balance; `fn` must be safe to call
/// concurrently from different threads. When `threads` resolves to 1 (or
/// count <= 1) the loop runs inline with no thread or pool overhead. An
/// exception reaches the calling thread either way: the one of the lowest
/// throwing index, rethrown once the pooled iterations have all run.
void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

/// ParallelFor over an existing pool: runs `fn(i)` for every i in
/// [0, count), claiming indices in ascending order, and blocks until all
/// iterations finish. For callers that run several loops on one pool (the
/// scenario engine's set-up and trial phases, the edge-list ingester's
/// scatter and sort) and must not pay a pool construction per loop.
/// Exceptions behave as in ParallelFor.
///
/// From a thread outside the pool, the pool's workers run every
/// iteration and the caller waits (ThreadPool::Wait); it must not
/// Submit() other work concurrently. From one of the pool's own workers
/// (a nested loop, such as an evaluation inside a scenario trial), the
/// caller runs the claim loop itself and submits up to size() - 1 helper
/// tasks that join the loop when a worker comes free. It then waits only
/// for the iterations that helpers have claimed, never for a helper that
/// has not started. So no more than size() threads ever run work, and an
/// idle worker helps a busy one. A helper that starts after the loop is
/// done returns at once, without running `fn` or touching the caller's
/// metrics sink.
void PoolFor(ThreadPool& pool, std::size_t count,
             const std::function<void(std::size_t)>& fn);

}  // namespace sgr

#endif  // SGR_EXP_PARALLEL_H_
