// A small work-stealing-free thread pool with a parallel_for helper.
//
// jpg-cpp uses task parallelism in three places: the generate_batch fan-out
// of independent region updates, the ReconfigService swap executors and the
// AcceleratorScheduler node tasks. Each of those owns the pool it runs on
// (generate_batch takes one from its caller). A pool is sized to the
// hardware by default; on a single worker parallel_for degrades to a plain
// loop with no thread overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace jpg {

class ThreadPool {
 public:
  /// `width == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t width = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Observed execution shape of one parallel_for call. `workers_used` is
  /// the number of distinct threads (pool workers plus the caller) that
  /// claimed at least one iteration — the honest fan-out, as opposed to the
  /// pool's nominal size. It depends on scheduling, so it is telemetry,
  /// never an input to any deterministic computation.
  struct ParallelForStats {
    std::size_t workers_used = 0;
  };

  /// Runs `body(i)` for i in [0, n). Blocks until all iterations finish.
  /// Exceptions from `body` are rethrown (first one wins) on the caller.
  /// `stats`, when non-null, receives the observed execution shape.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    ParallelForStats* stats = nullptr);

  /// Enqueues one task for any worker; the future becomes ready when it
  /// finishes (an exception thrown by the task is delivered through the
  /// future). Unlike parallel_for the caller does not participate, which is
  /// what lets it overlap its own work with the task.
  ///
  /// Called from one of this pool's own workers the task runs *inline* on
  /// the caller (future already ready on return). Enqueueing would invite a
  /// deadlock: on a small pool every worker can end up blocked in
  /// future.get() on a task that no free worker exists to run — e.g. a
  /// service worker that submits to the pool it runs on and waits.
  /// Inline execution trades the overlap for progress; callers that need
  /// real overlap submit from a non-worker thread (or a different pool).
  [[nodiscard]] std::future<void> submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Shared process-wide pool (lazily constructed). Components that run
  /// their own work own a pool instead (ReconfigService,
  /// AcceleratorScheduler); this one serves callers with no owner of their
  /// own, such as the default of PartialBitstreamGenerator::generate_batch.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace jpg
