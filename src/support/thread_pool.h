// A small work-stealing-free thread pool with a parallel_for helper.
//
// jpg-cpp uses task parallelism in three places: the PathFinder router's
// per-net path searches within an iteration, fan-out of independent module
// flows (each region variant is an independent P&R run), and the bench
// harness. The pool is sized to the hardware by default; on a single-core
// host parallel_for degrades to a plain loop with no thread overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace jpg {

class ThreadPool {
 public:
  /// `num_threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
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

  /// Shared process-wide pool (lazily constructed).
  static ThreadPool& global();

  /// Shared pool with exactly `n` workers, leased from a small LRU cache.
  /// `n == 0` returns global() (the lease is non-owning). Callers that take
  /// a thread-count knob (RouterOptions::num_threads) use this so repeated
  /// runs at the same width reuse the same workers instead of spawning a
  /// pool per call. The cache keeps at most kMaxSizedPools pools: when a
  /// new width would exceed the cap, the least-recently-leased *idle* pool
  /// (no outstanding lease) is destroyed — its workers join — so a
  /// long-running daemon that sizes pools per request cannot leak threads
  /// without bound. Hold the returned lease for as long as the pool is in
  /// use; a pool with a live lease is never evicted.
  [[nodiscard]] static std::shared_ptr<ThreadPool> sized(std::size_t n);

  /// Distinct sized pools cached at once (global() is separate).
  static constexpr std::size_t kMaxSizedPools = 4;

  /// Observability for the sized-pool cache (the leak-regression sweep test
  /// asserts total_workers stays bounded over any width sequence).
  struct SizedCacheStats {
    std::size_t pools = 0;          ///< cached pools right now
    std::size_t total_workers = 0;  ///< sum of their widths
    std::size_t leased = 0;         ///< pools with an outstanding lease
    std::size_t hits = 0;           ///< leases served from the cache
    std::size_t misses = 0;         ///< leases that constructed a pool
    std::size_t evictions = 0;      ///< idle pools destroyed at the cap
  };
  [[nodiscard]] static SizedCacheStats sized_cache_stats();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace jpg
