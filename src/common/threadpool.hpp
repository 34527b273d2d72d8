// A small fixed-size thread pool with a blocking task queue, plus a
// parallel_for helper with static chunking.
//
// Training clients within a federated round are independent, as are rows of a
// pairwise distance matrix — both are dispatched through parallel_for. The
// pool degrades gracefully to inline execution when constructed with zero
// workers or when running on a single hardware thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace haccs {

class ThreadPool {
 public:
  /// Creates `threads` worker threads. `threads == 0` means "inline mode":
  /// submitted tasks run on the calling thread.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 in inline mode).
  std::size_t size() const { return workers_.size(); }

  /// Submit a task; the returned future reports completion or exception.
  std::future<void> submit(std::function<void()> task);

  /// A process-wide default pool sized to hardware_concurrency() - 1, so a
  /// parallel_for's calling thread plus the workers fill every core.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs fn(i) for each i in [begin, end) with static chunking: up to
/// size() + 1 contiguous chunks, chunk 0 on the calling thread and the rest
/// on the pool's workers. Blocks until every index has completed. A nested
/// call from inside fn runs inline. Exceptions from any chunk are rethrown
/// (the first one in chunk order).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Convenience overload using the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace haccs
