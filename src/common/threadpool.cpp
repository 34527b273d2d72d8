#include "src/common/threadpool.hpp"

#include <algorithm>
#include <exception>

#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace haccs {

namespace {
/// Set while the current thread runs a pool task or the caller's chunk of a
/// parallel_for; nested parallel_for calls then run inline instead of
/// re-entering the queue (blocking a worker on the queue it is supposed to
/// drain can deadlock the pool).
thread_local bool t_inside_parallel_region = false;

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge =
      obs::Registry::global().gauge("threadpool_queue_depth");
  return gauge;
}

obs::Counter& tasks_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("threadpool_tasks_total");
  return counter;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      // Register with the trace thread registry up front so trace lanes and
      // log lines carry stable worker names even for pre-enable threads.
      obs::set_thread_name("worker-" + std::to_string(i + 1));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  auto fut = wrapped.get_future();
  if (workers_.empty()) {
    wrapped();  // inline mode
    return fut;
  }
  tasks_counter().inc();
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(wrapped));
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return fut;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0u;
  }());
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    t_inside_parallel_region = true;
    task();  // exceptions are captured by the packaged_task's future
    t_inside_parallel_region = false;
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.size();
  if (workers == 0 || n == 1 || t_inside_parallel_region) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // One chunk per worker plus one for the calling thread, which runs chunk 0
  // itself while the workers take the rest.
  const std::size_t chunks = std::min(n, workers + 1);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  const auto run_chunk = [&fn, begin, end, chunk_size](std::size_t c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  };
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks && begin + c * chunk_size < end; ++c) {
    futures.push_back(pool.submit([&run_chunk, c] { run_chunk(c); }));
  }
  std::exception_ptr first_error;
  t_inside_parallel_region = true;  // it was false, or we would be inline
  try {
    run_chunk(0);
  } catch (...) {
    first_error = std::current_exception();
  }
  t_inside_parallel_region = false;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for(ThreadPool::global(), begin, end, fn);
}

}  // namespace haccs
