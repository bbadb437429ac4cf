#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace h2p {

/// Fixed-size worker pool for the online loop's async prefetch: each job
/// plans one upcoming window on one worker, and the serving thread collects
/// it as a future.  Plans themselves are single-threaded; the pool only
/// overlaps independent windows with the serving loop.
///
///  - Exception propagation: a job's exception lands in its future.
///  - No deadlock: only the workers run jobs, and a job must never wait on
///    another job's future.  Under that rule every queued job finishes on
///    some worker, so a thread outside the pool may block on any future.
///  - Shutdown: the destructor finishes everything already queued (futures
///    from `submit` never dangle), then joins the workers.
class ThreadPool {
 public:
  /// `num_threads` >= 1 workers.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one job and get a future for its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;  // queue became non-empty, or stopping
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace h2p
