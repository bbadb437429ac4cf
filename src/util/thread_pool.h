#pragma once

#include <chrono>
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
///  - No deadlock: a thread waiting on a future runs queued jobs itself
///    (`wait_and_help`), so even a one-worker pool always makes progress.
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

  /// Pop one queued job and run it on the calling thread; false when the
  /// queue was empty.
  bool help_one();

  /// Block until `fut` is ready, running queued jobs on the calling thread
  /// while waiting, then return the future's value (rethrowing its
  /// exception, if any).
  template <typename R>
  R wait_and_help(std::future<R>& fut) {
    while (fut.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!help_one()) fut.wait_for(std::chrono::milliseconds(1));
    }
    return fut.get();
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
