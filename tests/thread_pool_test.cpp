#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace h2p {
namespace {

TEST(ThreadPool, SubmitReturnsValueAndException) {
  ThreadPool pool(2);
  std::future<int> ok = pool.submit([] { return 41 + 1; });
  std::future<int> bad =
      pool.submit([]() -> int { throw std::logic_error("boom"); });
  EXPECT_EQ(ok.get(), 42);
  EXPECT_THROW(bad.get(), std::logic_error);
}

TEST(ThreadPool, ShutdownDrainsPendingWork) {
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return i;
      }));
    }
    // Destructor runs with most of the queue still pending.
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(futures[static_cast<std::size_t>(i)].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  }
}

TEST(ThreadPool, NestedFanOutDoesNotDeadlock) {
  // One worker, jobs that submit jobs and wait on them: only running queued
  // jobs while waiting (wait_and_help) can make progress here — a blocking
  // wait would deadlock.
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  std::vector<std::future<void>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back(pool.submit([&] {
      std::vector<std::future<void>> inner;
      for (int j = 0; j < 4; ++j) inner.push_back(pool.submit([&] { ++leaves; }));
      for (std::future<void>& f : inner) pool.wait_and_help(f);
    }));
  }
  for (std::future<void>& f : outer) pool.wait_and_help(f);
  EXPECT_EQ(leaves.load(), 16);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

}  // namespace
}  // namespace h2p
