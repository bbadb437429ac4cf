#include <gtest/gtest.h>

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

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

}  // namespace
}  // namespace h2p
