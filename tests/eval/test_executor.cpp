// run_sharded's contract: every index in [0, n) runs exactly once at any
// shard count, one shard runs inline on the caller, and a task's exception
// reaches the caller only after every worker has retired.
#include "eval/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sfrv::eval {
namespace {

TEST(Executor, RunsEveryIndexExactlyOnce) {
  for (const int shards : {1, 2, 8}) {
    for (const std::size_t n : {0u, 1u, 7u, 300u}) {
      std::vector<std::atomic<int>> runs(n);
      // at() throws on an index past n, which run_sharded rethrows.
      run_sharded(n, shards, [&](std::size_t i) { runs.at(i).fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "shards=" << shards << " n=" << n << " index=" << i;
      }
    }
  }
}

TEST(Executor, MoreShardsThanTasksRunsEachTaskOnce) {
  // Far more shards than tasks (sfrv-eval -j 100000 over a handful of
  // cells): at most one worker per task starts, and a single task runs
  // inline on the caller.
  for (const std::size_t n : {1u, 3u, 17u}) {
    const auto caller = std::this_thread::get_id();
    std::vector<std::atomic<int>> runs(n);
    std::atomic<bool> inline_run{false};
    run_sharded(n, 100000, [&](std::size_t i) {
      runs.at(i).fetch_add(1);
      if (std::this_thread::get_id() == caller) inline_run = true;
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " index=" << i;
    }
    EXPECT_EQ(inline_run.load(), n == 1) << "n=" << n;
  }
}

TEST(Executor, OneShardRunsInlineInIndexOrder) {
  // Shard counts below one clamp to one.
  for (const int shards : {1, 0}) {
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    run_sharded(5, shards, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(Executor, RethrowsTheTaskExceptionAfterWorkersRetire) {
  constexpr std::size_t kFailAt = 5;
  for (const int shards : {1, 2, 8}) {
    std::atomic<int> in_flight{0};
    try {
      run_sharded(40, shards, [&](std::size_t i) {
        in_flight.fetch_add(1);
        if (i == kFailAt) {
          in_flight.fetch_sub(1);
          throw std::runtime_error("cell " + std::to_string(i));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        in_flight.fetch_sub(1);
      });
      ADD_FAILURE() << "no exception at shards=" << shards;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 5") << "shards=" << shards;
    }
    EXPECT_EQ(in_flight.load(), 0) << "shards=" << shards;
  }
}

TEST(Executor, OneShardRunsNothingAfterTheFailingIndex) {
  std::vector<std::size_t> ran;
  EXPECT_THROW(run_sharded(10, 1,
                           [&](std::size_t i) {
                             ran.push_back(i);
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace sfrv::eval
