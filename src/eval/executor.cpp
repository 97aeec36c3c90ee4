#include "eval/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sfrv::eval {

void run_sharded(std::size_t n, int shards,
                 const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        // Abandon the unclaimed tasks: every later claim lands past the end.
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };

  const int w = std::max(1, shards);
  if (w == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(w));
    for (int t = 0; t < w; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sfrv::eval
