#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ifgen {

/// \brief A FIFO thread pool: N workers take tasks from one shared queue in
/// submission order.
///
/// Submit appends to the back; idle workers wait on a condition variable
/// (no timed polling) and take from the front, so a task never waits behind
/// one submitted after it. The destructor lets the workers finish every
/// queued task, then joins them.
class ThreadPool {
 public:
  /// Spawns max(1, num_threads) workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Appends a task to the queue.
  void Submit(std::function<void()> fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  ///< guarded by mu_
  bool stopping_ = false;                    ///< guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace ifgen
