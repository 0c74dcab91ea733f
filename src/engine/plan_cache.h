#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ifgen {

/// \brief The execution backends' thread-safe plan cache, keyed by
/// canonical parameterized SQL text.
///
/// Unbounded on purpose: the key space is the set of query *shapes* an
/// interface can express (literals are parameterized away), which is fixed
/// and small once the interface is generated. Insertion is
/// first-writer-wins so concurrent compilations of the same shape converge
/// on one resident plan.
template <typename V>
class SqlKeyedCache {
 public:
  /// Returns the resident entry or nullptr; counts a hit or a miss.
  std::shared_ptr<V> Lookup(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Inserts `value` unless another thread got there first; returns the
  /// resident entry either way.
  std::shared_ptr<V> Insert(const std::string& key, std::shared_ptr<V> value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = map_.emplace(key, std::move(value));
    return it->second;
  }

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<V>> map_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace ifgen
