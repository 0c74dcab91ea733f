#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ifgen {

namespace tt_internal {
// Function-local statics in inline functions are shared across TUs, so every
// table in the process feeds the same registry counters.
inline obs::Counter& TranspositionHitsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_tt_transposition_hits_total",
      "TranspositionTable visits that found the state already present");
  return *c;
}
}  // namespace tt_internal

/// \brief A sharded, striped-lock hash map keyed by pre-mixed 64-bit hashes
/// — the concurrency machinery shared by the transposition table and the
/// delta-cost caches (cost/delta.h).
///
/// Keys are assumed already well-mixed (difftree canonical/structural
/// hashes), so the shard index just takes the low bits; each shard has its
/// own mutex, keeping contention negligible for realistic thread counts.
/// Values are copied out on lookup and never mutated outside a shard lock,
/// so readers and writers on different keys never block each other beyond
/// their shard.
///
/// No eviction: searches are bounded (payload caps, deadlines), and the
/// per-entry values are small, so the maps live for one search / one
/// evaluator lifetime. Counters are the caller's job — semantics of what a
/// "hit" means differ per use (see TranspositionTable / DeltaCostCache).
template <typename Value>
class ShardedMap {
 public:
  /// `num_shards` is rounded up to a power of two (min 1).
  explicit ShardedMap(size_t num_shards = 16) {
    size_t n = 1;
    while (n < num_shards) n <<= 1;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
    shard_mask_ = n - 1;
  }

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  /// Copy of the value stored under `key`, if any.
  std::optional<Value> Lookup(uint64_t key) const {
    const Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    return it->second;
  }

  /// Inserts `value` if `key` is absent (first writer wins — concurrent
  /// computations of one key are interchangeable in every current use).
  /// Returns true when this call inserted.
  bool Insert(uint64_t key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.map.try_emplace(key, std::move(value)).second;
  }

  /// Runs `fn(value, inserted)` under the shard lock, default-constructing
  /// the value when absent; returns fn's result. `fn` must be cheap — it
  /// holds the shard lock.
  template <typename Fn>
  auto Mutate(uint64_t key, Fn&& fn) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(key);
    return fn(it->second, inserted);
  }

  /// Runs `fn(key, value)` for every entry, one shard lock at a time.
  /// Entries inserted into not-yet-visited shards during the walk may or may
  /// not be seen — callers use this for best-effort snapshots (TT export).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [key, value] : shard->map) fn(key, value);
    }
  }

  /// Total entries across shards (O(num_shards) locks).
  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->map.size();
    }
    return total;
  }

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Value> map;
  };

  Shard& ShardFor(uint64_t key) { return *shards_[key & shard_mask_]; }
  const Shard& ShardFor(uint64_t key) const { return *shards_[key & shard_mask_]; }

  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t shard_mask_ = 0;
};

/// \brief The set of canonical difftree hashes (`DiffTree::CanonicalHash()`)
/// a search has expanded, built on ShardedMap.
///
/// One table is shared by every tree of a root-parallel search, so a state
/// expanded by one tree is recognized as a transposition by all others. It
/// holds no costs: the StateEvaluator's memo is the only state→cost memo,
/// and the table's keys name which memo entries a search exports.
class TranspositionTable {
 public:
  /// `num_shards` is rounded up to a power of two (min 1).
  explicit TranspositionTable(size_t num_shards = 16) : map_(num_shards) {}

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// Marks `key` visited. Returns true when this call inserted it (first
  /// visit), false when it was already present (a transposition).
  bool Visit(uint64_t key) {
    const bool inserted = map_.Insert(key, true);
    if (!inserted) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      tt_internal::TranspositionHitsMetric().Inc();
    }
    return inserted;
  }

  /// Every visited key, ascending.
  std::vector<uint64_t> Keys() const {
    std::vector<uint64_t> keys;
    map_.ForEach([&keys](uint64_t key, bool) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Total entries across shards (O(num_shards)).
  size_t size() const { return map_.size(); }

  size_t num_shards() const { return map_.num_shards(); }

  /// Visit() calls that found the key already present.
  size_t transposition_hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  ShardedMap<bool> map_;
  std::atomic<size_t> hits_{0};
};

}  // namespace ifgen
