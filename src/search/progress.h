#pragma once

/// \file
/// \brief Thread-safe publisher of best-so-far search improvements.
///
/// Every time a searcher's best tracker accepts a new lowest-cost DiffTree,
/// it publishes a versioned Event here; consumers (GenerationService job
/// records and, through them, the HTTP long-poll/SSE endpoints) read the
/// latest event or block on a condvar for the next version. The sink keeps
/// only that latest event: the full best-so-far curve is
/// SearchStats::trace, one entry per publish.
///
/// Publishing consumes no RNG draws and never changes control flow in the
/// search, so attaching a sink cannot perturb results: a run with a sink is
/// bit-identical to a run without one.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "difftree/difftree.h"
#include "util/timer.h"

namespace ifgen {

/// \brief Versioned best-so-far value: the latest published event.
///
/// Versions start at 1 and increase by one per published improvement, so
/// `version() > last_seen` is the long-poll wakeup predicate. A job's sink
/// is closed on its terminal transition, which wakes every waiter too.
class ProgressSink {
 public:
  struct Event {
    uint64_t version = 0;   ///< 1-based publish sequence number
    double cost = 0.0;      ///< the new best cost
    size_t iteration = 0;   ///< search iteration that found it
    int64_t ms = 0;         ///< search-relative elapsed milliseconds
    std::shared_ptr<const DiffTree> tree;  ///< the new best state
  };

  ProgressSink() = default;
  ProgressSink(const ProgressSink&) = delete;
  ProgressSink& operator=(const ProgressSink&) = delete;

  /// Records a new best-so-far (copies the tree) and wakes all waiters.
  /// Publishing after Close() is ignored (late stragglers on shutdown).
  void Publish(const DiffTree& tree, double cost, size_t iteration, int64_t ms);

  /// Latest event, or a default Event (version 0, null tree) before the
  /// first publish.
  Event Latest() const;

  /// Blocks until version() > last_seen, the sink is closed, or wait_ms
  /// elapses (wait_ms == 0 returns immediately, wait_ms < 0 waits with no
  /// deadline). Returns version().
  uint64_t WaitVersionAbove(uint64_t last_seen, int64_t wait_ms) const;

  uint64_t version() const;

  /// Marks the stream complete (terminal job state) and wakes all waiters.
  /// Idempotent.
  void Close();
  bool closed() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  Event latest_;  ///< version 0 and a null tree before the first publish
  bool closed_ = false;
  Stopwatch birth_;  ///< time-to-first-result observability anchor
};

}  // namespace ifgen
