#pragma once

/// \file
/// \brief Deadline-aware time management for the anytime search loop.
///
/// The paper's promise is interactive latency: a first usable interface in
/// milliseconds, refined while the user watches. That needs two things the
/// plain `time_budget_ms` loop does not give us: (a) a wall-clock deadline
/// that reserves headroom for the post-search widget-materialization phase,
/// and (b) early stopping when the search has plateaued or already reached
/// a good-enough cost. Chess-engine time managers solve the same problem —
/// convert a clock into per-phase budgets, re-checked cheaply inside the
/// hot loop — and this module follows that shape.
///
/// Three pieces:
///  - StopHandle: a relaxed-atomic should-stop flag, shared between the
///    search hot loop, the TimeManager, and the external cancel path
///    (GenerationService::CancelJob). First stop reason wins.
///  - TimeControlOptions: the value-only knobs (deadline, target cost,
///    plateau window). Part of SearchOptions and of the service cache key.
///  - TimeManager: the decision state machine. It never reads a clock —
///    callers inject elapsed milliseconds — so every policy is unit-testable
///    without wall-clock sleeps and deadline overshoot can be pinned in
///    iterations, not timing.

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <mutex>
#include <string_view>

namespace ifgen {

/// \brief Why a search loop stopped. Reported in SearchStats::stop_reason
/// and over the wire in SearchStatsDto.
enum class StopReason : uint8_t {
  kNone = 0,        ///< still running / never stopped by the control layer
  kIterations,      ///< SearchOptions::max_iterations reached
  kBudget,          ///< SearchOptions::time_budget_ms elapsed
  kDeadline,        ///< TimeControlOptions::deadline_ms search slice elapsed
  kTargetCost,      ///< best cost reached TimeControlOptions::target_cost
  kPlateau,         ///< no improvement for the plateau window
  kCancelled,       ///< external cancel (StopHandle::RequestStop)
  kExhausted,       ///< search space exhausted (dead root, empty frontier)
};

/// Stable lowercase name ("none", "deadline", ...); the wire encoding.
std::string_view StopReasonName(StopReason reason);

/// \brief Thread-safe stop flag unifying cancel and time-manager stops.
///
/// The hot loop polls stop_requested() once per iteration with a relaxed
/// load — cheap enough to never show up in a profile. The first
/// RequestStop() call latches its reason; later calls keep the flag set but
/// do not overwrite the reason.
class StopHandle {
 public:
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  void RequestStop(StopReason reason) {
    uint8_t expected = static_cast<uint8_t>(StopReason::kNone);
    reason_.compare_exchange_strong(expected, static_cast<uint8_t>(reason),
                                    std::memory_order_relaxed,
                                    std::memory_order_relaxed);
    stop_.store(true, std::memory_order_release);
  }

  /// The latched first reason; kNone while no stop was requested.
  StopReason reason() const {
    return static_cast<StopReason>(reason_.load(std::memory_order_acquire));
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint8_t> reason_{static_cast<uint8_t>(StopReason::kNone)};
};

/// \brief Value-only anytime/deadline knobs. Lives in SearchOptions, is
/// hashed into the service's options fingerprint, and crosses the API
/// boundary through ApiOptions (deadline_ms / target_cost /
/// plateau_fraction; the rest keep their defaults server-side).
struct TimeControlOptions {
  /// Wall-clock deadline for the whole generation call, in ms. 0 = off.
  /// The search slice is deadline_ms * (1 - final_phase_fraction); the
  /// remainder is headroom for the final widget-materialization phase so a
  /// valid interface exists AT the deadline, not some time after it.
  int64_t deadline_ms = 0;
  /// Stop as soon as the best cost drops to this value or below. <= 0 = off.
  double target_cost = 0.0;
  /// Plateau-based early stop: stop when the best cost has not improved for
  /// max(plateau_min_ms, plateau_fraction * elapsed_ms). 0 = off.
  double plateau_fraction = 0.0;
  /// Floor of the plateau window, so tiny elapsed times cannot trigger an
  /// instant stop.
  int64_t plateau_min_ms = 50;
  /// The hot loop consults the TimeManager every this many iterations; the
  /// StopHandle flag is still polled every iteration. Bounds the stop
  /// overshoot at check_interval + 1 iterations.
  uint32_t check_interval = 16;
  /// Fraction of deadline_ms reserved for the post-search phase.
  double final_phase_fraction = 0.15;

  /// True when any policy is enabled and a TimeManager should be attached.
  bool active() const {
    return deadline_ms > 0 || target_cost > 0.0 || plateau_fraction > 0.0;
  }
  /// The search-phase slice of deadline_ms (>= 1 ms when a deadline is
  /// set), or 0 when no deadline is set.
  int64_t SearchSliceMs() const;
};

/// The effective time budget of the search loop: the tighter of the plain
/// time_budget_ms and the deadline's search slice (either may be 0 =
/// unlimited). With time control off this returns time_budget_ms unchanged,
/// which is what keeps the no-deadline path bit-identical to the pre-anytime
/// behavior.
int64_t EffectiveSearchBudgetMs(int64_t time_budget_ms,
                                const TimeControlOptions& tc);

/// \brief The stop-policy state machine shared by all trees of one search.
///
/// Root-parallel searches call Update() from several threads against one
/// instance, so the state is guarded by a mutex; the per-iteration fast
/// path in the hot loop is the StopHandle's relaxed atomic, and Update()
/// only runs every check_interval iterations.
class TimeManager {
 public:
  /// \param opts the policy knobs (a copy is kept).
  /// \param hard_iteration_cap SearchOptions::max_iterations (0 = none);
  ///        latched as kIterations so the reason survives even when the
  ///        loop's own cap check fires first.
  /// \param stop optional handle to latch stop decisions into (may be null,
  ///        e.g. in unit tests that only probe the state machine).
  TimeManager(const TimeControlOptions& opts, size_t hard_iteration_cap,
              StopHandle* stop);

  /// Feeds the state machine: `new_iterations` iterations ran since this
  /// caller's previous Update, the search is `elapsed_ms` in, and the best
  /// cost so far is `best_cost`. Returns the (possibly just latched) stop
  /// reason; kNone means keep searching. Thread-safe.
  StopReason Update(size_t new_iterations, int64_t elapsed_ms, double best_cost);

  /// The latched reason (kNone while running). Thread-safe.
  StopReason reason() const;

  const TimeControlOptions& options() const { return opts_; }

 private:
  const TimeControlOptions opts_;
  const size_t hard_cap_;
  StopHandle* const stop_;

  mutable std::mutex mu_;
  size_t iterations_total_ = 0;     ///< sum of all Update deltas
  double best_cost_;                ///< lowest cost seen (starts +inf)
  int64_t last_improvement_ms_ = 0; ///< elapsed_ms of the last improvement
  StopReason reason_ = StopReason::kNone;
};

/// Resolves the final SearchStats::stop_reason after a search loop exits:
/// a latched StopHandle reason wins; otherwise an expired deadline maps to
/// kDeadline or kBudget depending on which bound was the binding one;
/// otherwise the iteration cap; otherwise the loop ran out of work
/// (kExhausted). Also bumps the per-reason observability counter.
StopReason ResolveStopReason(const StopHandle* stop, bool deadline_expired,
                             int64_t time_budget_ms,
                             const TimeControlOptions& tc, size_t iterations,
                             size_t max_iterations);

}  // namespace ifgen
