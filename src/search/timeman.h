#pragma once

/// \file
/// \brief Stop vocabulary and pure stop rules of the anytime search loop.
///
/// The paper's promise is interactive latency: a first usable interface in
/// milliseconds, refined while the user watches. That needs two things the
/// plain `time_budget_ms` loop does not give us: (a) a wall-clock deadline
/// that reserves headroom for the post-search widget-materialization phase,
/// and (b) early stopping when the search has plateaued or already reached
/// a good-enough cost. SearchRun (search_common.h) applies every rule from
/// the state it already owns; this header holds what it applies:
///  - StopHandle: a relaxed-atomic should-stop flag, shared between the
///    search loop and the external cancel path
///    (GenerationService::CancelJob). First stop reason wins.
///  - TimeControlOptions: the value-only knobs (deadline, target cost,
///    plateau window). Part of SearchOptions and of the service cache key.
///  - The pure rules (search slice, effective budget, plateau window, stop
///    attribution). None of them reads a clock — callers pass elapsed
///    milliseconds — so every policy is unit-testable without sleeps.

#include <cstddef>
#include <cstdint>
#include <atomic>
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

/// \brief Thread-safe stop flag unifying cancel and time-control stops.
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
/// plateau_fraction). All three off (0) = the classic budget/cap loop.
struct TimeControlOptions {
  /// Wall-clock deadline for the whole generation call, in ms. 0 = off.
  /// The search stops at SearchSliceMs(); the remainder is headroom for the
  /// final widget-materialization phase so a valid interface exists AT the
  /// deadline, not some time after it.
  int64_t deadline_ms = 0;
  /// Stop in the iteration whose best cost drops to this value or below.
  /// <= 0 = off.
  double target_cost = 0.0;
  /// Plateau-based early stop: stop when the best cost has not improved for
  /// the window of PlateauReached. 0 = off.
  double plateau_fraction = 0.0;

  /// The search-phase slice of deadline_ms (85% of it, >= 1 ms when a
  /// deadline is set), or 0 when no deadline is set.
  int64_t SearchSliceMs() const;
};

/// The effective time budget of the search loop: the tighter of the plain
/// time_budget_ms and the deadline's search slice (either may be 0 =
/// unlimited). With time control off this returns time_budget_ms unchanged,
/// which is what keeps the no-deadline path bit-identical to the pre-anytime
/// behavior.
int64_t EffectiveSearchBudgetMs(int64_t time_budget_ms,
                                const TimeControlOptions& tc);

/// True when a search `elapsed_ms` in, whose best cost last improved at
/// `last_improvement_ms`, has stalled for the plateau window
/// max(50 ms, plateau_fraction * elapsed_ms). The 50 ms floor keeps a tiny
/// elapsed time from triggering an instant stop. Always false when
/// `plateau_fraction <= 0`.
bool PlateauReached(double plateau_fraction, int64_t elapsed_ms,
                    int64_t last_improvement_ms);

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
