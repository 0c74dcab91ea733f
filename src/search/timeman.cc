#include "search/timeman.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ifgen {

namespace {

obs::CounterFamily& StopReasonMetricFamily() {
  static obs::CounterFamily* f = obs::MetricsRegistry::Default().GetCounterFamily(
      "ifgen_search_stops_total",
      "Search-loop terminations by stop reason (none, iterations, budget, "
      "deadline, target_cost, plateau, cancelled, exhausted)");
  return *f;
}

}  // namespace

std::string_view StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kIterations: return "iterations";
    case StopReason::kBudget: return "budget";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kTargetCost: return "target_cost";
    case StopReason::kPlateau: return "plateau";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kExhausted: return "exhausted";
  }
  return "none";
}

/// Share of deadline_ms reserved for the post-search phase.
constexpr double kFinalPhaseFraction = 0.15;
/// Floor of the plateau window.
constexpr int64_t kPlateauMinMs = 50;

int64_t TimeControlOptions::SearchSliceMs() const {
  if (deadline_ms <= 0) return 0;
  const auto slice = static_cast<int64_t>(static_cast<double>(deadline_ms) *
                                          (1.0 - kFinalPhaseFraction));
  return std::max<int64_t>(1, slice);
}

int64_t EffectiveSearchBudgetMs(int64_t time_budget_ms,
                                const TimeControlOptions& tc) {
  const int64_t slice = tc.SearchSliceMs();
  if (slice <= 0) return time_budget_ms;
  if (time_budget_ms <= 0) return slice;
  return std::min(time_budget_ms, slice);
}

bool PlateauReached(double plateau_fraction, int64_t elapsed_ms,
                    int64_t last_improvement_ms) {
  if (plateau_fraction <= 0.0) return false;
  const auto window = std::max<int64_t>(
      kPlateauMinMs,
      static_cast<int64_t>(plateau_fraction * static_cast<double>(elapsed_ms)));
  return elapsed_ms - last_improvement_ms >= window;
}

StopReason ResolveStopReason(const StopHandle* stop, bool deadline_expired,
                             int64_t time_budget_ms,
                             const TimeControlOptions& tc, size_t iterations,
                             size_t max_iterations) {
  StopReason reason = StopReason::kNone;
  if (stop != nullptr && stop->reason() != StopReason::kNone) {
    reason = stop->reason();
  } else if (deadline_expired) {
    // The Deadline the loop ran against was min(time_budget, search slice);
    // attribute the stop to whichever bound was the binding one.
    const int64_t slice = tc.SearchSliceMs();
    const bool slice_bound =
        slice > 0 && (time_budget_ms <= 0 || slice <= time_budget_ms);
    reason = slice_bound ? StopReason::kDeadline : StopReason::kBudget;
  } else if (max_iterations > 0 && iterations >= max_iterations) {
    reason = StopReason::kIterations;
  } else {
    reason = StopReason::kExhausted;
  }
  StopReasonMetricFamily()
      .WithLabels({{"reason", std::string(StopReasonName(reason))}})
      ->Inc();
  return reason;
}

}  // namespace ifgen
