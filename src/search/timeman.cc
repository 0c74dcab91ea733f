#include "search/timeman.h"

#include <algorithm>
#include <limits>

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

int64_t TimeControlOptions::SearchSliceMs() const {
  if (deadline_ms <= 0) return 0;
  const double fraction = std::min(std::max(final_phase_fraction, 0.0), 0.95);
  const auto slice =
      static_cast<int64_t>(static_cast<double>(deadline_ms) * (1.0 - fraction));
  return std::max<int64_t>(1, slice);
}

int64_t EffectiveSearchBudgetMs(int64_t time_budget_ms,
                                const TimeControlOptions& tc) {
  const int64_t slice = tc.SearchSliceMs();
  if (slice <= 0) return time_budget_ms;
  if (time_budget_ms <= 0) return slice;
  return std::min(time_budget_ms, slice);
}

TimeManager::TimeManager(const TimeControlOptions& opts,
                         size_t hard_iteration_cap, StopHandle* stop)
    : opts_(opts),
      hard_cap_(hard_iteration_cap),
      stop_(stop),
      best_cost_(std::numeric_limits<double>::infinity()) {}

StopReason TimeManager::Update(size_t new_iterations, int64_t elapsed_ms,
                               double best_cost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (reason_ != StopReason::kNone) return reason_;

  iterations_total_ += new_iterations;
  if (best_cost < best_cost_) {
    best_cost_ = best_cost;
    last_improvement_ms_ = elapsed_ms;
  }

  StopReason decision = StopReason::kNone;
  if (opts_.target_cost > 0.0 && best_cost_ <= opts_.target_cost) {
    decision = StopReason::kTargetCost;
  } else if (opts_.deadline_ms > 0 && elapsed_ms >= opts_.SearchSliceMs()) {
    decision = StopReason::kDeadline;
  } else if (hard_cap_ > 0 && iterations_total_ >= hard_cap_) {
    decision = StopReason::kIterations;
  } else if (opts_.plateau_fraction > 0.0) {
    const auto window = std::max<int64_t>(
        opts_.plateau_min_ms,
        static_cast<int64_t>(opts_.plateau_fraction *
                             static_cast<double>(elapsed_ms)));
    if (elapsed_ms - last_improvement_ms_ >= window) {
      decision = StopReason::kPlateau;
    }
  }

  if (decision != StopReason::kNone) {
    reason_ = decision;
    if (stop_ != nullptr) stop_->RequestStop(decision);
  }
  return reason_;
}

StopReason TimeManager::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
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
