#include "cost/delta.h"

#include <limits>

#include "obs/metrics.h"
#include "util/string_util.h"
#include "widgets/appropriateness.h"

namespace ifgen {

namespace {
obs::Counter& SubtreeHitsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_delta_subtree_hits_total", "DeltaCostCache choice-term cache hits");
  return *c;
}
obs::Counter& SubtreeRecomputesMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_delta_subtree_recomputes_total",
      "DeltaCostCache choice-term recomputations");
  return *c;
}
obs::Counter& PlanHitsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_delta_plan_hits_total", "DeltaCostCache transition-plan cache hits");
  return *c;
}
obs::Counter& PlanRecomputesMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_delta_plan_recomputes_total",
      "DeltaCostCache transition-plan recomputations");
  return *c;
}
}  // namespace

ChoiceWidgetTerms ComputeChoiceWidgetTerms(const DiffTree& choice_node,
                                           const CostConstants& constants,
                                           const SizeModel& size_model) {
  ChoiceWidgetTerms t;
  t.domain = ExtractDomain(choice_node);
  for (WidgetKind k : ValidWidgetKinds(t.domain)) {
    // The adder composes its size from its children (layout-style), so it
    // has no leaf template to check.
    WidgetTemplate tmpl;
    if (k != WidgetKind::kAdder) {
      Result<SizeClass> sc = size_model.PickTemplate(k, t.domain);
      if (!sc.ok()) continue;
      tmpl = {*sc, size_model.SizeOf(k, *sc, t.domain)};
    }
    t.options.push_back(k);
    t.option_terms.push_back({tmpl, AppropriatenessCost(constants, k, t.domain)});
  }
  // First minimum wins, matching the historical greedy-assignment loop.
  double best_m = std::numeric_limits<double>::infinity();
  for (size_t o = 0; o < t.options.size(); ++o) {
    if (t.option_terms[o].m < best_m) {
      best_m = t.option_terms[o].m;
      t.min_m_pick = static_cast<int>(o);
    }
  }
  if (choice_node.kind == DKind::kOpt) t.toggle_label = Ellipsize(t.domain.labels[0], 16);
  return t;
}

std::shared_ptr<const ChoiceWidgetTerms> DeltaCostCache::GetChoiceTerms(
    const DiffTree& choice_node, const CostConstants& constants,
    const SizeModel& size_model) {
  if (!enabled_) {
    subtree_recomputes_.fetch_add(1, std::memory_order_relaxed);
    SubtreeRecomputesMetric().Inc();
    return std::make_shared<const ChoiceWidgetTerms>(
        ComputeChoiceWidgetTerms(choice_node, constants, size_model));
  }
  // Order-sensitive hash: the cached labels are read by index against the
  // node's actual children at widget-build time (see delta.h).
  uint64_t key = choice_node.Hash();
  if (auto cached = terms_.Lookup(key)) {
    subtree_hits_.fetch_add(1, std::memory_order_relaxed);
    SubtreeHitsMetric().Inc();
    return *cached;
  }
  subtree_recomputes_.fetch_add(1, std::memory_order_relaxed);
  SubtreeRecomputesMetric().Inc();
  auto t = std::make_shared<const ChoiceWidgetTerms>(
      ComputeChoiceWidgetTerms(choice_node, constants, size_model));
  terms_.Insert(key, t);
  return t;
}

std::shared_ptr<const TransitionPlan> DeltaCostCache::LookupPlan(
    uint64_t tree_hash) const {
  if (enabled_) {
    if (auto cached = plans_.Lookup(tree_hash)) {
      plan_hits_.fetch_add(1, std::memory_order_relaxed);
      PlanHitsMetric().Inc();
      return *cached;
    }
  }
  plan_recomputes_.fetch_add(1, std::memory_order_relaxed);
  PlanRecomputesMetric().Inc();
  return nullptr;
}

void DeltaCostCache::StorePlan(uint64_t tree_hash,
                               std::shared_ptr<const TransitionPlan> plan) {
  if (!enabled_) return;
  plans_.Insert(tree_hash, std::move(plan));
}

}  // namespace ifgen
