#include "cost/transition.h"

#include "cost/cost_model.h"

namespace ifgen {

Result<StepOutcome> ComputeTransition(const DiffTree& tree, const ChoiceIndex& index,
                                      const WidgetTree& wt, const CostConstants& c,
                                      size_t parse_limit, const SelectionMap& state,
                                      const Ast& query) {
  std::vector<Derivation> derivs = EnumerateDerivations(tree, query, parse_limit);
  if (derivs.empty()) {
    return Status::NotFound("query is not expressible by this interface");
  }
  StepOutcome best;
  bool have_best = false;
  for (Derivation& d : derivs) {
    SelectionMap sels = ExtractSelections(index, d);
    SelectionMap trial = state;
    std::vector<int> changed_ids;
    size_t changed = CountChangedAndAdvance(sels, &trial, &changed_ids);
    if (!have_best || changed < best.widgets_changed) {
      best.widgets_changed = changed;
      best.changed_choice_ids = std::move(changed_ids);
      best.next_state = std::move(trial);
      best.derivation = std::move(d);
      have_best = true;
      if (best.widgets_changed == 0) break;
    }
  }
  // Price the change against the widget tree.
  FlatLayout flat;
  Flatten(wt.root, &flat);
  PriceTransition(&flat, best.changed_choice_ids, c, &best.interaction_cost,
                  &best.navigation_cost);
  return best;
}

}  // namespace ifgen
