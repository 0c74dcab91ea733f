#include "cost/cost_model.h"

#include "difftree/selection.h"
#include "interface/layout.h"
#include "widgets/appropriateness.h"

namespace ifgen {

namespace {

const WidgetDomain& DomainOf(const FlatWidget& w) {
  static const WidgetDomain kNone;
  return w.domain != nullptr ? *w.domain : kNone;
}

/// M(.) of the subtree at `i`: the widget's own term plus each child's
/// subtree sum, left to right.
double MSumRec(const CostConstants& c, const FlatLayout& layout, int i) {
  const FlatWidget& w = layout.widgets[static_cast<size_t>(i)];
  double sum = 0.0;
  if (IsLayoutWidget(w.kind)) {
    // A layout widget's M depends on its child count alone.
    WidgetDomain d;
    d.cardinality = static_cast<size_t>(w.num_children);
    sum = AppropriatenessCost(c, w.kind, d);
  } else {
    sum = AppropriatenessCost(c, w.kind, DomainOf(w));
  }
  for (int k = w.first_child; k >= 0;
       k = layout.widgets[static_cast<size_t>(k)].next_sibling) {
    sum += MSumRec(c, layout, k);
  }
  return sum;
}

/// Returns the number of terminals (widgets marked with `stamp`) in the
/// subtree at `i`, adding the cost of every edge inside the minimal
/// connecting subtree: edge (n -> child) is included iff the child subtree
/// holds some but not all of the `total` terminals.
size_t NavRec(const FlatLayout& layout, int i, uint64_t stamp, size_t total,
              const CostConstants& c, double* cost) {
  const FlatWidget& w = layout.widgets[static_cast<size_t>(i)];
  size_t here = w.mark == stamp ? 1 : 0;
  const bool tab_edge = w.kind == WidgetKind::kTabs || w.kind == WidgetKind::kTabLayout;
  for (int k = w.first_child; k >= 0;
       k = layout.widgets[static_cast<size_t>(k)].next_sibling) {
    size_t below = NavRec(layout, k, stamp, total, c, cost);
    if (below > 0 && below < total) *cost += tab_edge ? c.nav_tab_switch : c.nav_edge;
    here += below;
  }
  return here;
}

}  // namespace

void PriceTransition(FlatLayout* layout, const std::vector<int>& changed_ids,
                     const CostConstants& constants, double* interaction,
                     double* navigation) {
  const uint64_t stamp = ++layout->stamp;
  double cost = 0.0;
  size_t terminals = 0;
  for (int id : changed_ids) {
    const int i = layout->WidgetFor(id);
    if (i < 0) continue;  // owned by an adder
    FlatWidget& w = layout->widgets[static_cast<size_t>(i)];
    if (w.mark == stamp) continue;  // range slider pair
    w.mark = stamp;
    ++terminals;
    cost += InteractionCost(constants, w.kind, DomainOf(w));
  }
  *interaction = cost;
  double nav = 0.0;
  if (terminals > 1) NavRec(*layout, layout->root, stamp, terminals, constants, &nav);
  *navigation = nav;
}

TransitionPlan PlanTransitions(const DiffTree& tree, const std::vector<Ast>& queries,
                               size_t parse_limit) {
  TransitionPlan plan;
  ChoiceIndex index(tree);
  SelectionMap state;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<Derivation> derivs = EnumerateDerivations(tree, queries[qi], parse_limit);
    if (derivs.empty()) {
      plan.valid = false;
      plan.invalid_reason = "query " + std::to_string(qi) + " inexpressible";
      return plan;
    }
    // Min-change parse under sticky semantics ("minimum set of widgets").
    size_t best_changed = static_cast<size_t>(-1);
    SelectionMap best_next;
    std::vector<int> best_ids;
    for (const Derivation& d : derivs) {
      SelectionMap sels = ExtractSelections(index, d);
      SelectionMap trial = state;
      std::vector<int> ids;
      size_t changed = CountChangedAndAdvance(sels, &trial, &ids);
      if (changed < best_changed) {
        best_changed = changed;
        best_next = std::move(trial);
        best_ids = std::move(ids);
        if (best_changed == 0) break;
      }
    }
    plan.changed_ids.push_back(qi == 0 ? std::vector<int>{} : std::move(best_ids));
    state = std::move(best_next);
  }
  plan.valid = true;
  return plan;
}

void CostModel::ScoreLayout(const TransitionPlan& plan, FlatLayout* layout,
                            CostBreakdown* out) const {
  out->valid = false;
  out->invalid_reason.clear();
  out->m_total = 0.0;
  out->u_total = 0.0;
  out->per_transition.clear();
  out->layout_width = 0;
  out->layout_height = 0;
  if (!plan.valid) {
    out->invalid_reason = plan.invalid_reason;
    return;
  }
  const LayoutResult fit = ComputeLayout(layout, screen_);
  out->layout_width = fit.width;
  out->layout_height = fit.height;
  if (!fit.fits) {
    out->invalid_reason = "layout exceeds screen";
    return;
  }
  out->m_total = MSumRec(constants_, *layout, layout->root);
  for (size_t qi = 1; qi < plan.changed_ids.size(); ++qi) {
    double interaction = 0.0;
    double nav = 0.0;
    PriceTransition(layout, plan.changed_ids[qi], constants_, &interaction, &nav);
    out->per_transition.push_back(interaction + nav);
    out->u_total += interaction + nav;
  }
  out->valid = true;
}

CostBreakdown CostModel::EvaluateWithPlan(const TransitionPlan& plan,
                                          WidgetTree* wt) const {
  CostBreakdown out;
  if (!plan.valid) {
    out.invalid_reason = plan.invalid_reason;
    return out;
  }
  // Positions and sizes for renderers; the scorer composes the same boxes.
  FlatLayout flat;
  Flatten(wt->root, &flat);
  ComputeLayout(&wt->root, screen_);
  wt->RebuildIndex();
  ScoreLayout(plan, &flat, &out);
  return out;
}

CostBreakdown CostModel::Evaluate(const DiffTree& tree, WidgetTree* wt,
                                  const std::vector<Ast>& queries) const {
  TransitionPlan plan = PlanTransitions(tree, queries, parse_limit_);
  return EvaluateWithPlan(plan, wt);
}

}  // namespace ifgen
