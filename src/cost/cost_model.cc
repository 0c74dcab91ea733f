#include "cost/cost_model.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <memory_resource>
#include <string>
#include <unordered_map>

#include "difftree/match.h"
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

bool StickyState::Step(const DiffTree& tree, const Ast& query, size_t parse_limit,
                       std::vector<int>* changed_ids, ParseTrail* chosen_trail) {
  if (Oversized()) Compact();
  // Min-change parse under sticky semantics ("minimum set of widgets"):
  // the first parse with the fewest changes wins, and a parse changing
  // nothing ends the search.
  size_t best_changed = static_cast<size_t>(-1);
  const size_t parses =
      ForEachParse(tree, query, parse_limit, &trail_, [&](const ParseTrail& t) {
        const size_t changed = Score(t, &trial_);
        if (changed >= best_changed) return false;
        best_changed = changed;
        best_.swap(trial_);
        if (chosen_trail != nullptr) *chosen_trail = t;
        return best_changed == 0;
      });
  if (parses == 0) return false;
  Advance(best_, changed_ids);
  return true;
}

void StickyState::Advance(const std::vector<Selection>& sels,
                          std::vector<int>* changed_ids) {
  if (changed_ids != nullptr) {
    changed_.clear();
    for (const Selection& s : sels) {
      if (codes_[static_cast<size_t>(s.id)] != s.code) changed_.push_back(s.id);
    }
    if (changed_.size() > 1) {
      // The ordering map but for its allocator, which takes the nodes from
      // arena_: its iteration order depends on the key sequence alone.
      std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size());
      std::pmr::unordered_map<int, std::string> order(&arena);
      for (const Selection& s : sels) order[s.id];
      changed_ids->clear();
      for (const auto& entry : order) {
        if (std::find(changed_.begin(), changed_.end(), entry.first) != changed_.end()) {
          changed_ids->push_back(entry.first);
        }
      }
    } else {
      changed_ids->assign(changed_.begin(), changed_.end());
    }
  }
  for (const Selection& s : sels) codes_[static_cast<size_t>(s.id)] = s.code;
}

namespace {

void AppendValue(int32_t v, std::string* key) {
  key->append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Appends the values of `d`'s choice nodes in pre-order: the values its
/// parse trail holds.
void AppendValues(const Derivation& d, std::string* key) {
  if (d.node->IsChoice()) AppendValue(d.choice, key);
  for (const Derivation& c : d.children) AppendValues(c, key);
}

}  // namespace

void StickyState::SetMultiCode(int id, const Derivation& multi) {
  if (Oversized()) Compact();
  key_.clear();
  AppendValues(multi, &key_);
  codes_[static_cast<size_t>(id)] = InternKey();
}

int StickyState::Intern(const ParseTrail& trail, size_t k) {
  key_.clear();
  for (size_t i = k; i < trail[k].end; ++i) AppendValue(trail[i].value, &key_);
  return InternKey();
}

int StickyState::InternKey() {
  auto it = multi_codes_.find(key_);
  if (it == multi_codes_.end()) {
    const int code = kUnset - 1 - static_cast<int>(multi_codes_.size());
    it = multi_codes_.emplace(key_, code).first;
  }
  return it->second;
}

void StickyState::Compact() {
  std::vector<const std::string*> key_of(multi_codes_.size());
  for (const auto& [key, code] : multi_codes_) {
    key_of[static_cast<size_t>(kUnset - 1 - code)] = &key;
  }
  std::unordered_map<std::string, int> live;
  for (int& code : codes_) {
    if (code >= kUnset) continue;  // an ANY or OPT value, or unset
    const int next = kUnset - 1 - static_cast<int>(live.size());
    code = live.try_emplace(*key_of[static_cast<size_t>(kUnset - 1 - code)], next)
               .first->second;
  }
  multi_codes_.swap(live);
}

TransitionPlan PlanTransitions(const DiffTree& tree, const std::vector<Ast>& queries,
                               size_t parse_limit) {
  TransitionPlan plan;
  StickyState state(tree);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    // changed_ids[0] is the free initial configuration, left empty.
    std::vector<int>& ids = plan.changed_ids.emplace_back();
    if (!state.Step(tree, queries[qi], parse_limit, qi == 0 ? nullptr : &ids)) {
      plan.changed_ids.pop_back();
      plan.invalid_reason = "query " + std::to_string(qi) + " inexpressible";
      return plan;
    }
  }
  plan.valid = true;
  return plan;
}

namespace {

/// Adds the plan's per-transition U terms in log order to `*u`, each also
/// to `per_transition` unless it is null, and stops once m + *u reaches a
/// finite `bound`.
void SumTransitions(const CostConstants& c, const TransitionPlan& plan,
                    FlatLayout* layout, double m, double bound, double* u,
                    std::vector<double>* per_transition) {
  for (size_t qi = 1; qi < plan.changed_ids.size(); ++qi) {
    double interaction = 0.0;
    double nav = 0.0;
    PriceTransition(layout, plan.changed_ids[qi], c, &interaction, &nav);
    if (per_transition != nullptr) per_transition->push_back(interaction + nav);
    *u += interaction + nav;
    if (bound < std::numeric_limits<double>::infinity() && m + *u >= bound) return;
  }
}

}  // namespace

double CostModel::LayoutM(const FlatLayout& layout) const {
  return MSumRec(constants_, layout, layout.root);
}

double CostModel::BoundedTotal(const TransitionPlan& plan, FlatLayout* layout, double m,
                               double bound) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!plan.valid || !ComputeLayout(layout, screen_).fits) return kInf;
  double u = 0.0;
  SumTransitions(constants_, plan, layout, m, bound, &u, nullptr);
  return m + u;
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
  out->m_total = LayoutM(*layout);
  SumTransitions(constants_, plan, layout, out->m_total,
                 std::numeric_limits<double>::infinity(), &out->u_total,
                 &out->per_transition);
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
