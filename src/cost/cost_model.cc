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

namespace {

/// Sticky widget state held flat, one value code per choice id, against
/// which PlanTransitions scores every parse trail in place. A code is the
/// ANY alternative, OPT present (1) or absent (0), or a MULTI's sub-trail
/// interned per plan; kUnset marks a widget no query has set yet. Equal
/// codes of one id mean equal ExtractSelections values: a MULTI's id fixes
/// its node, and the trail values of a fixed node's parses are equal iff
/// their derivations (so their Encode()s) are.
class StickyState {
 public:
  struct Selection {
    int id;
    int code;
  };

  explicit StickyState(const DiffTree& tree) : codes_(tree.ChoiceCount(), kUnset) {}

  /// Writes the selections of `trail` into `out` in trail order (the
  /// pre-order ExtractSelections fills its map in) and returns how many of
  /// them differ from the sticky state. A MULTI's step covers its copies'
  /// steps, as its selection covers their choices.
  size_t Score(const ParseTrail& trail, std::vector<Selection>* out) {
    out->clear();
    size_t changed = 0;
    for (size_t k = 0; k < trail.size();) {
      const ParseStep& s = trail[k];
      int code = s.value;
      if (s.end != 0) {
        code = Intern(trail, k);
        k = s.end;
      } else {
        ++k;
      }
      out->push_back({s.id, code});
      changed += codes_[static_cast<size_t>(s.id)] != code;
    }
    return changed;
  }

  /// Moves the state to `sels`. Unless `changed_ids` is null, appends the ids
  /// that change in the iteration order of a SelectionMap filled in `sels`
  /// order, as ExtractSelections fills it. PriceTransition sums in this
  /// order, so it is part of the bit-identity contract.
  void Advance(const std::vector<Selection>& sels, std::vector<int>* changed_ids) {
    if (changed_ids != nullptr) {
      changed_.clear();
      for (const Selection& s : sels) {
        if (codes_[static_cast<size_t>(s.id)] != s.code) changed_.push_back(s.id);
      }
      if (changed_.size() > 1) {
        // A SelectionMap but for its allocator, which takes the nodes from
        // arena_: its iteration order depends on the key sequence alone.
        std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size());
        std::pmr::unordered_map<int, std::string> order(&arena);
        for (const Selection& s : sels) order[s.id];
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

 private:
  static constexpr int kUnset = -1;

  /// The code of the MULTI at trail[k]: its count and every value of its
  /// sub-trail, in order.
  int Intern(const ParseTrail& trail, size_t k) {
    key_.clear();
    for (size_t i = k; i < trail[k].end; ++i) {
      const int32_t v = trail[i].value;
      key_.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
    auto it = multi_codes_.find(key_);
    if (it == multi_codes_.end()) {
      it = multi_codes_.emplace(key_, static_cast<int>(multi_codes_.size())).first;
    }
    return it->second;
  }

  std::vector<int> codes_;
  std::unordered_map<std::string, int> multi_codes_;
  std::string key_;          ///< Intern's key buffer, reused across MULTI selections
  std::vector<int> changed_;  ///< Advance's changed ids in selection order
  std::array<std::byte, 8192> arena_;  ///< backs Advance's ordering map
};

}  // namespace

TransitionPlan PlanTransitions(const DiffTree& tree, const std::vector<Ast>& queries,
                               size_t parse_limit) {
  TransitionPlan plan;
  StickyState state(tree);
  ParseTrail trail;  // the matcher's live trail, reused by every query
  std::vector<StickyState::Selection> trial;
  std::vector<StickyState::Selection> best;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    // Min-change parse under sticky semantics ("minimum set of widgets"):
    // the first parse with the fewest changes wins, and a parse changing
    // nothing ends the search.
    size_t best_changed = static_cast<size_t>(-1);
    const size_t parses = ForEachParse(
        tree, queries[qi], parse_limit, &trail, [&](const ParseTrail& t) {
          const size_t changed = state.Score(t, &trial);
          if (changed >= best_changed) return false;
          best_changed = changed;
          best.swap(trial);
          return best_changed == 0;
        });
    if (parses == 0) {
      plan.invalid_reason = "query " + std::to_string(qi) + " inexpressible";
      return plan;
    }
    // changed_ids[0] is the free initial configuration, left empty.
    plan.changed_ids.emplace_back();
    state.Advance(best, qi == 0 ? nullptr : &plan.changed_ids.back());
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
