#pragma once

#include <limits>
#include <string>
#include <vector>

#include "difftree/difftree.h"
#include "interface/widget_tree.h"
#include "sql/ast.h"
#include "util/status.h"
#include "widgets/constants.h"

namespace ifgen {

/// \brief Decomposed interface cost C(W,Q) = sum U(qi, qi+1, W) + sum M(w)
/// (paper, "Cost Function").
struct CostBreakdown {
  bool valid = false;
  std::string invalid_reason;
  double m_total = 0.0;  ///< widget appropriateness sum
  double u_total = 0.0;  ///< transition effort sum over consecutive queries
  /// Per-transition U terms (size = max(0, |Q| - 1)).
  std::vector<double> per_transition;
  int layout_width = 0;
  int layout_height = 0;

  double total() const {
    return valid ? m_total + u_total : std::numeric_limits<double>::infinity();
  }
};

/// \brief The assignment-independent half of U(.): which choice-node widgets
/// must change at each step of the log. Computing it requires derivation
/// enumeration (expensive) but no widget tree, so evaluators compute it once
/// per difftree state and re-use it across all sampled widget assignments.
struct TransitionPlan {
  bool valid = false;
  std::string invalid_reason;
  /// changed_ids[i] = choice ids whose selection changes to reach query i
  /// (changed_ids[0] is the free initial configuration, left empty).
  std::vector<std::vector<int>> changed_ids;
};

/// Derivations per query enumerated by the min-change U computation.
inline constexpr size_t kParseLimit = 8;

/// Computes the plan (min-change parse per query under sticky semantics).
TransitionPlan PlanTransitions(const DiffTree& tree, const std::vector<Ast>& queries,
                               size_t parse_limit);

/// \brief Evaluates widget trees against a query log.
///
/// U(qi, qi+1) is computed with sticky widget semantics: each widget keeps
/// its last value, and a transition pays (a) the interaction cost of every
/// widget whose value must change and (b) a navigation cost over the minimum
/// spanning (Steiner) subtree of the widget tree connecting those widgets —
/// entering a tab panel costs more than crossing a plain layout edge.
///
/// "Minimum set of widgets that need to be changed" is approximated by
/// enumerating up to `parse_limit` derivations per query and greedily
/// picking the derivation that changes fewest widgets given the current
/// state.
class CostModel {
 public:
  CostModel(const CostConstants& constants, Screen screen,
            size_t parse_limit = kParseLimit)
      : constants_(constants), screen_(screen), parse_limit_(parse_limit) {}

  /// Lays out `wt` (mutating positions/sizes), then scores it. An
  /// out-of-screen layout or an inexpressible query yields valid == false.
  CostBreakdown Evaluate(const DiffTree& tree, WidgetTree* wt,
                         const std::vector<Ast>& queries) const;

  /// Same, re-using a precomputed transition plan: lays out `wt`, then
  /// scores it by flattening it through ScoreLayout.
  CostBreakdown EvaluateWithPlan(const TransitionPlan& plan, WidgetTree* wt) const;

  /// Scores a filled flat layout in place — the only M/U arithmetic. Writes
  /// into `out`, reusing its storage, so scoring many assignments of one
  /// state allocates nothing. Summation order (bit-identity contract):
  ///  - M: each widget's M(.) plus its children's subtree sums, left to
  ///    right (widget-tree pre-order, nested association);
  ///  - per transition: interaction costs in `changed_ids` order, a range
  ///    slider counted once, then plus the navigation cost (PriceTransition);
  ///  - U: the per-transition terms in log order.
  void ScoreLayout(const TransitionPlan& plan, FlatLayout* layout,
                   CostBreakdown* out) const;

  /// The M(.) sum ScoreLayout computes for a filled layout; it reads no
  /// layout position, so it is known before ComputeLayout.
  double LayoutM(const FlatLayout& layout) const;

  /// ScoreLayout's total() for a filled layout whose LayoutM is `m`, except
  /// that pricing stops as soon as M+U reaches `bound` and returns that
  /// partial sum. Sums in ScoreLayout's order, so a draw that is priced in
  /// full gets the same bits; a stopped one is >= `bound` and, when every U
  /// term is >= 0, no larger than the full total.
  double BoundedTotal(const TransitionPlan& plan, FlatLayout* layout, double m,
                      double bound) const;

  const Screen& screen() const { return screen_; }
  const CostConstants& constants() const { return constants_; }

 private:
  const CostConstants& constants_;
  Screen screen_;
  size_t parse_limit_;
};

/// \brief The two U(.) terms of one transition on a flat layout: the
/// interaction cost of every widget controlling a changed choice id (in
/// `changed_ids` order; a range slider covering two ids counts once; ids
/// without a widget are skipped) and the navigation cost of reaching them —
/// the edge costs of the minimal subtree connecting them, added in the
/// widgets' child post-order (entering a tab panel costs more than a plain
/// layout edge).
void PriceTransition(FlatLayout* layout, const std::vector<int>& changed_ids,
                     const CostConstants& constants, double* interaction,
                     double* navigation);

}  // namespace ifgen
