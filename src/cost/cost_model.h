#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "difftree/difftree.h"
#include "difftree/match.h"
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

/// \brief The min-change transition planner: sticky widget state held flat,
/// one value code per choice id, against which each parse trail of the next
/// query is scored in place. The search plans a log with it
/// (PlanTransitions), a session steps its widgets with it, and the
/// co-occurrence model reads its selection codes.
///
/// A code is the ANY alternative, OPT present (1) or absent (0), or a
/// MULTI's value sequence (its count, then every value of its copies in
/// pre-order) interned to a code below kUnset; kUnset marks a widget no
/// query has set yet. A MULTI's id fixes its node, so two of its value
/// sequences are equal iff their derivations (so their Encode()s) are.
/// Choice nodes inside a MULTI's copies have no selection of their own:
/// the MULTI's covers them.
class StickyState {
 public:
  struct Selection {
    int id;
    int code;
  };

  explicit StickyState(const DiffTree& tree) : codes_(tree.ChoiceCount(), kUnset) {}

  /// Moves the state to the min-change parse of `query` under sticky
  /// semantics: of the first `parse_limit` parses, the first with the fewest
  /// changed selections; a parse changing nothing ends the search. Unless
  /// null, `changed_ids` receives the ids that change and `chosen_trail` the
  /// chosen parse. Returns false, leaving everything as it was, when `tree`
  /// cannot express `query`.
  ///
  /// `changed_ids` order (PriceTransition sums interaction costs in it, so
  /// it is part of the bit-identity contract): the iteration order of a
  /// std::unordered_map<int, std::string> into which the parse's selection
  /// ids were inserted in trail order, restricted to the changed ones.
  bool Step(const DiffTree& tree, const Ast& query, size_t parse_limit,
            std::vector<int>* changed_ids, ParseTrail* chosen_trail = nullptr);

  /// Writes the selections of `trail` into `out` in trail order and returns
  /// how many of them differ from the sticky state. A MULTI's step covers
  /// its copies' steps, as its selection covers their choices.
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

  /// Sets the sticky code of an ANY (its alternative) or an OPT (1 present,
  /// 0 absent) directly, as a widget event does.
  void SetCode(int id, int code) { codes_[static_cast<size_t>(id)] = code; }
  /// Sets the sticky code of the MULTI at `id` to that of `multi`, its
  /// derivation.
  void SetMultiCode(int id, const Derivation& multi);

  /// Interned MULTI value sequences held. Once they outnumber twice the
  /// choice ids (plus a margin), the next Step or SetMultiCode drops those
  /// no id holds any more, so a long session keeps a bounded table.
  size_t interned() const { return multi_codes_.size(); }

 private:
  static constexpr int kUnset = -1;

  /// Moves the state to `sels`. Unless `changed_ids` is null, replaces it
  /// with the ids that change, in Step's order.
  void Advance(const std::vector<Selection>& sels, std::vector<int>* changed_ids);
  /// The code of the MULTI at trail[k]: its count and every value of its
  /// sub-trail, in order.
  int Intern(const ParseTrail& trail, size_t k);
  /// The code of the value sequence in key_.
  int InternKey();
  /// True once the interned sequences outnumber twice the ids (plus 64).
  bool Oversized() const { return multi_codes_.size() > 2 * codes_.size() + 64; }
  /// Drops the interned sequences no id holds, renumbering the rest.
  void Compact();

  std::vector<int> codes_;
  std::unordered_map<std::string, int> multi_codes_;
  std::string key_;              ///< Intern's key buffer, reused across MULTI selections
  ParseTrail trail_;             ///< the matcher's live trail, reused by every Step
  std::vector<Selection> trial_;  ///< the parse being scored
  std::vector<Selection> best_;   ///< the best parse so far
  std::vector<int> changed_;     ///< Advance's changed ids in selection order
  std::array<std::byte, 8192> arena_;  ///< backs Advance's ordering map
};

/// Computes the plan (min-change parse per query under sticky semantics):
/// one StickyState stepped through the log.
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

  /// Scores a filled flat layout in place — the only U arithmetic; M(.) is
  /// also priced from an assignment's picks (WidgetAssigner::LayoutM), in
  /// the same order. Writes into `out`, reusing its storage, so scoring many assignments of one
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
