#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "difftree/difftree.h"
#include "interface/widget_tree.h"
#include "util/rng.h"
#include "util/status.h"
#include "widgets/constants.h"
#include "widgets/size_model.h"

namespace ifgen {

class DeltaCostCache;
struct ChoiceWidgetTerms;

/// \brief The kinds of decisions that turn a difftree into a widget tree.
enum class DecisionType : uint8_t {
  kChoiceWidget,      ///< which interaction widget expresses a choice node
  kContainerLayout,   ///< vertical/horizontal/tabs for a multi-widget group
  kBetweenComposite,  ///< range slider vs. two separate numeric widgets
};

/// \brief A read-only view of widget kinds, which live elsewhere.
struct WidgetKindView {
  const WidgetKind* data = nullptr;
  size_t count = 0;

  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  WidgetKind operator[](size_t i) const { return data[i]; }
  const WidgetKind* begin() const { return data; }
  const WidgetKind* end() const { return data + count; }
};

/// \brief One decision point with its valid options.
struct DecisionPoint {
  DecisionType type = DecisionType::kChoiceWidget;
  const DiffTree* node = nullptr;
  /// kChoiceWidget: the candidate widget kinds, viewing `terms->options`.
  /// kContainerLayout: candidate layouts, viewing a static list.
  /// kBetweenComposite: {0 = separate widgets, 1 = range slider} — encoded
  /// as a two-entry dummy kind list for uniform odometer handling.
  WidgetKindView options;
  /// kChoiceWidget only: the choice node's subtree-local terms (domain,
  /// each option's size template and M(.), greedy min-M pick), computed
  /// once at Collect time — possibly by the delta-cost cache — and shared,
  /// never copied, by every Fill and LayoutM of this assigner.
  std::shared_ptr<const ChoiceWidgetTerms> terms;
};

/// \brief A concrete pick per decision point.
struct Assignment {
  std::vector<int> picks;
};

/// \brief Maps a difftree to widget trees ("Creating Widget Trees", paper).
///
/// The mapping is factored into an explicit decision vector so that the
/// search can (a) sample k random widget trees per state during rollouts and
/// (b) exhaustively enumerate widget trees for the final state. Sampling
/// prices M(.) from the picks (LayoutM), fills a flat layout (Fill) only for
/// a draw it prices in full; Build materializes a WidgetTree.
class WidgetAssigner {
 public:
  /// `delta` (optional) memoizes per-choice-subtree widget terms across
  /// states (see cost/delta.h); null computes everything from scratch.
  WidgetAssigner(const DiffTree& tree, const CostConstants& constants,
                 DeltaCostCache* delta = nullptr);

  const std::vector<DecisionPoint>& decisions() const { return decisions_; }

  /// False when some choice node has no valid widget at all (e.g. an ANY of
  /// 40 structurally rich alternatives): every assignment is invalid.
  bool viable() const { return viable_; }

  /// Total number of assignments (product of option counts; saturating).
  double CombinationCount() const;

  Assignment FirstAssignment() const;
  /// Odometer increment; returns false after the last assignment wraps.
  bool NextAssignment(Assignment* a) const;
  Assignment RandomAssignment(Rng* rng) const;
  /// RandomAssignment into `a`'s storage (the same draws from `rng`).
  void DrawRandomAssignment(Rng* rng, Assignment* a) const;

  /// The greedy assignment: per choice widget the minimum-M(.) option, first
  /// option (vertical / separate widgets) everywhere else. This is both the
  /// Zhang'17 baseline's policy and the seed sample the evaluator mixes into
  /// each state's k random assignments.
  Assignment MinAppropriatenessAssignment() const;

  /// Fills `out` with the widget tree of an assignment as a flat layout,
  /// reusing its storage: template sizes, no layout positions, labels and
  /// domains viewing this assigner's storage (valid while it lives). Fails
  /// when the assignment is structurally invalid.
  Status Fill(const Assignment& a, FlatLayout* out) const;

  /// `CostModel::LayoutM` of the layout Fill would make, summed in the same
  /// order but without making it: +infinity exactly when Fill fails.
  double LayoutM(const Assignment& a) const;

  /// Materializes the widget tree for an assignment (sizes included; layout
  /// positions are the layout solver's job): Fill, then Materialize.
  Result<WidgetTree> Build(const Assignment& a) const;

 private:
  /// Per difftree node that holds a choice, in pre-order: what Fill needs,
  /// resolved once per state so a draw does no lookups. A choice-free
  /// subtree shows no widget, so one slot (no children) stands for it.
  struct NodeSlot {
    const DiffTree* node = nullptr;
    int end = 0;          ///< one past the subtree's last slot
    int choice_id = -1;   ///< pre-order choice id (ChoiceIndex numbering)
    int choice = -1;      ///< kChoiceWidget decision
    int container = -1;   ///< kContainerLayout decision
    int range = -1;       ///< ranges_ entry of a BETWEEN composite
    std::string_view context;  ///< clause label shown next to widgets
    /// OPT: the toggle's clause label, else its ellipsized domain label.
    std::string_view toggle_label;
  };
  /// A BETWEEN composite's range slider, resolved once per state.
  struct RangeSlider {
    int decision = -1;  ///< its kBetweenComposite decision
    int lo_id = -1;
    int hi_id = -1;
    std::string label;    ///< the rendered lhs expression
    WidgetDomain domain;  ///< lo's domain with the merged numeric extent
    WidgetTemplate tmpl;  ///< size includes the label allowance
    double m = 0.0;       ///< its M(.)
  };
  /// Where a slot walk puts what it emits: widgets into a FlatLayout (Fill)
  /// or their M(.) sums (LayoutM).
  class LayoutSink;
  class MSink;

  void Collect(const DiffTree& node, std::string_view inherited);
  Status CheckAssignment(const Assignment& a) const;
  /// The widget tree of a checked assignment `a`, emitted into `out`: the
  /// root's node in `root`.
  template <class Sink>
  void WalkRoot(const Assignment& a, Sink* out, typename Sink::Node* root) const;
  /// Emits the subtree at `slot` as at most one node appended to `list`.
  template <class Sink>
  void Walk(int slot, const Assignment& a, Sink* out, typename Sink::List* list) const;
  WidgetKind Pick(int decision, const Assignment& a) const;

  const CostConstants& constants_;
  DeltaCostCache* delta_ = nullptr;
  SizeModel size_model_;
  std::vector<DecisionPoint> decisions_;
  std::vector<NodeSlot> slots_;
  std::vector<RangeSlider> ranges_;
  int num_choices_ = 0;
  bool viable_ = true;
};

}  // namespace ifgen
