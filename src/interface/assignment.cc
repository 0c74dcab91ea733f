#include "interface/assignment.h"

#include <algorithm>
#include <limits>

#include "cost/delta.h"
#include "util/string_util.h"
#include "widgets/appropriateness.h"

namespace ifgen {

namespace {

/// Clause context labels shown next to widgets.
std::string_view ContextFor(const DiffTree& node, std::string_view inherited) {
  if (node.kind != DKind::kAll) return inherited;
  switch (node.sym) {
    case Symbol::kProject:
      return "select";
    case Symbol::kTop:
      return "top";
    case Symbol::kFrom:
      return "from";
    case Symbol::kWhere:
      return "where";
    case Symbol::kGroupBy:
      return "group by";
    case Symbol::kOrderBy:
      return "order by";
    case Symbol::kLimit:
      return "limit";
    default:
      return inherited;
  }
}

/// The options of the decisions that are not a choice node's widget.
constexpr WidgetKind kBetweenOptions[] = {WidgetKind::kVertical, WidgetKind::kRangeSlider};
constexpr WidgetKind kGroupLayouts[] = {WidgetKind::kVertical, WidgetKind::kHorizontal,
                                        WidgetKind::kTabLayout};
constexpr WidgetKind kOptLayouts[] = {WidgetKind::kHorizontal, WidgetKind::kVertical};

template <size_t N>
WidgetKindView ViewOf(const WidgetKind (&kinds)[N]) {
  return {kinds, N};
}

}  // namespace

WidgetAssigner::WidgetAssigner(const DiffTree& tree, const CostConstants& constants,
                               DeltaCostCache* delta)
    : constants_(constants), delta_(delta), size_model_(constants_) {
  // Reserved up front, so a state costs a fixed number of allocations: a
  // choice widget per choice node, plus at most an OPT group, an ALL group
  // and a BETWEEN composite (which holds two ANYs) per choice node below them.
  const size_t choices = tree.ChoiceCount();
  slots_.reserve(tree.NodeCount());
  decisions_.reserve(4 * choices);
  ranges_.reserve(choices / 2);
  Collect(tree, "");
}

void WidgetAssigner::Collect(const DiffTree& node, std::string_view inherited) {
  // Decisions are numbered in difftree pre-order (each node's own decisions
  // before its children's): assignments, and the random draws that make
  // them, depend on this order.
  const size_t s = slots_.size();
  slots_.emplace_back();
  slots_[s].node = &node;
  slots_[s].context = ContextFor(node, inherited);
  if (node.IsChoice()) slots_[s].choice_id = num_choices_++;
  switch (node.kind) {
    case DKind::kAll: {
      BetweenPattern bp;
      if (MatchBetweenPattern(node, &bp)) {
        RangeSlider r;
        r.decision = static_cast<int>(decisions_.size());
        r.label = std::move(bp.label);
        slots_[s].range = static_cast<int>(ranges_.size());
        ranges_.push_back(std::move(r));
        decisions_.push_back(
            {DecisionType::kBetweenComposite, &node, ViewOf(kBetweenOptions), nullptr});
      }
      // A child produces widgets when its subtree holds a choice node.
      size_t widget_kids = 0;
      for (size_t i = 0; i < node.children.size(); ++i) {
        widget_kids += node.children.ChoiceCountOf(i) > 0 ? 1 : 0;
      }
      if (widget_kids >= 2) {
        slots_[s].container = static_cast<int>(decisions_.size());
        decisions_.push_back(
            {DecisionType::kContainerLayout, &node, ViewOf(kGroupLayouts), nullptr});
      }
      break;
    }
    case DKind::kAny:
    case DKind::kOpt:
    case DKind::kMulti: {
      // The subtree-local terms (domain, valid options, greedy min-M pick)
      // come from the delta-cost cache when one is attached: after a rule
      // application, only choice subtrees touched by the rewrite miss.
      DecisionPoint d;
      d.type = DecisionType::kChoiceWidget;
      d.node = &node;
      d.terms = delta_ != nullptr
                    ? delta_->GetChoiceTerms(node, constants_, size_model_)
                    : std::make_shared<const ChoiceWidgetTerms>(
                          ComputeChoiceWidgetTerms(node, constants_, size_model_));
      d.options = {d.terms->options.data(), d.terms->options.size()};
      if (d.options.empty()) viable_ = false;
      if (node.kind == DKind::kOpt) {
        // Prefer the child's clause name ("where", "top") as the toggle label.
        const std::string_view ctx = slots_[s].context;
        const std::string_view child_ctx = ContextFor(node.children[0], ctx);
        slots_[s].toggle_label = !child_ctx.empty() ? child_ctx : ctx;
        if (slots_[s].toggle_label.empty()) slots_[s].toggle_label = d.terms->toggle_label;
      }
      slots_[s].choice = static_cast<int>(decisions_.size());
      decisions_.push_back(std::move(d));
      if (node.kind == DKind::kOpt && node.children.ChoiceCountOf(0) > 0) {
        slots_[s].container = static_cast<int>(decisions_.size());
        decisions_.push_back(
            {DecisionType::kContainerLayout, &node, ViewOf(kOptLayouts), nullptr});
      }
      break;
    }
  }
  const std::string_view ctx = slots_[s].context;
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (node.children.ChoiceCountOf(i) > 0) {
      Collect(node.children[i], ctx);
      continue;
    }
    // A choice-free child yields no decision and no widget (nor a BETWEEN
    // composite, whose endpoints are ANYs): one slot, not descended, keeps
    // its place among its siblings (an ANY's tab panels count them).
    NodeSlot& leaf = slots_.emplace_back();
    leaf.node = &node.children[i];
    leaf.end = static_cast<int>(slots_.size());
  }
  slots_[s].end = static_cast<int>(slots_.size());

  if (slots_[s].range >= 0) {
    // The endpoints are children 1 and 2, both numeric choice nodes whose
    // terms are collected by now.
    const NodeSlot& lo = slots_[static_cast<size_t>(slots_[s + 1].end)];
    const NodeSlot& hi = slots_[static_cast<size_t>(lo.end)];
    const WidgetDomain& lo_d = decisions_[static_cast<size_t>(lo.choice)].terms->domain;
    const WidgetDomain& hi_d = decisions_[static_cast<size_t>(hi.choice)].terms->domain;
    RangeSlider& r = ranges_[static_cast<size_t>(slots_[s].range)];
    r.lo_id = lo.choice_id;
    r.hi_id = hi.choice_id;
    r.domain = lo_d;
    r.domain.num_hi = std::max(lo_d.num_hi, hi_d.num_hi);
    r.domain.num_lo = std::min(lo_d.num_lo, hi_d.num_lo);
    // A range slider always gets a size class: the large template caps it.
    const SizeClass sc =
        size_model_.PickTemplate(WidgetKind::kRangeSlider, r.domain).ValueOrDie();
    WidgetSize sz = size_model_.SizeOf(WidgetKind::kRangeSlider, sc, r.domain);
    sz.width += static_cast<int>(std::min<size_t>(r.label.size(), 10));
    r.tmpl = {sc, sz};
    r.m = AppropriatenessCost(constants_, WidgetKind::kRangeSlider, r.domain);
  }
}

double WidgetAssigner::CombinationCount() const {
  double total = 1.0;
  for (const DecisionPoint& d : decisions_) {
    total = std::min(1e18, total * std::max<size_t>(1, d.options.size()));
  }
  return total;
}

Assignment WidgetAssigner::FirstAssignment() const {
  Assignment a;
  a.picks.assign(decisions_.size(), 0);
  return a;
}

bool WidgetAssigner::NextAssignment(Assignment* a) const {
  for (size_t i = 0; i < decisions_.size(); ++i) {
    size_t n = std::max<size_t>(1, decisions_[i].options.size());
    if (static_cast<size_t>(++a->picks[i]) < n) return true;
    a->picks[i] = 0;
  }
  return false;
}

Assignment WidgetAssigner::MinAppropriatenessAssignment() const {
  // The per-choice greedy pick was computed once at Collect time (and is
  // shared across states through the delta-cost cache).
  Assignment a = FirstAssignment();
  for (size_t i = 0; i < decisions_.size(); ++i) {
    if (decisions_[i].type != DecisionType::kChoiceWidget) continue;
    a.picks[i] = decisions_[i].terms->min_m_pick;
  }
  return a;
}

Assignment WidgetAssigner::RandomAssignment(Rng* rng) const {
  Assignment a;
  DrawRandomAssignment(rng, &a);
  return a;
}

void WidgetAssigner::DrawRandomAssignment(Rng* rng, Assignment* a) const {
  a->picks.clear();
  a->picks.reserve(decisions_.size());
  for (const DecisionPoint& d : decisions_) {
    a->picks.push_back(d.options.empty()
                           ? 0
                           : static_cast<int>(rng->UniformIndex(d.options.size())));
  }
}

WidgetKind WidgetAssigner::Pick(int decision, const Assignment& a) const {
  const size_t i = static_cast<size_t>(decision);
  return decisions_[i].options[static_cast<size_t>(a.picks[i])];
}

/// Fill's sink: each node is a widget of the layout, each list a sibling
/// chain.
class WidgetAssigner::LayoutSink {
 public:
  using Node = int;
  using List = FlatList;

  LayoutSink(const WidgetAssigner& assigner, FlatLayout* out)
      : assigner_(assigner), out_(out) {}

  Node Choice(const NodeSlot& slot, const Assignment& a, std::string_view label) {
    const DecisionPoint& d = assigner_.decisions_[static_cast<size_t>(slot.choice)];
    const size_t pick = static_cast<size_t>(a.picks[static_cast<size_t>(slot.choice)]);
    const WidgetTemplate& t = d.terms->option_terms[pick].tmpl;
    FlatWidget w;
    w.kind = d.options[pick];
    w.size_class = t.size_class;
    w.choice_id = slot.choice_id;
    w.domain = &d.terms->domain;
    w.label = label;
    w.width = t.size.width;
    w.height = t.size.height;
    return out_->Add(w);
  }
  Node Range(const RangeSlider& r) {
    FlatWidget w;
    w.kind = WidgetKind::kRangeSlider;
    w.size_class = r.tmpl.size_class;
    w.choice_id = r.lo_id;
    w.choice_id2 = r.hi_id;
    w.domain = &r.domain;
    w.label = r.label;
    w.width = r.tmpl.size.width;
    w.height = r.tmpl.size.height;
    return out_->Add(w);
  }
  Node Layout(WidgetKind kind, std::string_view label) {
    FlatWidget group;
    group.kind = kind;
    group.label = label;
    return out_->Add(group);
  }
  /// A choice-free difftree renders as a single static label.
  Node QueryLabel() {
    FlatWidget label;
    label.kind = WidgetKind::kLabel;
    label.label = "query";
    label.width = 8;
    label.height = 1;
    return out_->Add(label);
  }
  void Adopt(Node* parent, List* children) { out_->Adopt(*parent, *children); }
  void Append(List* list, Node n) { out_->Append(list, n); }
  /// The node of a one-node list.
  Node Only(List* list) { return list->head; }
  void Relabel(Node n, std::string_view label) {
    out_->widgets[static_cast<size_t>(n)].label = label;
  }

 private:
  const WidgetAssigner& assigner_;
  FlatLayout* out_;
};

/// LayoutM's sink: each node is a widget subtree's M(.) sum, each list a run
/// of such sums on a stack. A node adopts its children as CostModel::LayoutM
/// sums them: its own term first, then each child's sum, left to right. A
/// layout's term counts its children, so it is set when the layout adopts
/// them, which every layout of the walk does.
class WidgetAssigner::MSink {
 public:
  struct Node {
    WidgetKind kind = WidgetKind::kVertical;
    bool layout = false;  ///< its term waits for its children
    double m = 0.0;
  };
  struct List {
    size_t start = 0;  ///< its first sum on the stack, once it has one
    int count = 0;
  };

  MSink(const WidgetAssigner& assigner, std::vector<double>* sums)
      : assigner_(assigner), sums_(sums) {}

  Node Choice(const NodeSlot& slot, const Assignment& a, std::string_view /*label*/) {
    const DecisionPoint& d = assigner_.decisions_[static_cast<size_t>(slot.choice)];
    const size_t pick = static_cast<size_t>(a.picks[static_cast<size_t>(slot.choice)]);
    // An adder is a layout: its term counts its children, not its domain.
    const WidgetKind kind = d.options[pick];
    if (IsLayoutWidget(kind)) return Layout(kind, {});
    return {kind, false, d.terms->option_terms[pick].m};
  }
  Node Range(const RangeSlider& r) { return {WidgetKind::kRangeSlider, false, r.m}; }
  Node Layout(WidgetKind kind, std::string_view /*label*/) { return {kind, true, 0.0}; }
  Node QueryLabel() {
    return {WidgetKind::kLabel, false,
            AppropriatenessCost(assigner_.constants_, WidgetKind::kLabel, WidgetDomain{})};
  }
  void Adopt(Node* parent, List* children) {
    if (parent->layout) {
      // A layout widget's M(.) depends on its child count alone.
      layout_domain_.cardinality = static_cast<size_t>(children->count);
      parent->m = AppropriatenessCost(assigner_.constants_, parent->kind, layout_domain_);
    }
    if (children->count == 0) return;
    // The children's sums are the top of the stack.
    const size_t end = children->start + static_cast<size_t>(children->count);
    for (size_t i = children->start; i < end; ++i) parent->m += (*sums_)[i];
    sums_->resize(children->start);
  }
  void Append(List* list, Node n) {
    if (list->count++ == 0) list->start = sums_->size();
    sums_->push_back(n.m);
  }
  Node Only(List* /*list*/) {
    const Node n{WidgetKind::kVertical, false, sums_->back()};
    sums_->pop_back();
    return n;
  }
  void Relabel(Node /*n*/, std::string_view /*label*/) {}

 private:
  const WidgetAssigner& assigner_;
  std::vector<double>* sums_;
  WidgetDomain layout_domain_;
};

template <class Sink>
void WidgetAssigner::Walk(int s, const Assignment& a, Sink* out,
                          typename Sink::List* list) const {
  using Node = typename Sink::Node;
  using List = typename Sink::List;
  const NodeSlot& slot = slots_[static_cast<size_t>(s)];
  const DiffTree& node = *slot.node;
  switch (node.kind) {
    case DKind::kAll: {
      if (node.sym == Symbol::kEmpty) return;
      // BETWEEN composite: one range slider may cover both endpoints.
      if (slot.range >= 0) {
        const RangeSlider& r = ranges_[static_cast<size_t>(slot.range)];
        if (Pick(r.decision, a) == WidgetKind::kRangeSlider) {
          out->Append(list, out->Range(r));
          return;
        }
      }
      List widgets;
      for (int c = s + 1; c < slot.end; c = slots_[static_cast<size_t>(c)].end) {
        // A slot without children stands for a choice-free subtree.
        if (slots_[static_cast<size_t>(c)].end == c + 1) continue;
        Walk(c, a, out, &widgets);
      }
      if (widgets.count == 0) return;
      if (widgets.count == 1) {
        out->Append(list, out->Only(&widgets));
        return;
      }
      Node g = out->Layout(slot.container >= 0 ? Pick(slot.container, a) : WidgetKind::kVertical,
                           slot.context);
      out->Adopt(&g, &widgets);
      out->Append(list, g);
      return;
    }
    case DKind::kAny: {
      const DecisionPoint& d = decisions_[static_cast<size_t>(slot.choice)];
      Node w = out->Choice(slot, a, slot.context);
      if (Pick(slot.choice, a) == WidgetKind::kTabs) {
        // One child panel per alternative, labeled with it.
        List panels;
        size_t alt = 0;
        for (int c = s + 1; c < slot.end; c = slots_[static_cast<size_t>(c)].end, ++alt) {
          List alt_widgets;
          Walk(c, a, out, &alt_widgets);
          const std::string_view label = d.terms->domain.labels[alt];
          Node panel;
          if (alt_widgets.count == 1) {
            panel = out->Only(&alt_widgets);
            out->Relabel(panel, label);
          } else {
            panel = out->Layout(WidgetKind::kVertical, label);
            out->Adopt(&panel, &alt_widgets);
          }
          out->Append(&panels, panel);
        }
        out->Adopt(&w, &panels);
      }
      out->Append(list, w);
      return;
    }
    case DKind::kOpt: {
      // Toggle + dependent widgets form a group (paper Fig. 3b: the toggle
      // and the StrExpr dropdown are organized together).
      List group_widgets;
      out->Append(&group_widgets, out->Choice(slot, a, slot.toggle_label));
      Walk(s + 1, a, out, &group_widgets);
      if (group_widgets.count == 1) {
        out->Append(list, out->Only(&group_widgets));
        return;
      }
      Node g = out->Layout(
          slot.container >= 0 ? Pick(slot.container, a) : WidgetKind::kHorizontal, slot.context);
      out->Adopt(&g, &group_widgets);
      out->Append(list, g);
      return;
    }
    case DKind::kMulti: {
      Node adder = out->Choice(slot, a, slot.context);
      List inner;
      Walk(s + 1, a, out, &inner);
      if (inner.count > 1) {
        Node row = out->Layout(WidgetKind::kHorizontal, {});
        out->Adopt(&row, &inner);
        inner = List{};
        out->Append(&inner, row);
      }
      out->Adopt(&adder, &inner);
      out->Append(list, adder);
      return;
    }
  }
}

template <class Sink>
void WidgetAssigner::WalkRoot(const Assignment& a, Sink* out,
                              typename Sink::Node* root) const {
  typename Sink::List widgets;
  Walk(0, a, out, &widgets);
  if (widgets.count == 0) {
    *root = out->QueryLabel();
  } else if (widgets.count == 1) {
    *root = out->Only(&widgets);
  } else {
    *root = out->Layout(WidgetKind::kVertical, {});
    out->Adopt(root, &widgets);
  }
}

Status WidgetAssigner::CheckAssignment(const Assignment& a) const {
  if (a.picks.size() != decisions_.size()) {
    return Status::Invalid("assignment size mismatch");
  }
  if (!viable_) {
    return Status::Invalid("difftree has a choice node with no valid widget");
  }
  return Status::OK();
}

Status WidgetAssigner::Fill(const Assignment& a, FlatLayout* out) const {
  IFGEN_RETURN_NOT_OK(CheckAssignment(a));
  out->Reset(static_cast<size_t>(num_choices_));
  LayoutSink sink(*this, out);
  WalkRoot(a, &sink, &out->root);
  return Status::OK();
}

double WidgetAssigner::LayoutM(const Assignment& a) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!CheckAssignment(a).ok()) return kInf;
  // The sums stack, reused by every call on this thread.
  thread_local std::vector<double> sums;
  sums.clear();
  MSink sink(*this, &sums);
  MSink::Node root;
  WalkRoot(a, &sink, &root);
  return root.m;
}

Result<WidgetTree> WidgetAssigner::Build(const Assignment& a) const {
  FlatLayout layout;
  IFGEN_RETURN_NOT_OK(Fill(a, &layout));
  return Materialize(layout);
}

}  // namespace ifgen
