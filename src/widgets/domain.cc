#include "widgets/domain.h"

#include <algorithm>

#include "util/string_util.h"

namespace ifgen {

namespace {

bool IsNumericLeaf(const DiffTree& n) {
  return n.kind == DKind::kAll && n.sym == Symbol::kNumExpr;
}

bool IsLiteralLeaf(const DiffTree& n) {
  return n.kind == DKind::kAll && IsLiteralSymbol(n.sym) && n.children.empty();
}

}  // namespace

WidgetDomain ExtractDomain(const DiffTree& choice_node) {
  WidgetDomain d;
  d.node_kind = choice_node.kind;
  switch (choice_node.kind) {
    case DKind::kAny: {
      d.cardinality = choice_node.children.size();
      d.all_leaf_literals = true;
      d.all_numeric = true;
      d.num_lo = 0.0;
      d.num_hi = 0.0;
      bool first_num = true;
      size_t total_nodes = 0;
      for (size_t i = 0; i < choice_node.children.size(); ++i) {
        const DiffTree& alt = choice_node.children[i];
        size_t nodes = alt.NodeCount();
        total_nodes += nodes;
        // Complex alternatives get synthesized short labels ("q3"), exactly
        // like the paper's Figure 2(a) buttons.
        d.labels.push_back(nodes > 8 ? "q" + std::to_string(i + 1)
                                     : DiffTreeLabel(alt));
        d.all_leaf_literals &= IsLiteralLeaf(alt) || alt.IsEmptyLeaf();
        if (IsNumericLeaf(alt)) {
          double v = std::atof(alt.value.c_str());
          if (first_num) {
            d.num_lo = d.num_hi = v;
            first_num = false;
          } else {
            d.num_lo = std::min(d.num_lo, v);
            d.num_hi = std::max(d.num_hi, v);
          }
        } else {
          d.all_numeric = false;
        }
        d.has_nested_choices |= alt.ChoiceCount() > 0;
      }
      if (!choice_node.children.empty()) {
        d.avg_subtree_nodes = static_cast<double>(total_nodes) /
                              static_cast<double>(choice_node.children.size());
      }
      break;
    }
    case DKind::kOpt: {
      d.cardinality = 2;
      d.labels.push_back(DiffTreeLabel(choice_node.children[0]));
      d.has_nested_choices = choice_node.children[0].ChoiceCount() > 0;
      // The toggle itself only flips presence; the child's complexity is
      // carried by the child's own widgets.
      d.avg_subtree_nodes = 1.0;
      break;
    }
    case DKind::kMulti: {
      d.cardinality = 1;
      d.labels.push_back(DiffTreeLabel(choice_node.children[0]));
      d.has_nested_choices = choice_node.children[0].ChoiceCount() > 0;
      d.avg_subtree_nodes = 1.0;
      break;
    }
    case DKind::kAll:
      break;
  }
  for (const std::string& l : d.labels) {
    d.max_label_len = std::max(d.max_label_len, l.size());
  }
  return d;
}

std::vector<WidgetKind> ValidWidgetKinds(const WidgetDomain& d) {
  std::vector<WidgetKind> kinds;
  switch (d.node_kind) {
    case DKind::kMulti:
      kinds.push_back(WidgetKind::kAdder);
      break;
    case DKind::kOpt:
      kinds.push_back(WidgetKind::kToggle);
      kinds.push_back(WidgetKind::kCheckbox);
      break;
    case DKind::kAny: {
      if (d.cardinality == 1) {
        kinds.push_back(d.has_nested_choices ? WidgetKind::kTabs : WidgetKind::kLabel);
        break;
      }
      if (d.has_nested_choices) {
        // Only tabs can host per-alternative nested widgets.
        kinds.push_back(WidgetKind::kTabs);
        break;
      }
      kinds.push_back(WidgetKind::kDropdown);
      kinds.push_back(WidgetKind::kRadio);
      kinds.push_back(WidgetKind::kButtons);
      if (d.all_numeric && d.cardinality >= 2) {
        kinds.push_back(WidgetKind::kSlider);
      }
      if (d.all_leaf_literals) {
        kinds.push_back(WidgetKind::kTextbox);
      }
      kinds.push_back(WidgetKind::kTabs);
      break;
    }
    case DKind::kAll:
      break;
  }
  return kinds;
}

bool MatchBetweenPattern(const DiffTree& node, BetweenPattern* out) {
  if (node.kind != DKind::kAll || node.sym != Symbol::kBetween ||
      node.children.size() != 3) {
    return false;
  }
  const DiffTree& lhs = node.children[0];
  const DiffTree& lo = node.children[1];
  const DiffTree& hi = node.children[2];
  if (lhs.ChoiceCount() != 0) return false;
  // ExtractDomain's all_numeric && !has_nested_choices, without the labels.
  auto numeric_any = [](const DiffTree& n) {
    if (n.kind != DKind::kAny) return false;
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (!IsNumericLeaf(n.children[i]) || n.children.ChoiceCountOf(i) > 0) return false;
    }
    return true;
  };
  // Both endpoints must be choice nodes for a range slider to earn its keep;
  // a fixed endpoint leaves a plain slider for the other end.
  if (!numeric_any(lo) || !numeric_any(hi)) return false;
  if (out != nullptr) {
    out->between = &node;
    out->lo_any = &lo;
    out->hi_any = &hi;
    out->label = DiffTreeLabel(lhs, 16);
  }
  return true;
}

}  // namespace ifgen
