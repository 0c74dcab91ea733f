#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "widgets/domain.h"
#include "widgets/widget.h"

namespace ifgen {

/// \brief A node of the rendered interface's widget tree (paper, Figure 3).
///
/// Layout nodes organize children; interaction nodes control one choice node
/// of the difftree (identified by `choice_id`, the pre-order choice index —
/// see ChoiceIndex). A range slider covers two choice nodes (lo/hi of a
/// BETWEEN); `choice_id2` holds the second. Tabs are both: they select an
/// ANY alternative and host one child group per alternative.
struct WidgetNode {
  WidgetKind kind = WidgetKind::kVertical;
  SizeClass size_class = SizeClass::kSmall;
  int choice_id = -1;
  int choice_id2 = -1;
  std::string label;
  WidgetDomain domain;
  std::vector<WidgetNode> children;

  // Filled by the layout solver.
  int width = 0;
  int height = 0;
  int x = 0;
  int y = 0;

  bool IsInteractive() const {
    return !IsLayoutWidget(kind) && kind != WidgetKind::kLabel;
  }
};

/// \brief A complete widget tree plus lookup structures.
struct WidgetTree {
  WidgetNode root;
  /// Path (child indices) of the widget controlling each choice id.
  std::map<int, std::vector<int>> path_by_choice;

  /// Recomputes path_by_choice from the current tree shape.
  void RebuildIndex();

  const WidgetNode* NodeAtPath(const std::vector<int>& path) const;
  const WidgetNode* WidgetFor(int choice_id) const;

  size_t CountWidgets() const;
  size_t CountInteractive() const;

  /// One-line-per-widget structural dump (kind, label, size).
  std::string ToString() const;
};

/// \brief One widget of a FlatLayout: a WidgetNode without owned storage.
struct FlatWidget {
  WidgetKind kind = WidgetKind::kVertical;
  SizeClass size_class = SizeClass::kSmall;
  int choice_id = -1;
  int choice_id2 = -1;
  /// The widget's value domain, shared and never copied; null reads as an
  /// empty domain.
  const WidgetDomain* domain = nullptr;
  std::string_view label;
  /// The size template as filled; ComputeLayout(FlatLayout*) overwrites it
  /// with the composed box.
  int width = 0;
  int height = 0;
  int first_child = -1;
  int next_sibling = -1;
  int num_children = 0;
  /// Scoring scratch: equals FlatLayout::stamp while this widget is a
  /// terminal of the transition being priced.
  uint64_t mark = 0;
};

/// \brief A sibling chain under construction (the children of one widget).
struct FlatList {
  int head = -1;
  int tail = -1;
  int count = 0;
};

/// \brief A widget tree stored as one array with index links: the form the
/// cost model scores (CostModel::ScoreLayout).
///
/// Search fills one per sampled assignment into reused storage
/// (WidgetAssigner::Fill), so scoring a draw neither copies domains or
/// labels nor allocates; only winners are materialized into a WidgetTree.
/// Labels and domains are views into whatever filled the layout (the
/// assigner and its shared choice terms, or the flattened tree), which must
/// outlive the layout's use.
struct FlatLayout {
  std::vector<FlatWidget> widgets;
  int root = -1;
  /// Index of the widget controlling each choice id, -1 for none (ids of
  /// choice nodes owned by an enclosing adder widget).
  std::vector<int> widget_of_choice;
  /// Last terminal stamp handed out (see FlatWidget::mark).
  uint64_t stamp = 0;

  /// Empties the layout, keeping capacity, for a tree of `num_choices` ids.
  void Reset(size_t num_choices);
  /// Appends `w` (unlinked) and registers its choice ids; returns its index.
  int Add(const FlatWidget& w);
  /// Links `widget` as the last element of `list`.
  void Append(FlatList* list, int widget);
  /// Makes `children` the child list of `parent`.
  void Adopt(int parent, const FlatList& children);
  /// The widget controlling `choice_id`, or -1.
  int WidgetFor(int choice_id) const;
};

/// Flattens the tree rooted at `root` into `out` in pre-order, keeping its
/// current sizes as the templates. Views point into `root`.
void Flatten(const WidgetNode& root, FlatLayout* out);

/// Builds the WidgetTree a filled layout denotes (labels and domains copied,
/// sizes as stored in the layout, index rebuilt).
WidgetTree Materialize(const FlatLayout& layout);

}  // namespace ifgen
