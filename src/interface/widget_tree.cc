#include "interface/widget_tree.h"

#include "util/string_util.h"

namespace ifgen {

namespace {

void IndexRec(const WidgetNode& n, std::vector<int>* path,
              std::map<int, std::vector<int>>* out) {
  if (n.choice_id >= 0) {
    (*out)[n.choice_id] = *path;
  }
  if (n.choice_id2 >= 0) {
    (*out)[n.choice_id2] = *path;
  }
  for (size_t i = 0; i < n.children.size(); ++i) {
    path->push_back(static_cast<int>(i));
    IndexRec(n.children[i], path, out);
    path->pop_back();
  }
}

size_t CountRec(const WidgetNode& n, bool interactive_only) {
  size_t c = interactive_only ? (n.IsInteractive() ? 1 : 0) : 1;
  for (const WidgetNode& k : n.children) c += CountRec(k, interactive_only);
  return c;
}

void DumpRec(const WidgetNode& n, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += WidgetKindName(n.kind);
  if (!n.label.empty()) *out += " '" + n.label + "'";
  if (n.choice_id >= 0) *out += StrFormat(" #%d", n.choice_id);
  if (n.choice_id2 >= 0) *out += StrFormat("/#%d", n.choice_id2);
  if (!n.domain.labels.empty() && !IsLayoutWidget(n.kind)) {
    *out += " {";
    for (size_t i = 0; i < n.domain.labels.size() && i < 6; ++i) {
      if (i > 0) *out += ", ";
      *out += n.domain.labels[i];
    }
    if (n.domain.labels.size() > 6) *out += ", ...";
    *out += "}";
  }
  *out += StrFormat(" [%dx%d]", n.width, n.height);
  *out += "\n";
  for (const WidgetNode& k : n.children) DumpRec(k, indent + 1, out);
}

}  // namespace

void WidgetTree::RebuildIndex() {
  path_by_choice.clear();
  std::vector<int> path;
  IndexRec(root, &path, &path_by_choice);
}

const WidgetNode* WidgetTree::NodeAtPath(const std::vector<int>& path) const {
  const WidgetNode* n = &root;
  for (int idx : path) {
    if (idx < 0 || static_cast<size_t>(idx) >= n->children.size()) return nullptr;
    n = &n->children[static_cast<size_t>(idx)];
  }
  return n;
}

const WidgetNode* WidgetTree::WidgetFor(int choice_id) const {
  auto it = path_by_choice.find(choice_id);
  if (it == path_by_choice.end()) return nullptr;
  return NodeAtPath(it->second);
}

size_t WidgetTree::CountWidgets() const { return CountRec(root, false); }
size_t WidgetTree::CountInteractive() const { return CountRec(root, true); }

std::string WidgetTree::ToString() const {
  std::string out;
  DumpRec(root, 0, &out);
  return out;
}

void FlatLayout::Reset(size_t num_choices) {
  widgets.clear();
  root = -1;
  widget_of_choice.assign(num_choices, -1);
  stamp = 0;
}

int FlatLayout::Add(const FlatWidget& w) {
  const int i = static_cast<int>(widgets.size());
  widgets.push_back(w);
  // A later widget claiming the same id wins, as in WidgetTree::RebuildIndex.
  for (int id : {w.choice_id, w.choice_id2}) {
    if (id < 0) continue;
    if (static_cast<size_t>(id) >= widget_of_choice.size()) {
      widget_of_choice.resize(static_cast<size_t>(id) + 1, -1);
    }
    widget_of_choice[static_cast<size_t>(id)] = i;
  }
  return i;
}

void FlatLayout::Append(FlatList* list, int widget) {
  if (list->tail >= 0) {
    widgets[static_cast<size_t>(list->tail)].next_sibling = widget;
  } else {
    list->head = widget;
  }
  list->tail = widget;
  ++list->count;
}

void FlatLayout::Adopt(int parent, const FlatList& children) {
  FlatWidget& p = widgets[static_cast<size_t>(parent)];
  p.first_child = children.head;
  p.num_children = children.count;
}

int FlatLayout::WidgetFor(int choice_id) const {
  if (choice_id < 0 || static_cast<size_t>(choice_id) >= widget_of_choice.size()) {
    return -1;
  }
  return widget_of_choice[static_cast<size_t>(choice_id)];
}

namespace {

int FlattenRec(const WidgetNode& n, FlatLayout* out) {
  FlatWidget w;
  w.kind = n.kind;
  w.size_class = n.size_class;
  w.choice_id = n.choice_id;
  w.choice_id2 = n.choice_id2;
  w.domain = &n.domain;
  w.label = n.label;
  w.width = n.width;
  w.height = n.height;
  const int i = out->Add(w);
  FlatList kids;
  for (const WidgetNode& c : n.children) out->Append(&kids, FlattenRec(c, out));
  out->Adopt(i, kids);
  return i;
}

WidgetNode MaterializeRec(const FlatLayout& layout, int i) {
  const FlatWidget& w = layout.widgets[static_cast<size_t>(i)];
  WidgetNode n;
  n.kind = w.kind;
  n.size_class = w.size_class;
  n.choice_id = w.choice_id;
  n.choice_id2 = w.choice_id2;
  n.label = std::string(w.label);
  if (w.domain != nullptr) n.domain = *w.domain;
  n.width = w.width;
  n.height = w.height;
  n.children.reserve(static_cast<size_t>(w.num_children));
  for (int c = w.first_child; c >= 0; c = layout.widgets[static_cast<size_t>(c)].next_sibling) {
    n.children.push_back(MaterializeRec(layout, c));
  }
  return n;
}

}  // namespace

void Flatten(const WidgetNode& root, FlatLayout* out) {
  out->Reset(0);
  out->root = FlattenRec(root, out);
}

WidgetTree Materialize(const FlatLayout& layout) {
  WidgetTree wt;
  wt.root = MaterializeRec(layout, layout.root);
  wt.RebuildIndex();
  return wt;
}

}  // namespace ifgen
