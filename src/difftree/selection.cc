#include "difftree/selection.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace ifgen {

namespace {
void CollectChoicesRec(const DiffTree& n, bool inside_multi,
                       std::vector<const DiffTree*>* nodes,
                       std::vector<bool>* inside) {
  bool here_multi = inside_multi;
  if (n.IsChoice()) {
    nodes->push_back(&n);
    inside->push_back(inside_multi);
    if (n.kind == DKind::kMulti) here_multi = true;
  }
  for (const DiffTree& c : n.children) {
    CollectChoicesRec(c, here_multi, nodes, inside);
  }
}
}  // namespace

ChoiceIndex::ChoiceIndex(const DiffTree& root) {
  CollectChoicesRec(root, /*inside_multi=*/false, &nodes_, &inside_multi_);
  id_of_.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    id_of_.emplace_back(nodes_[i], static_cast<int>(i));
  }
  std::sort(id_of_.begin(), id_of_.end(), [](const auto& a, const auto& b) {
    return std::less<const DiffTree*>()(a.first, b.first);
  });
}

int ChoiceIndex::IdOf(const DiffTree* node) const {
  auto it = std::lower_bound(id_of_.begin(), id_of_.end(), node,
                             [](const auto& entry, const DiffTree* n) {
                               return std::less<const DiffTree*>()(entry.first, n);
                             });
  return it != id_of_.end() && it->first == node ? it->second : -1;
}

namespace {

void ForEachSelectionRec(const ChoiceIndex& index, const Derivation& d, bool inside_multi,
                         const SelectionVisitor& visit) {
  const DiffTree* n = d.node;
  IFGEN_DCHECK(n != nullptr);
  if (n->IsChoice() && !inside_multi) {
    int id = index.IdOf(n);
    if (id >= 0) visit(id, d);
  }
  bool next_inside = inside_multi || n->kind == DKind::kMulti;
  for (const Derivation& c : d.children) {
    ForEachSelectionRec(index, c, next_inside, visit);
  }
}

}  // namespace

void ForEachSelection(const ChoiceIndex& index, const Derivation& deriv,
                      const SelectionVisitor& visit) {
  ForEachSelectionRec(index, deriv, /*inside_multi=*/false, visit);
}

SelectionMap ExtractSelections(const ChoiceIndex& index, const Derivation& deriv) {
  SelectionMap out;
  ForEachSelection(index, deriv, [&](int id, const Derivation& d) {
    switch (d.node->kind) {
      case DKind::kAny:
        out[id] = "a" + std::to_string(d.choice);
        break;
      case DKind::kOpt:
        out[id] = d.choice != 0 ? "p1" : "p0";
        break;
      case DKind::kMulti:
        // The adder widget's value is the full sub-derivation (count plus
        // every nested choice in every copy).
        out[id] = d.Encode();
        break;
      case DKind::kAll:
        break;
    }
  });
  return out;
}

size_t CountChangedAndAdvance(const SelectionMap& next, SelectionMap* state,
                              std::vector<int>* changed_ids) {
  size_t changed = 0;
  for (const auto& [id, sel] : next) {
    auto it = state->find(id);
    if (it == state->end() || it->second != sel) {
      ++changed;
      if (changed_ids != nullptr) changed_ids->push_back(id);
      (*state)[id] = sel;
    }
  }
  return changed;
}

}  // namespace ifgen
