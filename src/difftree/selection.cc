#include "difftree/selection.h"

#include "util/logging.h"

namespace ifgen {

namespace {
void CollectRec(const DiffTree& n, std::vector<const DiffTree*>* nodes,
                std::vector<ChoiceIndex::Position>* positions) {
  const size_t at = positions->size();
  positions->push_back({0, static_cast<int>(nodes->size())});
  if (n.IsChoice()) nodes->push_back(&n);
  for (const DiffTree& c : n.children) CollectRec(c, nodes, positions);
  (*positions)[at].end = static_cast<int>(positions->size());
}
}  // namespace

ChoiceIndex::ChoiceIndex(const DiffTree& root) {
  positions_.reserve(root.NodeCount() + 1);
  CollectRec(root, &nodes_, &positions_);
  positions_.push_back({static_cast<int>(positions_.size()), static_cast<int>(nodes_.size())});
}

namespace {

using Positions = std::vector<ChoiceIndex::Position>;

/// Calls visit(child, position) for each child derivation of `d`, whose node
/// sits at position `at`: a node's first child is at the next position, and
/// each later sibling starts where the one before it ends.
template <typename D, typename Visit>
void ForEachChildPosition(const Positions& pos, D& d, int at, Visit&& visit) {
  int child = at + 1;
  switch (d.node->kind) {
    case DKind::kAll:
      // One child derivation per difftree child.
      for (auto& c : d.children) {
        visit(c, child);
        child = pos[static_cast<size_t>(child)].end;
      }
      return;
    case DKind::kAny:
      // The chosen alternative only.
      for (int alt = 0; alt < d.choice; ++alt) child = pos[static_cast<size_t>(child)].end;
      break;
    case DKind::kOpt:    // the child, when present
    case DKind::kMulti:  // one derivation per copy of the one child
      break;
  }
  for (auto& c : d.children) visit(c, child);
}

/// Fills `out` with the selections of `d`, whose node sits at position
/// `at`, in pre-order.
void ExtractRec(const Positions& pos, const Derivation& d, int at, bool inside_multi,
                SelectionMap* out) {
  IFGEN_DCHECK(d.node != nullptr && static_cast<size_t>(at) + 1 < pos.size());
  if (!inside_multi) {
    const int id = pos[static_cast<size_t>(at)].first_id;
    switch (d.node->kind) {
      case DKind::kAny:
        (*out)[id] = "a" + std::to_string(d.choice);
        break;
      case DKind::kOpt:
        (*out)[id] = d.choice != 0 ? "p1" : "p0";
        break;
      case DKind::kMulti:
        // The adder widget's value is the full sub-derivation (count plus
        // every nested choice in every copy).
        (*out)[id] = d.Encode();
        break;
      case DKind::kAll:
        break;
    }
  }
  const bool next_inside = inside_multi || d.node->kind == DKind::kMulti;
  ForEachChildPosition(pos, d, at, [&](const Derivation& c, int child) {
    ExtractRec(pos, c, child, next_inside, out);
  });
}

Derivation* FindChoiceRec(const Positions& pos, Derivation* d, int at, int id) {
  if (d->node->IsChoice() && pos[static_cast<size_t>(at)].first_id == id) return d;
  Derivation* found = nullptr;
  ForEachChildPosition(pos, *d, at, [&](Derivation& c, int child) {
    const ChoiceIndex::Position& p = pos[static_cast<size_t>(child)];
    if (found == nullptr && id >= p.first_id &&
        id < pos[static_cast<size_t>(p.end)].first_id) {
      found = FindChoiceRec(pos, &c, child, id);
    }
  });
  return found;
}

}  // namespace

Derivation* FindChoice(const ChoiceIndex& index, Derivation* deriv, int id) {
  return FindChoiceRec(index.positions(), deriv, /*at=*/0, id);
}

SelectionMap ExtractSelections(const ChoiceIndex& index, const Derivation& deriv) {
  SelectionMap out;
  ExtractRec(index.positions(), deriv, /*at=*/0, /*inside_multi=*/false, &out);
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
