#include "difftree/selection.h"

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
template <typename Visit>
void ForEachChildPosition(const Positions& pos, Derivation& d, int at, Visit&& visit) {
  int child = at + 1;
  switch (d.node->kind) {
    case DKind::kAll:
      // One child derivation per difftree child.
      for (Derivation& c : d.children) {
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
  for (Derivation& c : d.children) visit(c, child);
}

Derivation* FindChoiceRec(const Positions& pos, Derivation* d, int at, int id,
                          std::vector<EnclosingMulti>* enclosing) {
  const int own_id = pos[static_cast<size_t>(at)].first_id;
  if (d->node->IsChoice() && own_id == id) return d;
  const bool multi = enclosing != nullptr && d->node->kind == DKind::kMulti;
  if (multi) enclosing->push_back({own_id, d});
  Derivation* found = nullptr;
  ForEachChildPosition(pos, *d, at, [&](Derivation& c, int child) {
    const ChoiceIndex::Position& p = pos[static_cast<size_t>(child)];
    if (found == nullptr && id >= p.first_id &&
        id < pos[static_cast<size_t>(p.end)].first_id) {
      found = FindChoiceRec(pos, &c, child, id, enclosing);
    }
  });
  if (multi && found == nullptr) enclosing->pop_back();
  return found;
}

}  // namespace

Derivation* FindChoice(const ChoiceIndex& index, Derivation* deriv, int id,
                       std::vector<EnclosingMulti>* enclosing) {
  return FindChoiceRec(index.positions(), deriv, /*at=*/0, id, enclosing);
}

}  // namespace ifgen
