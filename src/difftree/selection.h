#pragma once

#include <vector>

#include "difftree/match.h"

namespace ifgen {

/// \brief The positions of a fixed difftree, and its choice nodes by id.
///
/// Choice ids are the pre-order indices over choice nodes: the id of a
/// position in the tree, not of a node object. One shared block may sit at
/// several positions (see DiffTree), so `node(id)` may return the same object
/// for two ids. Ids of a derivation's nodes therefore come from walking the
/// derivation in step with the tree's pre-order positions (see FindChoice),
/// never from addresses; the matcher records them in its parse trails the
/// same way. The cost model, the widget assigner, and the interface runtime
/// all address widgets by choice id.
class ChoiceIndex {
 public:
  explicit ChoiceIndex(const DiffTree& root);

  size_t size() const { return nodes_.size(); }
  const DiffTree* node(size_t id) const { return nodes_[id]; }

  /// A node position in pre-order: `end` is the position after its subtree,
  /// `first_id` the id of the first choice node at or after it. The last
  /// entry is a sentinel (end of the tree, total choice count).
  struct Position {
    int end;
    int first_id;
  };
  const std::vector<Position>& positions() const { return positions_; }

 private:
  std::vector<const DiffTree*> nodes_;
  std::vector<Position> positions_;
};

/// \brief A MULTI whose copies hold a choice: its id and its derivation.
struct EnclosingMulti {
  int id;
  Derivation* derivation;
};

/// \brief The derivation node of choice `id`, with the MULTI copies searched
/// in order; null when the choice is not on the derivation's active path.
/// `index` is the ChoiceIndex of the tree the derivation was matched against.
/// Unless null, `enclosing` receives the MULTIs whose copies hold the found
/// node, outermost first.
Derivation* FindChoice(const ChoiceIndex& index, Derivation* deriv, int id,
                       std::vector<EnclosingMulti>* enclosing = nullptr);

}  // namespace ifgen
