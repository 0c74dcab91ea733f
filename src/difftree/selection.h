#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "difftree/match.h"
#include "util/function_ref.h"

namespace ifgen {

/// \brief Stable identifiers for the choice nodes of a fixed difftree.
///
/// Choice ids are the pre-order indices over choice nodes; they stay valid
/// as long as the tree instance is not mutated. The cost model, the widget
/// assigner, and the interface runtime all address widgets by choice id.
class ChoiceIndex {
 public:
  explicit ChoiceIndex(const DiffTree& root);

  size_t size() const { return nodes_.size(); }
  const DiffTree* node(size_t id) const { return nodes_[id]; }
  /// Returns -1 when the node is not a choice node of the indexed tree.
  int IdOf(const DiffTree* node) const;

  /// Ids of choice nodes that lie inside a MULTI subtree (excluded from
  /// per-widget selection tracking: the adder widget owns them).
  bool InsideMulti(size_t id) const { return inside_multi_[id]; }

 private:
  std::vector<const DiffTree*> nodes_;
  std::vector<bool> inside_multi_;
  /// (node, id) sorted by node address: IdOf is a binary search, and
  /// building an index (once per planned state) allocates one array.
  std::vector<std::pair<const DiffTree*, int>> id_of_;
};

/// \brief The selection a query induces on each *active* widget.
///
/// Maps choice id -> encoded selection. Choice nodes in unchosen ANY
/// branches are absent (the corresponding widgets keep their prior state —
/// "sticky" semantics, matching how a real interface behaves). Choice nodes
/// inside MULTI subtrees are folded into the MULTI's own encoding.
using SelectionMap = std::unordered_map<int, std::string>;

/// Receives a selection: the choice id and the choice node's derivation.
using SelectionVisitor = FunctionRef<void(int, const Derivation&)>;

/// \brief Visits the selections of a derivation in pre-order: every choice
/// node outside MULTI subtrees (a MULTI's own selection covers them). This is
/// the order ExtractSelections fills its map in.
void ForEachSelection(const ChoiceIndex& index, const Derivation& deriv,
                      const SelectionVisitor& visit);

/// Extracts the selection map from a derivation.
SelectionMap ExtractSelections(const ChoiceIndex& index, const Derivation& deriv);

/// Number of selections that differ between consecutive queries under sticky
/// semantics: a widget counts as changed when `next` assigns it a value
/// different from its current sticky value in `state`; `state` is updated.
size_t CountChangedAndAdvance(const SelectionMap& next,
                              SelectionMap* state,
                              std::vector<int>* changed_ids = nullptr);

}  // namespace ifgen
