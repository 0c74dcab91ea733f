#pragma once

#include <map>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "difftree/difftree.h"
#include "sql/ast.h"
#include "util/status.h"

namespace ifgen {

/// \brief Subtree co-occurrence statistics over the query log — the paper's
/// "Ongoing Work" proposal for catching widget combinations that make no
/// semantic sense ("leverage co-occurrence of subtrees in the query log to
/// identify likely and unlikely combinations of widget choices").
///
/// The model records, for a fixed difftree, which widget selections each log
/// query induces (its first parse's (choice id, StickyState code) pairs) and
/// how often pairs of selections appear together. A candidate query is
/// scored in [0, 1]: 1.0 means every selection pair was observed together
/// in the log; 0.0 means some selection never occurred at all.
class CooccurrenceModel {
 public:
  /// Builds the model; queries that fail to match the tree are skipped.
  CooccurrenceModel(const DiffTree& tree, const std::vector<Ast>& queries);

  /// Number of log queries that contributed observations.
  size_t observations() const { return observations_; }

  /// Matches `query` against the tree and scores its selections; returns 0
  /// for inexpressible queries.
  double ScoreQuery(const Ast& query) const;

  /// Splits enumerated queries into (likely, unlikely) by `threshold`.
  struct Partition {
    std::vector<Ast> likely;
    std::vector<Ast> unlikely;
  };
  Partition PartitionQueries(const std::vector<Ast>& queries,
                             double threshold = 0.5) const;

 private:
  using Key = std::pair<int, int>;  // (choice id, selection code)

  /// Likelihood score of the selections `keys`, sorted by id.
  double Score(const std::vector<Key>& keys) const;

  const DiffTree* tree_;
  StickyState codes_;  ///< holds the codes of the log's MULTI selections
  size_t observations_ = 0;
  std::map<Key, size_t> single_counts_;
  std::map<std::pair<Key, Key>, size_t> pair_counts_;
};

}  // namespace ifgen
