#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "cost/cost_model.h"
#include "difftree/difftree.h"
#include "interface/widget_tree.h"
#include "search/search_common.h"
#include "sql/ast.h"
#include "util/status.h"

namespace ifgen {

/// \brief The end-to-end product: a generated interactive interface.
struct GeneratedInterface {
  std::vector<Ast> queries;
  DiffTree difftree;
  WidgetTree widgets;
  CostBreakdown cost;
  SearchStats stats;
  /// Estimated number of distinct queries the interface can express
  /// (MULTI capped at 2 repetitions); >= |queries|.
  double coverage = 0.0;
  std::string algorithm;
};

/// \brief Top-level entry point: query log in, interface out.
///
/// Pipeline (paper, "Our Approach"): parse queries -> initial difftree
/// (ANY over the ASTs) -> search over rule rewrites (MCTS by default) ->
/// exhaustive widget-tree selection for the best difftree -> scored,
/// renderable interface.
Result<GeneratedInterface> GenerateInterface(const std::vector<std::string>& sqls,
                                             const GeneratorOptions& options = {});

/// Same, for pre-parsed queries.
Result<GeneratedInterface> GenerateInterfaceFromAsts(const std::vector<Ast>& queries,
                                                     const GeneratorOptions& options);

/// Factory used by benches to sweep algorithms uniformly. MCTS runs
/// `parallel.num_threads` root-parallel trees; every other algorithm is
/// serial and ignores `parallel`.
std::unique_ptr<Searcher> MakeSearcher(Algorithm algorithm, const RuleEngine* rules,
                                       StateEvaluator* evaluator,
                                       const SearchOptions& opts,
                                       const ParallelOptions& parallel = {});

}  // namespace ifgen
