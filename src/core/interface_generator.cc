#include "core/interface_generator.h"

#include "baseline/bottom_up.h"
#include "difftree/builder.h"
#include "difftree/enumerate.h"
#include "search/baselines.h"
#include "search/mcts.h"
#include "sql/parser.h"
#include "util/logging.h"

namespace ifgen {

std::string_view AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kMcts:
      return "mcts";
    case Algorithm::kRandom:
      return "random";
    case Algorithm::kGreedy:
      return "greedy";
    case Algorithm::kBeam:
      return "beam";
    case Algorithm::kExhaustive:
      return "exhaustive";
    case Algorithm::kBottomUp:
      return "bottom-up";
  }
  return "?";
}

std::unique_ptr<Searcher> MakeSearcher(Algorithm algorithm, const RuleEngine* rules,
                                       StateEvaluator* evaluator,
                                       const SearchOptions& opts,
                                       const ParallelOptions& parallel) {
  switch (algorithm) {
    case Algorithm::kMcts:
      return std::make_unique<MctsSearcher>(rules, evaluator, opts, parallel);
    case Algorithm::kRandom:
      return std::make_unique<RandomSearcher>(rules, evaluator, opts);
    case Algorithm::kGreedy:
      return std::make_unique<GreedySearcher>(rules, evaluator, opts);
    case Algorithm::kBeam:
      return std::make_unique<BeamSearcher>(rules, evaluator, opts);
    case Algorithm::kExhaustive:
      return std::make_unique<ExhaustiveSearcher>(rules, evaluator, opts);
    case Algorithm::kBottomUp:
      return nullptr;  // not a searcher; handled by GenerateInterface
  }
  return nullptr;
}

Result<GeneratedInterface> GenerateInterfaceFromAsts(const std::vector<Ast>& queries,
                                                     const GeneratorOptions& options) {
  if (queries.empty()) {
    return Status::Invalid("query log is empty");
  }
  GeneratedInterface out;
  out.queries = queries;
  out.algorithm = std::string(AlgorithmName(options.algorithm));

  if (options.algorithm == Algorithm::kBottomUp) {
    IFGEN_ASSIGN_OR_RETURN(
        BottomUpResult bu,
        RunBottomUpBaseline(queries, options.constants, options.screen));
    out.difftree = std::move(bu.difftree);
    out.widgets = std::move(bu.widgets);
    out.cost = std::move(bu.cost);
    out.coverage = CountExpressible(out.difftree);
    return out;
  }

  IFGEN_ASSIGN_OR_RETURN(DiffTree initial, BuildInitialTree(queries));
  RuleEngine rules(options.rules);
  StateEvaluator evaluator(options.MakeEvalOptions(), queries);
  std::unique_ptr<Searcher> searcher = MakeSearcher(
      options.algorithm, &rules, &evaluator, options.search, options.parallel);
  IFGEN_CHECK(searcher != nullptr);
  IFGEN_ASSIGN_OR_RETURN(SearchResult sr, searcher->Run(initial));

  // Final phase (paper): enumerate widget trees of the winning difftree.
  Rng rng(options.search.seed ^ 0x5eedULL);
  auto best = evaluator.FindBest(sr.best_tree, &rng);
  if (!best.ok()) {
    // Extremely rare: sampled cost was finite but thorough search failed —
    // fall back to the initial tree, which always admits a button list.
    IFGEN_LOG(Warning) << "FindBest failed on search winner: "
                       << best.status().ToString() << "; using initial tree";
    sr.best_tree = initial;
    IFGEN_ASSIGN_OR_RETURN(ScoredWidgetTree fallback,
                           evaluator.FindBest(sr.best_tree, &rng));
    out.widgets = std::move(fallback.tree);
    out.cost = std::move(fallback.cost);
  } else {
    out.widgets = std::move(best->tree);
    out.cost = std::move(best->cost);
  }
  out.difftree = std::move(sr.best_tree);
  out.stats = std::move(sr.stats);
  out.coverage = CountExpressible(out.difftree);
  return out;
}

Result<GeneratedInterface> GenerateInterface(const std::vector<std::string>& sqls,
                                             const GeneratorOptions& options) {
  IFGEN_ASSIGN_OR_RETURN(std::vector<Ast> queries, ParseQueries(sqls));
  return GenerateInterfaceFromAsts(queries, options);
}

}  // namespace ifgen
