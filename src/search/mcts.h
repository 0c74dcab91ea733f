#pragma once

#include "search/search_common.h"

namespace ifgen {

/// \brief Monte Carlo Tree Search over difftree states (paper, "Monte Carlo
/// Tree Search").
///
/// Each search-tree node is a difftree; edges are rule applications. Per
/// iteration:
///  1. Selection: descend from the root by maximum UCT
///     (w/n + c * sqrt(ln N / n)) — or, with priors enabled (the default,
///     see PriorOptions), by maximum PUCT
///     (w/n + kPuctC * P(a) * sqrt(N) / (1 + n), kPuctC = 1.2) where P is
///     the ActionPriorModel's log-derived prior of the child's creating
///     action.
///  2. Expansion: materialize untried neighbor states — all of them when
///     `expand_all_children` (the paper's variant; at most 24 per
///     iteration), else one. Progressive widening (default on) caps a
///     node's children at ProgressiveWideningLimit(visits), so high-fanout
///     nodes unlock children gradually, highest-prior first.
///  3. Simulation: from each new child, a uniformly random rule-application
///     walk of up to 200 steps, as in the paper (`kRolloutLen`).
///  4. Reward: the final state's cost from k random widget assignments,
///     normalized to (0, 1] as r = c0 / (c0 + cost) with c0 the initial
///     state's cost (the paper uses the negated cost; UCT needs a bounded
///     positive reward, and this normalization preserves the ordering).
///  5. Backpropagation along the selection path.
///
/// A transposition table over canonical difftree hashes detects revisited
/// states (rule sequences often commute); revisits share one sampled cost
/// through the StateEvaluator's memo.
///
/// Root parallelism: `parallel.num_threads` independent trees, each on its
/// own RNG stream, share one SearchRun (its transposition table, best
/// tracker, deadline and stop control) and the evaluator's memo. Tree 0
/// runs on the caller's thread and trees 1..n-1 on one plain std::thread
/// each, joined before Run returns. The iteration
/// budget is divided across trees; after the run the per-tree root actions
/// are merged by canonical hash and ranked by visit-weighted mean reward
/// (`SearchResult::root_actions`). One tree starts no thread and is
/// bit-for-bit reproducible (see ParallelOptions).
class MctsSearcher final : public Searcher {
 public:
  MctsSearcher(const RuleEngine* rules, StateEvaluator* evaluator, SearchOptions opts,
               ParallelOptions parallel = {})
      : Searcher(rules, evaluator, std::move(opts)), parallel_(parallel) {}

  std::string_view name() const override {
    return parallel_.num_threads > 1 ? "mcts-parallel" : "mcts";
  }
  Result<SearchResult> Run(const DiffTree& initial) override;

 private:
  ParallelOptions parallel_;
};

}  // namespace ifgen
