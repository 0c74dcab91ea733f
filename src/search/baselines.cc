#include "search/baselines.h"

#include <algorithm>
#include <deque>

namespace ifgen {

Result<SearchResult> RandomSearcher::Run(const DiffTree& initial) {
  Rng rng(opts_.seed);
  SearchRun run(opts_);
  run.Start(initial, evaluator_, &rng);
  SearchStats& stats = run.stats();
  while (run.Next(&stats)) {
    // Same rollout machinery as MCTS (including intermediate-state
    // evaluation) so the comparison isolates the tree policy.
    DiffTree rollout_best;
    double cost = RolloutAndEvaluateState({rules_, evaluator_, &opts_}, initial, &rng,
                                          &stats, &rollout_best);
    run.Offer(rollout_best, cost, &stats);
  }
  return run.Finish();
}

Result<SearchResult> GreedySearcher::Run(const DiffTree& initial) {
  Rng rng(opts_.seed);
  SearchRun run(opts_);
  DiffTree current = initial;
  double current_cost = run.Start(initial, evaluator_, &rng);
  SearchStats& stats = run.stats();
  while (run.Next(&stats)) {
    std::vector<RuleApplication> apps = rules_->EnumerateApplications(current);
    stats.RecordFanout(apps.size());
    DiffTree best_next;
    double best_next_cost = current_cost;
    for (const RuleApplication& app : apps) {
      auto next = rules_->Apply(current, app);
      if (!next.ok()) continue;
      ++stats.states_expanded;
      double cost = evaluator_->SampleCost(*next, &rng);
      run.Offer(*next, cost, &stats);
      if (cost < best_next_cost) {
        best_next_cost = cost;
        best_next = std::move(next).MoveValueUnsafe();
      }
      if (run.Stopped()) break;
    }
    if (best_next_cost >= current_cost) break;  // local optimum: the climb is over
    current = std::move(best_next);
    current_cost = best_next_cost;
  }
  return run.Finish();
}

Result<SearchResult> BeamSearcher::Run(const DiffTree& initial) {
  Rng rng(opts_.seed);
  SearchRun run(opts_);
  struct Scored {
    DiffTree tree;
    double cost;
  };
  std::vector<Scored> beam;
  beam.push_back({initial, run.Start(initial, evaluator_, &rng)});
  run.tt().Visit(initial.CanonicalHash());
  SearchStats& stats = run.stats();

  while (!beam.empty() && run.Next(&stats)) {
    std::vector<Scored> next_level;
    for (const Scored& s : beam) {
      std::vector<RuleApplication> apps = rules_->EnumerateApplications(s.tree);
      stats.RecordFanout(apps.size());
      for (const RuleApplication& app : apps) {
        auto next = rules_->Apply(s.tree, app);
        if (!next.ok()) continue;
        if (!run.tt().Visit(next->CanonicalHash())) {
          ++stats.transposition_hits;
          continue;
        }
        ++stats.states_expanded;
        double cost = evaluator_->SampleCost(*next, &rng);
        run.Offer(*next, cost, &stats);
        next_level.push_back({std::move(next).MoveValueUnsafe(), cost});
        if (run.Stopped()) break;
      }
      if (run.Stopped()) break;
    }
    std::sort(next_level.begin(), next_level.end(),
              [](const Scored& a, const Scored& b) { return a.cost < b.cost; });
    if (next_level.size() > opts_.beam_width) next_level.resize(opts_.beam_width);
    beam = std::move(next_level);
  }
  return run.Finish();
}

Result<SearchResult> ExhaustiveSearcher::Run(const DiffTree& initial) {
  Rng rng(opts_.seed);
  SearchRun run(opts_);
  run.Start(initial, evaluator_, &rng);
  struct Item {
    DiffTree tree;
    size_t depth;
  };
  std::deque<Item> queue;
  queue.push_back({initial, 0});
  run.tt().Visit(initial.CanonicalHash());
  visited_states_ = 1;
  complete_ = true;
  SearchStats& stats = run.stats();

  while (!queue.empty()) {
    if (visited_states_ >= opts_.exhaustive_max_states || !run.Next(&stats)) {
      complete_ = false;
      break;
    }
    Item item = std::move(queue.front());
    queue.pop_front();
    if (item.depth >= opts_.exhaustive_max_depth) {
      complete_ = false;  // frontier truncated by the depth bound
      continue;
    }
    std::vector<RuleApplication> apps = rules_->EnumerateApplications(item.tree);
    stats.RecordFanout(apps.size());
    for (const RuleApplication& app : apps) {
      auto next = rules_->Apply(item.tree, app);
      if (!next.ok()) continue;
      if (!run.tt().Visit(next->CanonicalHash())) {
        ++stats.transposition_hits;
        continue;
      }
      ++stats.states_expanded;
      ++visited_states_;
      double cost = evaluator_->SampleCost(*next, &rng);
      run.Offer(*next, cost, &stats);
      queue.push_back({std::move(next).MoveValueUnsafe(), item.depth + 1});
      if (visited_states_ >= opts_.exhaustive_max_states || run.Stopped()) break;
    }
  }
  return run.Finish();
}

}  // namespace ifgen
