#include "search/search_common.h"

#include <algorithm>

#include "difftree/normalize.h"
#include "obs/metrics.h"

namespace ifgen {

namespace {

/// Search counters, bumped in batch once per run by SearchRun::Finish (the
/// iteration loop is the hottest code in the system; per-iteration counter
/// traffic would be measurable).
struct SearchMetrics {
  obs::Counter* trees;
  obs::Counter* iterations;
  obs::Counter* states_expanded;
  obs::Counter* rollouts;
  obs::Counter* rollout_steps;
  static const SearchMetrics& Get() {
    static const SearchMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      SearchMetrics s;
      s.trees = reg.GetCounter("ifgen_search_trees_total",
                               "Search loops run (one per MCTS tree or baseline run)");
      s.iterations = reg.GetCounter("ifgen_search_iterations_total",
                                    "Search iterations, every searcher");
      s.states_expanded = reg.GetCounter("ifgen_search_states_expanded_total",
                                         "Difftree states materialized by expansion");
      s.rollouts = reg.GetCounter("ifgen_search_rollouts_total",
                                  "Random rollout walks simulated");
      s.rollout_steps = reg.GetCounter("ifgen_search_rollout_steps_total",
                                       "Rule applications taken inside rollouts");
      return s;
    }();
    return m;
  }
};

/// One biased-random rule application among the `count` at `*state`; false
/// when no application succeeds. Draws what picking from the materialized
/// list (or its forward subset) and erasing each failed pick would draw, but
/// builds only the applications it tries.
bool RolloutStepRandom(const RolloutContext& ctx, const ApplicationCount& count,
                       DiffTree* state, Rng* rng) {
  const SearchOptions& opts = *ctx.opts;
  // Optionally restrict this step to the forward (factoring) subset.
  const bool forward_only = opts.rollout_forward_bias > 0.5 &&
                            rng->Bernoulli(opts.rollout_forward_bias) &&
                            count.forward > 0;
  const size_t pool = forward_only ? count.forward : count.total;
  ErasedPicks failed;
  for (int attempt = 0; attempt < 4 && failed.size < pool; ++attempt) {
    const size_t pick = failed.Remap(rng->UniformIndex(pool - failed.size));
    auto next = ctx.rules->Apply(*state, ctx.rules->ApplicationAt(*state, pick, forward_only));
    if (next.ok()) {
      *state = std::move(next).MoveValueUnsafe();
      return true;
    }
    if (failed.size < ErasedPicks::kMax) failed.Erase(pick);
  }
  return false;
}

}  // namespace

size_t ErasedPicks::Remap(size_t pick) const {
  for (size_t e = 0; e < size && index[e] <= pick; ++e) ++pick;
  return pick;
}

void ErasedPicks::Erase(size_t i) {
  size_t e = size++;
  for (; e > 0 && index[e - 1] > i; --e) index[e] = index[e - 1];
  index[e] = i;
}

SearchRun::SearchRun(const SearchOptions& opts, size_t loops)
    : opts_(opts),
      loops_(std::max<size_t>(1, loops)),
      deadline_(EffectiveSearchBudgetMs(opts.time_budget_ms, opts.time_control)),
      stop_(opts.stop != nullptr ? opts.stop.get() : &local_stop_) {
  if (opts.max_iterations > 0) {
    loop_cap_ = (opts.max_iterations + loops_ - 1) / loops_;
  }
}

double SearchRun::Start(const DiffTree& initial, StateEvaluator* evaluator, Rng* rng) {
  // Marked normal when it is, so the first rewrites' Normalize skips its
  // blocks as it skips those of every later state.
  Seal(initial, Normalized(initial) == initial);
  stats_.initial_cost = evaluator->SampleCost(initial, rng);
  Offer(initial, stats_.initial_cost, &stats_);
  return stats_.initial_cost;
}

bool SearchRun::Next(SearchStats* stats) {
  if (Stopped()) return false;
  if (loop_cap_ > 0 && stats->iterations >= loop_cap_) return false;
  const double plateau_fraction = opts_.time_control.plateau_fraction;
  if (plateau_fraction > 0.0 &&
      PlateauReached(plateau_fraction, watch_.ElapsedMillis(),
                     last_improvement_ms_.load(std::memory_order_relaxed))) {
    stop_->RequestStop(StopReason::kPlateau);
    return false;
  }
  ++stats->iterations;
  return true;
}

bool SearchRun::Offer(const DiffTree& tree, double cost, SearchStats* stats) {
  std::lock_guard<std::mutex> lock(best_mu_);
  if (cost >= best_cost_) return false;
  best_cost_ = cost;
  best_tree_ = tree;
  const int64_t ms = watch_.ElapsedMillis();
  last_improvement_ms_.store(ms, std::memory_order_relaxed);
  stats->trace.push_back({ms, stats->iterations, cost});
  if (opts_.progress != nullptr) opts_.progress->Publish(tree, cost, stats->iterations, ms);
  const double target = opts_.time_control.target_cost;
  if (target > 0.0 && cost <= target) stop_->RequestStop(StopReason::kTargetCost);
  return true;
}

SearchResult SearchRun::Finish(const std::vector<SearchStats>& loop_stats) {
  SearchResult result;
  {
    std::lock_guard<std::mutex> lock(best_mu_);
    result.best_tree = best_tree_;
    result.best_cost = best_cost_;
  }
  result.stats = std::move(stats_);
  for (const SearchStats& s : loop_stats) result.stats.Merge(s);
  result.stats.trees = loops_;
  result.stats.elapsed_ms = watch_.ElapsedMillis();
  result.stats.stop_reason =
      ResolveStopReason(stop_, deadline_.Expired(), opts_.time_budget_ms,
                        opts_.time_control, result.stats.iterations, opts_.max_iterations);
  if (obs::MetricsEnabled()) {
    const SearchMetrics& m = SearchMetrics::Get();
    m.trees->Add(loops_);
    m.iterations->Add(result.stats.iterations);
    m.states_expanded->Add(result.stats.states_expanded);
    m.rollouts->Add(result.stats.rollouts);
    m.rollout_steps->Add(result.stats.rollout_steps);
  }
  return result;
}

void SearchStats::Merge(const SearchStats& other) {
  iterations += other.iterations;
  states_expanded += other.states_expanded;
  rollouts += other.rollouts;
  rollout_steps += other.rollout_steps;
  transposition_hits += other.transposition_hits;
  if (initial_cost == 0.0) initial_cost = other.initial_cost;
  if (stop_reason == StopReason::kNone) stop_reason = other.stop_reason;
  fanout_samples += other.fanout_samples;
  fanout_sum += other.fanout_sum;
  fanout_max = std::max(fanout_max, other.fanout_max);
  root_seeded += other.root_seeded;
  if (rule_uses.size() < other.rule_uses.size()) {
    rule_uses.resize(other.rule_uses.size(), 0);
    rule_reward_sum.resize(other.rule_reward_sum.size(), 0.0);
  }
  for (size_t i = 0; i < other.rule_uses.size(); ++i) {
    rule_uses[i] += other.rule_uses[i];
    rule_reward_sum[i] += other.rule_reward_sum[i];
  }
  trace.insert(trace.end(), other.trace.begin(), other.trace.end());
  std::sort(trace.begin(), trace.end(), [](const BestTrace& a, const BestTrace& b) {
    return a.ms != b.ms ? a.ms < b.ms : a.cost > b.cost;
  });
}

constexpr size_t kRolloutLen = 200;        ///< paper: walks of up to 200 steps
constexpr double kRolloutStopProb = 0.02;  ///< per-step stop, random walks

double RolloutAndEvaluateState(const RolloutContext& ctx, const DiffTree& start,
                               Rng* rng, SearchStats* stats, DiffTree* best_state,
                               double bound) {
  const SearchOptions& opts = *ctx.opts;
  ++stats->rollouts;
  DiffTree state = start;
  double best_cost = bound;
  auto consider = [&](const DiffTree& s) {
    double cost = ctx.evaluator->SampleCost(s, rng, best_cost);
    if (cost < best_cost) {
      best_cost = cost;
      *best_state = s;
    }
  };
  const bool saturate =
      opts.rollout_saturate_prob > 0 && rng->Bernoulli(opts.rollout_saturate_prob);
  for (size_t step = 0; step < kRolloutLen; ++step) {
    if (!saturate && rng->Bernoulli(kRolloutStopProb)) break;
    const ApplicationCount count = ctx.rules->CountApplications(state);
    stats->RecordFanout(count.total);
    if (count.total == 0) break;
    if (saturate) {
      // Canonical factoring: first forward application in pre-order.
      bool advanced = false;
      for (size_t k = 0; k < count.forward && !advanced; ++k) {
        auto next = ctx.rules->Apply(state, ctx.rules->ApplicationAt(state, k, true));
        if (!next.ok()) continue;
        state = std::move(next).MoveValueUnsafe();
        advanced = true;
      }
      if (!advanced) break;  // forward fixpoint reached
    } else {
      if (!RolloutStepRandom(ctx, count, &state, rng)) break;
    }
    ++stats->rollout_steps;
    if (opts.rollout_eval_prob > 0 && rng->Bernoulli(opts.rollout_eval_prob)) {
      consider(state);
    }
  }
  consider(state);  // the terminus is always evaluated (paper behavior)
  return best_cost < bound ? best_cost : std::numeric_limits<double>::infinity();
}

}  // namespace ifgen
