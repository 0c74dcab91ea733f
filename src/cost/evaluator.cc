#include "cost/evaluator.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/logging.h"

namespace ifgen {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Registry handles resolved once; the hot path is a sharded relaxed add.
obs::Counter& EvaluationsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_eval_evaluations_total", "Widget-assignment cost evaluations");
  return *c;
}
obs::Counter& EvalCacheHitsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_eval_cache_hits_total", "Sampled-cost cache hits in StateEvaluator");
  return *c;
}
obs::Counter& SeededHitsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_tt_peer_cost_hits_total",
      "Sampled-cost memo hits served by an experience-seeded entry");
  return *c;
}
}  // namespace

StateEvaluator::StateEvaluator(const EvalOptions& opts, const std::vector<Ast>& queries)
    : opts_(opts), queries_(queries),
      model_(opts_.constants, opts_.screen, opts_.parse_limit),
      // A caller-shared cross-search cache only when delta evaluation is on
      // (a shared cache is always created enabled, so the ablation flag must
      // win); private otherwise.
      delta_(opts.shared_delta != nullptr && opts.delta_eval
                 ? opts.shared_delta
                 : std::make_shared<DeltaCostCache>(opts.delta_eval)) {}

std::shared_ptr<const TransitionPlan> StateEvaluator::PlanFor(const DiffTree& tree) {
  // Order-sensitive hash: plans encode pre-order choice ids, so two trees
  // that differ only in ANY-alternative order have different plans.
  uint64_t key = tree.Hash();
  if (auto cached = delta_->LookupPlan(key)) return cached;
  auto plan = std::make_shared<const TransitionPlan>(
      PlanTransitions(tree, queries_, opts_.parse_limit));
  delta_->StorePlan(key, plan);
  return plan;
}

double StateEvaluator::ScoreAssignment(const WidgetAssigner& assigner,
                                       const Assignment& a, const TransitionPlan& plan,
                                       Scratch* scratch) {
  if (!assigner.Fill(a, &scratch->layout).ok()) return kInf;
  model_.ScoreLayout(plan, &scratch->layout, &scratch->cost);
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  EvaluationsMetric().Inc();
  return scratch->cost.total();
}

double StateEvaluator::SampleCost(const DiffTree& tree, Rng* rng) {
  obs::TraceSpan span("eval.sample_cost", "cost");
  uint64_t key = 0;
  if (opts_.cache_enabled || opts_.state_keyed_sampling) {
    key = tree.CanonicalHash();
  }
  if (opts_.cache_enabled) {
    if (auto cached = cost_cache_.Lookup(key)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      EvalCacheHitsMetric().Inc();
      if (cached->seeded) {
        seeded_hits_.fetch_add(1, std::memory_order_relaxed);
        SeededHitsMetric().Inc();
      }
      return cached->cost;
    }
  }
  // State-keyed mode draws from a per-state generator so the caller's
  // stream is never consumed: a seeded memo entry (SeedCost) then changes
  // how much work happens, never which values the surrounding search
  // observes.
  Rng state_rng(HashCombine(opts_.sampling_seed, key));
  Rng* draw_rng = opts_.state_keyed_sampling ? &state_rng : rng;
  WidgetAssigner assigner(tree, opts_.constants, delta_.get());
  double best = kInf;
  if (assigner.viable()) {
    auto plan = PlanFor(tree);
    // One layout, breakdown and assignment serve every draw of the state.
    Scratch scratch;
    size_t random_draws = opts_.k_assignments;
    if (opts_.greedy_seed && random_draws > 0) {
      best = std::min(best, ScoreAssignment(assigner,
                                            assigner.MinAppropriatenessAssignment(),
                                            *plan, &scratch));
      --random_draws;
    }
    Assignment a;
    for (size_t i = 0; i < random_draws; ++i) {
      assigner.DrawRandomAssignment(draw_rng, &a);
      best = std::min(best, ScoreAssignment(assigner, a, *plan, &scratch));
    }
  }
  if (opts_.cache_enabled) {
    // First writer wins: concurrent misses on the same state each compute a
    // valid sample; overwriting would let the cached value drift mid-search.
    cost_cache_.Insert(key, {best, false});
  }
  return best;
}

bool StateEvaluator::SeedCost(uint64_t key, double cost) {
  // The wire formats that carry seeds cannot encode ±inf anyway.
  if (!opts_.cache_enabled || !std::isfinite(cost)) return false;
  return cost_cache_.Insert(key, {cost, true});
}

std::optional<double> StateEvaluator::MemoCost(uint64_t key) const {
  if (auto e = cost_cache_.Lookup(key)) return e->cost;
  return std::nullopt;
}

Result<ScoredWidgetTree> StateEvaluator::FindBest(const DiffTree& tree, Rng* rng) {
  obs::TraceSpan span("eval.find_best", "cost");
  WidgetAssigner assigner(tree, opts_.constants, delta_.get());
  if (!assigner.viable()) {
    return Status::Invalid("state has a choice node with no valid widget");
  }
  auto plan = PlanFor(tree);
  // Every candidate is scored flat; only the winner is materialized.
  Scratch scratch;
  Assignment best;
  double best_cost = kInf;
  auto consider = [&](const Assignment& a) {
    const double cost = ScoreAssignment(assigner, a, *plan, &scratch);
    if (cost < best_cost) {
      best_cost = cost;
      best = a;
    }
  };

  if (assigner.CombinationCount() <= opts_.enumeration_cap) {
    Assignment a = assigner.FirstAssignment();
    do {
      consider(a);
    } while (assigner.NextAssignment(&a));
  } else {
    // Sample (greedy seed first), then coordinate-descent on the best.
    consider(assigner.MinAppropriatenessAssignment());
    Assignment a;
    for (size_t i = 0; i < opts_.sample_fallback; ++i) {
      assigner.DrawRandomAssignment(rng, &a);
      consider(a);
    }
    if (best_cost < kInf) {
      bool improved = true;
      int passes = 0;
      Assignment trial;
      while (improved && passes < 4) {
        improved = false;
        ++passes;
        Assignment current = best;
        for (size_t d = 0; d < assigner.decisions().size(); ++d) {
          size_t n_opts = assigner.decisions()[d].options.size();
          for (size_t o = 0; o < n_opts; ++o) {
            if (static_cast<int>(o) == current.picks[d]) continue;
            trial.picks = current.picks;
            trial.picks[d] = static_cast<int>(o);
            const double before = best_cost;
            consider(trial);
            if (best_cost < before) {
              current = best;
              improved = true;
            }
          }
        }
      }
    }
  }
  if (!(best_cost < kInf)) {
    return Status::NotFound("no valid widget tree fits the screen");
  }
  ScoredWidgetTree winner;
  winner.assignment = std::move(best);
  IFGEN_ASSIGN_OR_RETURN(winner.tree, assigner.Build(winner.assignment));
  winner.cost = model_.EvaluateWithPlan(*plan, &winner.tree);
  return winner;
}

}  // namespace ifgen
