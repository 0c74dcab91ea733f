#include "cost/evaluator.h"

#include <cmath>
#include <limits>
#include <optional>

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
obs::Counter& BoundSkipsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_eval_bound_skips_total",
      "Sampled-cost misses whose bound skipped transition planning and pricing");
  return *c;
}
obs::Counter& DeferredResolvesMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_eval_deferred_resolves_total",
      "Deferred sampled-cost memo entries resolved to their exact cost");
  return *c;
}

/// True when every U(.) term is >= 0: no interaction or navigation
/// constant is negative or NaN (InteractionCost scales them by factors
/// >= 0).
bool UTermsNonNegative(const CostConstants& c) {
  for (double v : {c.i_toggle, c.i_checkbox, c.i_radio, c.i_buttons, c.i_dropdown_base,
                   c.i_dropdown_log_factor, c.i_slider, c.i_range_slider, c.i_textbox_base,
                   c.i_textbox_per_char, c.i_tabs, c.i_adder, c.i_label, c.nav_edge,
                   c.nav_tab_switch}) {
    if (!(v >= 0.0)) return false;
  }
  return true;
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
                 : std::make_shared<DeltaCostCache>(opts.delta_eval)),
      bounds_sound_(UTermsNonNegative(opts_.constants)) {}

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

StateEvaluator::Draws& StateEvaluator::LocalDraws() {
  static thread_local Draws draws;
  draws.size = 0;
  return draws;
}

void StateEvaluator::AddDraw(const WidgetAssigner& assigner, const Assignment& a,
                             bool count, Draws* draws) {
  const size_t i = draws->size++;
  if (draws->picks.size() < draws->size) {
    draws->picks.resize(draws->size);
    draws->m.resize(draws->size);
  }
  draws->picks[i] = a;
  draws->m[i] = assigner.LayoutM(a);
  if (count && draws->m[i] < kInf) {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    EvaluationsMetric().Inc();
  }
}

void StateEvaluator::DrawAll(const WidgetAssigner& assigner, Rng* rng, bool count,
                             Draws* draws) {
  size_t random_draws = opts_.k_assignments;
  if (opts_.greedy_seed && random_draws > 0) {
    AddDraw(assigner, assigner.MinAppropriatenessAssignment(), count, draws);
    --random_draws;
  }
  Assignment a;
  for (size_t i = 0; i < random_draws; ++i) {
    assigner.DrawRandomAssignment(rng, &a);
    AddDraw(assigner, a, count, draws);
  }
}

double StateEvaluator::ScoreDraws(const WidgetAssigner& assigner,
                                  const TransitionPlan& plan, Draws* draws) const {
  double best = kInf;
  for (size_t i = 0; i < draws->size; ++i) {
    // A draw whose M(.) reaches the best cannot beat it; one that does not
    // fill has M +infinity. Only a draw priced in full is filled.
    const double cut = bounds_sound_ ? best : kInf;
    if (!(draws->m[i] < cut)) continue;
    IFGEN_CHECK(assigner.Fill(draws->picks[i], &draws->layout).ok());
    best = std::min(best, model_.BoundedTotal(plan, &draws->layout, draws->m[i], cut));
  }
  return best;
}

std::shared_ptr<const StateEvaluator::DeferredDraws> StateEvaluator::Defer(
    const DiffTree& tree, const WidgetAssigner& assigner, const Draws& draws) const {
  auto deferred = std::make_shared<DeferredDraws>();
  if (!RecordAnyOrder(tree, &deferred->any_order)) return nullptr;
  if (opts_.state_keyed_sampling) return deferred;
  const std::vector<DecisionPoint>& decisions = assigner.decisions();
  for (const DecisionPoint& d : decisions) {
    if (d.options.size() > 256) return nullptr;
  }
  deferred->decisions = decisions.size();
  deferred->picks.reserve(draws.size * decisions.size());
  for (size_t i = 0; i < draws.size; ++i) {
    if (draws.m[i] == kInf) continue;  // never the best
    ++deferred->filled;
    for (int p : draws.picks[i].picks) deferred->picks.push_back(static_cast<uint8_t>(p));
  }
  return deferred;
}

double StateEvaluator::Resolve(const DiffTree& tree, uint64_t key,
                               const DeferredDraws& deferred) {
  double best = kInf;
  DiffTree drawn;
  if (ReorderAny(tree, deferred.any_order, &drawn)) {
    // Reordering ANY alternatives keeps normal form, so `drawn` carries the
    // mark of the sealed state it reorders.
    Seal(drawn, tree.children.KnownNormal());
    WidgetAssigner assigner(drawn, opts_.constants, delta_.get());
    const std::vector<DecisionPoint>& decisions = assigner.decisions();
    Draws& draws = LocalDraws();
    if (opts_.state_keyed_sampling) {
      Rng state_rng(HashCombine(opts_.sampling_seed, key));
      DrawAll(assigner, &state_rng, /*count=*/false, &draws);
    } else if (decisions.size() == deferred.decisions) {
      Assignment a;
      a.picks.resize(deferred.decisions);
      for (size_t j = 0; j < deferred.filled; ++j) {
        const uint8_t* picks = deferred.picks.data() + j * deferred.decisions;
        bool fits = true;
        for (size_t d = 0; d < deferred.decisions; ++d) {
          a.picks[d] = picks[d];
          fits &= static_cast<size_t>(a.picks[d]) < decisions[d].options.size();
        }
        if (fits) AddDraw(assigner, a, /*count=*/false, &draws);
      }
    }
    best = ScoreDraws(assigner, *PlanFor(drawn), &draws);
  }
  // A tree that does not fit the record has a colliding canonical hash;
  // the memo answers +infinity for it.
  cost_cache_.Mutate(key, [&](MemoEntry& e, bool) {
    if (e.deferred != nullptr) e = {best, false, nullptr};
  });
  deferred_resolves_.fetch_add(1, std::memory_order_relaxed);
  DeferredResolvesMetric().Inc();
  return best;
}

double StateEvaluator::SampleCost(const DiffTree& tree, Rng* rng, double bound) {
  obs::TraceSpan span("eval.sample_cost", "cost");
  if (!bounds_sound_) bound = kInf;
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
      if (cached->deferred == nullptr || cached->cost >= bound) return cached->cost;
      return Resolve(tree, key, *cached->deferred);
    }
  }
  // State-keyed mode draws from a per-state generator so the caller's
  // stream is never consumed: a seeded memo entry (SeedCost) then changes
  // how much work happens, never which values the surrounding search
  // observes.
  std::optional<Rng> state_rng;
  Rng* draw_rng = rng;
  if (opts_.state_keyed_sampling) {
    draw_rng = &state_rng.emplace(HashCombine(opts_.sampling_seed, key));
  }
  WidgetAssigner assigner(tree, opts_.constants, delta_.get());
  double best = kInf;
  if (assigner.viable()) {
    // Every draw is made and its M(.) priced before any is scored: their
    // M(.) alone may already settle that the state cannot beat `bound`.
    Draws& draws = LocalDraws();
    DrawAll(assigner, draw_rng, /*count=*/true, &draws);
    double lower = kInf;
    for (size_t i = 0; i < draws.size; ++i) lower = std::min(lower, draws.m[i]);
    if (lower >= bound && lower < kInf) {
      // M <= M+U for every draw, so the cost is at least `lower`. A later
      // call that needs the exact cost resolves the deferred entry.
      std::shared_ptr<const DeferredDraws> deferred;
      if (!opts_.cache_enabled || (deferred = Defer(tree, assigner, draws)) != nullptr) {
        if (deferred != nullptr) cost_cache_.Insert(key, {lower, false, std::move(deferred)});
        bound_skips_.fetch_add(1, std::memory_order_relaxed);
        BoundSkipsMetric().Inc();
        return lower;
      }
    }
    best = ScoreDraws(assigner, *PlanFor(tree), &draws);
  }
  if (opts_.cache_enabled) {
    // First writer wins: concurrent misses on the same state each compute a
    // valid sample; overwriting would let the cached value drift mid-search.
    cost_cache_.Insert(key, {best, false, nullptr});
  }
  return best;
}

bool StateEvaluator::SeedCost(uint64_t key, double cost) {
  // The wire formats that carry seeds cannot encode ±inf anyway.
  if (!opts_.cache_enabled || !std::isfinite(cost)) return false;
  return cost_cache_.Insert(key, {cost, true, nullptr});
}

std::optional<double> StateEvaluator::MemoCost(uint64_t key) const {
  if (auto e = cost_cache_.Lookup(key); e.has_value() && e->deferred == nullptr) {
    return e->cost;
  }
  return std::nullopt;
}

Result<ScoredWidgetTree> StateEvaluator::FindBest(const DiffTree& tree, Rng* rng) {
  obs::TraceSpan span("eval.find_best", "cost");
  WidgetAssigner assigner(tree, opts_.constants, delta_.get());
  if (!assigner.viable()) {
    return Status::Invalid("state has a choice node with no valid widget");
  }
  auto plan = PlanFor(tree);
  // Every candidate's M(.) is priced from its picks; one that can still win
  // is filled and scored flat; only the winner is materialized.
  FlatLayout layout;
  Assignment best;
  double best_cost = kInf;
  auto consider = [&](const Assignment& a) {
    const double m = assigner.LayoutM(a);
    if (!(m < kInf)) return;  // would not fill
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    EvaluationsMetric().Inc();
    // The cost is at least M(.), and only a strictly lower cost wins.
    const double cut = bounds_sound_ ? best_cost : kInf;
    if (!(m < cut)) return;
    IFGEN_CHECK(assigner.Fill(a, &layout).ok());
    const double cost = model_.BoundedTotal(*plan, &layout, m, cut);
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
