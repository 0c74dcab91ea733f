#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <optional>

#include "cost/cost_model.h"
#include "cost/delta.h"
#include "interface/assignment.h"
#include "runtime/tt.h"
#include "util/rng.h"

namespace ifgen {

/// Widget-assignment combinations FindBest still enumerates exhaustively.
inline constexpr double kEnumerationCap = 20000;

struct SharedCostCaches;

/// \brief Knobs for difftree-state evaluation.
struct EvalOptions {
  Screen screen;
  CostConstants constants;
  /// Random widget assignments sampled per state during search (paper:
  /// "we randomly assign widgets to the difftree k times").
  size_t k_assignments = 8;
  /// Derivations per query considered by the min-change U computation.
  size_t parse_limit = kParseLimit;
  /// Exhaustive widget-tree enumeration cap for the final state; above it
  /// we fall back to sampling + coordinate-descent refinement.
  double enumeration_cap = kEnumerationCap;
  size_t sample_fallback = 800;
  /// Memoize sampled state costs by canonical difftree hash. This memo is
  /// the only state→cost memo: search warm-start seeds land in it too, so
  /// turning it off also turns off seeding (see StateEvaluator::SeedCost).
  bool cache_enabled = true;
  /// Delta-cost evaluation: memoize per-subtree cost contributions (choice
  /// widget terms, transition plans) so evaluating a state recomputes only
  /// the subtrees touched by the rule application that produced it. The
  /// ablation flag — setting this false forces full re-evaluation — yields
  /// bit-identical costs (tested); only the recompute counters change.
  /// See cost/delta.h and docs/cost-model.md.
  bool delta_eval = true;
  /// Mix the greedy min-M assignment into each state's k samples. The paper
  /// uses k purely random assignments; the greedy seed makes the sampled
  /// reward a far better estimate of a state's potential (ablation:
  /// bench_ablation sweeps this off).
  bool greedy_seed = true;
  /// State-keyed sampling: draw each state's k random assignments from a
  /// local Rng seeded by (sampling_seed, canonical state hash) instead of
  /// the caller's stream. A state's sampled cost becomes a pure function of
  /// (state, options, sampling_seed) — independent of visit order and of
  /// which caches already hold it — which is what lets a search warm-start
  /// pre-seed the cost memo, and evaluators of one cost identity share it
  /// (shared_caches), without perturbing the caller's RNG stream.
  /// Enabled by GeneratorOptions::experience.
  bool state_keyed_sampling = false;
  uint64_t sampling_seed = 0;
  /// One cost identity's caches, used instead of evaluator-private ones by
  /// every evaluator of that identity (same constants/screen/parse_limit/
  /// queries, k, delta flag, sampling mode and seed). Runtime wiring, never
  /// part of any cache key; null = private caches (the default).
  ///  - Its delta cache when `delta_eval` is on: subtree terms and transition
  ///    plans are pure functions of their keys (cost/delta.h), so a
  ///    pre-warmed cache changes recompute counts, never costs.
  ///  - Its state-cost memo under `state_keyed_sampling` only: there a hit
  ///    or a miss draws nothing from the caller's stream, and every entry is
  ///    a sample drawn from (sampling_seed, canonical hash), so an entry
  ///    another evaluator made changes how much work happens, never the
  ///    stream. It can differ from the sample this evaluator would draw only
  ///    when the two saw the state in different ANY orders, whose costs are
  ///    interchangeable samples. Caller-stream sampling keeps a private memo.
  std::shared_ptr<SharedCostCaches> shared_caches;
};

/// \brief A widget tree with its evaluated cost.
struct ScoredWidgetTree {
  Assignment assignment;
  WidgetTree tree;
  CostBreakdown cost;
};

/// \brief One memoized state cost (see StateEvaluator::SampleCost).
struct StateCostEntry {
  /// What a miss pruned by its bound keeps instead of the tree: enough to
  /// rebuild the tree it drew for and to score the same draws later.
  struct Deferred {
    AnyOrder any_order;  ///< the drawn-for tree's (RecordAnyOrder)
    /// The `filled` draws' picks, draw after draw, `decisions` per draw.
    /// Empty under state-keyed sampling, which can draw them again.
    std::vector<uint8_t> picks;
    size_t decisions = 0;
    size_t filled = 0;
  };
  double cost = 0.0;    ///< a lower bound of the cost while `deferred` is set
  bool seeded = false;  ///< came from SeedCost, not a sample
  std::shared_ptr<const Deferred> deferred;
};

/// The state→cost memo by canonical state hash (sharded: many search
/// threads hit it on every rollout step).
using StateCostMemo = ShardedMap<StateCostEntry>;

/// \brief The caches one cost identity's evaluators can share
/// (EvalOptions::shared_caches); GenerationService keeps one per identity
/// of its experience jobs.
struct SharedCostCaches {
  DeltaCostCache delta;
  StateCostMemo memo;
};

/// \brief Evaluates difftree states: the bridge between the search space
/// (difftrees) and the objective (cost of the best widget tree).
///
/// Thread-safe: the memo is sharded, each shard's lock held only for
/// lookup/insert, never across an evaluation, and the counters are atomic,
/// so one evaluator is shared by every tree of a parallel search — a state
/// any tree evaluated is a memo hit for all others. Two threads that miss
/// on the same state concurrently both compute it (first insert wins);
/// costs for one canonical state are interchangeable samples, so this is
/// benign. The same holds across evaluators that share one identity's memo
/// (EvalOptions::shared_caches), such as concurrent experience jobs.
class StateEvaluator {
 public:
  StateEvaluator(const EvalOptions& opts, const std::vector<Ast>& queries);

  /// Reward backbone for MCTS: the best cost among k random assignments
  /// (+infinity when none is valid). Results are memoized per state.
  ///
  /// `bound` says which costs the caller can use: the result is exact when
  /// the cost is below it, and otherwise some value >= `bound` (a lower bound
  /// of the cost, or the cost itself). A miss whose draws' smallest M(.)
  /// already reaches it skips transition planning and U pricing and leaves
  /// a deferred memo entry, resolved to the exact cost by the first later
  /// call that needs it. The draws, the RNG stream and evaluations() are the
  /// same for every bound (docs/cost-model.md, "Bounded evaluation").
  double SampleCost(const DiffTree& tree, Rng* rng,
                    double bound = std::numeric_limits<double>::infinity());

  /// Pre-seeds the memo with `cost` for canonical hash `key`, found by an
  /// earlier search of the same cost identity. First writer wins, so an
  /// entry already in the memo stays; non-finite costs and a disabled memo
  /// are ignored. Returns true when the entry landed. Only sound under
  /// state-keyed sampling, where a seeded hit returns the value a fresh
  /// sample would have produced.
  bool SeedCost(uint64_t key, double cost);

  /// The memoized cost of canonical hash `key` (sampled or seeded), if any;
  /// counts no hit. A deferred entry has no cost yet, only a bound, and
  /// reads as absent.
  std::optional<double> MemoCost(uint64_t key) const;

  /// Thorough search over the widget-tree space of one state: exhaustive
  /// when the combination count is under the cap, otherwise sampled with
  /// coordinate-descent refinement.
  Result<ScoredWidgetTree> FindBest(const DiffTree& tree, Rng* rng);

  const std::vector<Ast>& queries() const { return queries_; }
  const EvalOptions& options() const { return opts_; }
  size_t evaluations() const { return evaluations_.load(std::memory_order_relaxed); }
  size_t cache_hits() const { return cache_hits_.load(std::memory_order_relaxed); }
  /// The subset of cache_hits() answered by a seeded entry.
  size_t seeded_hits() const { return seeded_hits_.load(std::memory_order_relaxed); }
  /// Misses whose bound made SampleCost skip planning and pricing.
  size_t bound_skips() const { return bound_skips_.load(std::memory_order_relaxed); }
  /// Deferred memo entries replaced by their exact cost.
  size_t deferred_resolves() const {
    return deferred_resolves_.load(std::memory_order_relaxed);
  }

  /// Delta-cost instrumentation (see DeltaCostCache): subtree-term and
  /// transition-plan computations performed vs. answered from the caches.
  /// With `delta_eval` off, every call counts as a recompute, so the same
  /// counters quantify both sides of the ablation.
  size_t subtree_recomputes() const { return delta_->subtree_recomputes(); }
  size_t subtree_cache_hits() const { return delta_->subtree_hits(); }
  size_t plan_recomputes() const { return delta_->plan_recomputes(); }
  size_t plan_cache_hits() const { return delta_->plan_hits(); }

 private:
  /// One state's k assignments with their M(.) (+infinity for a draw that
  /// would not fill), and the layout a draw is filled into when it is priced
  /// in full. Storage is kept across states (LocalDraws).
  struct Draws {
    std::vector<Assignment> picks;
    std::vector<double> m;
    FlatLayout layout;
    size_t size = 0;
  };

  using DeferredDraws = StateCostEntry::Deferred;

  /// This thread's Draws, emptied. A miss and a resolve never overlap on a
  /// thread, so they share it.
  static Draws& LocalDraws();

  /// Prices `a`'s M(.) as the next draw of `draws`, without filling it;
  /// counts an evaluation when `count` and it would fill.
  void AddDraw(const WidgetAssigner& assigner, const Assignment& a, bool count,
               Draws* draws);

  /// Makes and prices the state's k draws: the greedy seed, then random
  /// ones from `rng`.
  void DrawAll(const WidgetAssigner& assigner, Rng* rng, bool count, Draws* draws);

  /// The smallest total cost among the draws. Each draw is priced only as
  /// far as it can still beat the best earlier one (when bounds are sound):
  /// one whose M(.) reaches it is skipped unfilled, and U pricing stops once
  /// M+U reaches it.
  double ScoreDraws(const WidgetAssigner& assigner, const TransitionPlan& plan,
                    Draws* draws) const;

  /// The compact record of a pruned miss; null when it cannot be encoded
  /// in bytes (more than 256 alternatives or options).
  std::shared_ptr<const DeferredDraws> Defer(const DiffTree& tree,
                                             const WidgetAssigner& assigner,
                                             const Draws& draws) const;

  /// The exact cost of a deferred entry: the recorded draws scored on the
  /// tree they were drawn for, rebuilt from `tree`. Replaces the entry and
  /// counts no evaluation.
  double Resolve(const DiffTree& tree, uint64_t key, const DeferredDraws& deferred);

  /// The state's transition plan, memoized by order-sensitive tree hash
  /// when delta evaluation is on (shared immutable object — cache hits
  /// copy a pointer, not the per-query change lists).
  std::shared_ptr<const TransitionPlan> PlanFor(const DiffTree& tree);

  EvalOptions opts_;
  std::vector<Ast> queries_;
  CostModel model_;
  /// The identity's memo (EvalOptions::shared_caches) under state-keyed
  /// sampling when provided, an evaluator-private one otherwise; never null.
  std::shared_ptr<StateCostMemo> memo_;
  /// The identity's delta cache when provided and `delta_eval` is on, an
  /// evaluator-private one otherwise; never null.
  std::shared_ptr<DeltaCostCache> delta_;
  std::atomic<size_t> evaluations_{0};
  std::atomic<size_t> cache_hits_{0};
  std::atomic<size_t> seeded_hits_{0};
  std::atomic<size_t> bound_skips_{0};
  std::atomic<size_t> deferred_resolves_{0};
  /// Bounds prune only while every U term is >= 0 (no interaction or
  /// navigation constant is negative or NaN): then M <= M+U.
  bool bounds_sound_ = true;
};

}  // namespace ifgen
