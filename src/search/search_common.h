#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cost/evaluator.h"
#include "difftree/difftree.h"
#include "rules/rule.h"
#include "runtime/tt.h"
#include "search/progress.h"
#include "search/timeman.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace ifgen {

/// \brief Knobs of the prior-guided search layer (PUCT selection +
/// progressive widening); see docs/search.md and search/priors.h.
///
/// The paper expands all immediate neighbors and selects children by plain
/// UCT — every rule application is treated as equally promising a priori.
/// The query log says otherwise: its co-occurrence structure predicts which
/// factoring edits pay off (Precision Interfaces; PI2). ActionPriorModel
/// turns those statistics plus the rule type into a per-action prior; this
/// struct holds the on/off ablation flags and the learned rule weights. The
/// formula constants are fixed: `kPuctC` in mcts.cc, the widening and
/// signal weights in priors.cc.
struct PriorOptions {
  /// Use log-derived action priors: PUCT selection and prior-ordered
  /// expansion. Off = the paper's uniform treatment (ablation baseline).
  bool use_priors = true;
  /// Progressive widening: a node may only have ProgressiveWideningLimit(v)
  /// children at v visits, so high-fanout nodes expand their children
  /// lazily (in prior order when `use_priors`) instead of all at once.
  /// Off = the paper's expand-all behavior (ablation baseline).
  bool progressive_widening = true;
  /// Trace-fitted per-rule weights, (rule name, weight) sorted by name
  /// (see src/learn/prior_fit.h and examples/fit_priors.cpp). When a rule's
  /// name appears here, its learned weight replaces the hand-set
  /// BaseRuleWeight; unlisted rules keep the hand-set fallback. Value knobs:
  /// part of the service's options fingerprint like every other field here.
  std::vector<std::pair<std::string, double>> learned_weights;
};

/// \brief One warm-start entry: a canonical state hash with its sampled
/// cost and visit count. The unit of experience seeding (see WarmStart).
struct TtSeedEntry {
  uint64_t canonical = 0;
  double cost = 0.0;
  uint64_t visits = 0;
};

/// \brief Per-root-action statistics of a (possibly merged) MCTS root.
///
/// Root-parallel ensembles merge per-tree root children by canonical hash;
/// the ensemble's preferred action is the one with the highest
/// visit-weighted mean reward.
struct RootActionStat {
  uint64_t canonical = 0;
  uint64_t visits = 0;
  double total_reward = 0.0;
  double MeanReward() const {
    return visits == 0 ? 0.0 : total_reward / static_cast<double>(visits);
  }
};

/// \brief Warm-start wiring of one search: seed costs in, discoveries out.
///
/// Built once per job by GenerationService from the persistent experience
/// store (src/learn/experience.h). Every seed cost lands in the
/// StateEvaluator's memo before the first iteration (first writer wins; the
/// anchor cost is already in it), and seeds matching a root child also grant
/// that child capped virtual visits + reward, steering early PUCT selection
/// toward previously good actions. Seeding is sound only under state-keyed
/// sampling (costs are pure functions of the state), so seeded entries
/// change how much work a search does, never which values it observes.
/// Like `stop`/`progress`, attaching a bridge is NOT part of any cache key;
/// with it absent the search draws exactly the same RNG stream.
struct WarmStart {
  /// Cap on the virtual visits one experience seed may grant a root child.
  static constexpr uint64_t kRootVisitCap = 8;
  /// Cap on entries exported after the run.
  static constexpr size_t kExportLimit = 512;

  /// In: experience-store records for this cost identity.
  std::vector<TtSeedEntry> experience_seed;
  /// Out: expanded states with a finite memo cost that did not come from
  /// the seeds, canonical ascending, at most kExportLimit.
  std::vector<TtSeedEntry> exported;
  /// Out: root actions ranked by visit-weighted mean reward, merged across
  /// trees by canonical hash — the "best action" training signal.
  std::vector<RootActionStat> root_actions;
  /// Out: canonical hash of the search's initial state.
  uint64_t root_canonical = 0;
};

/// \brief Knobs of the parallel search runtime.
///
/// `num_threads` independent MCTS trees (root parallelism) share the
/// transposition table, the evaluator's cost memo and the global best
/// tracker; each tree draws from its own RNG stream (`Rng::Split` of the
/// seed). Determinism contract: `num_threads <= 1` runs one tree on the
/// caller's thread and is bit-for-bit reproducible for a fixed seed. With
/// more trees, trajectories are timing-dependent: shared-memo hits consume
/// no RNG draws while misses do, and which tree fills a shared entry first
/// varies run-to-run. Only the seeds, not the trajectories, are
/// reproducible beyond one thread.
struct ParallelOptions {
  /// Search trees: tree 0 on the calling thread, each other tree on a
  /// thread of its own; <= 1 = serial.
  size_t num_threads = 1;
};

/// \brief Options shared by every search algorithm.
struct SearchOptions {
  /// Wall-clock budget; <= 0 means "iteration-capped only" (deterministic
  /// tests use that mode).
  int64_t time_budget_ms = 2000;
  /// Iteration cap; 0 = unlimited.
  size_t max_iterations = 0;
  uint64_t seed = 42;

  // MCTS.
  double exploration_c = 0.5;  ///< UCT exploration constant; rewards live in
                               ///< (0,1] so sqrt(2) over-explores (see
                               ///< bench_ablation for the sweep)
  /// Paper: "perform a random walk ... from all of its immediate neighbor
  /// states", capped at `kMaxExpansionsPerIteration` (mcts.cc) per
  /// iteration. False = standard single-child expansion (ablation).
  bool expand_all_children = true;
  /// Probability that a rollout step draws from the forward (factoring)
  /// rules when any apply; the remainder explores inverse rules. 0.5 is
  /// close to the paper's uniform random walk; higher values focus rollouts
  /// on the factoring chains good interfaces live behind (swept by the
  /// ablation bench).
  double rollout_forward_bias = 0.8;
  /// Probability that a rollout is a *saturation* walk: repeatedly apply the
  /// first forward application (pre-order = shallowest site first) until no
  /// forward rule applies. This is the canonical factoring schedule; mixing
  /// it with random walks gives rollouts a strong baseline while preserving
  /// exploration. 0 recovers the paper's purely random simulation.
  double rollout_saturate_prob = 0.35;
  /// Probability of evaluating an intermediate rollout state. The paper
  /// scores only the rollout terminus; sampling along the walk makes the
  /// reward the best state *seen*, which is what the anytime result tracker
  /// needs (random walks drift, so termini are rarely the walk's best).
  double rollout_eval_prob = 0.25;

  /// Prior-guided selection/expansion (MCTS only; see PriorOptions).
  PriorOptions priors;

  // Greedy / beam.
  size_t beam_width = 8;

  // Exhaustive.
  size_t exhaustive_max_depth = 6;
  size_t exhaustive_max_states = 5000;

  /// Anytime/deadline control (see search/timeman.h). Value-only knobs;
  /// part of the service's options fingerprint. Off by default, in which
  /// case the searchers run the classic time_budget_ms loop and stay
  /// bit-identical to the pre-anytime behavior.
  TimeControlOptions time_control;
  /// External stop flag, shared with CancelJob; the run latches its own
  /// time-control stops into it too. Null = never stopped externally.
  /// Runtime wiring only — NOT part of any cache key or fingerprint.
  std::shared_ptr<StopHandle> stop;
  /// Best-so-far publisher: every accepted improvement streams out as a
  /// versioned event. Null = off. Publishing consumes no RNG draws and
  /// changes no control flow, so attaching a sink never perturbs results.
  std::shared_ptr<ProgressSink> progress;
  /// Warm-start bridge (see WarmStart). Null = off. Runtime wiring only —
  /// NOT part of any cache key or fingerprint; requires state-keyed
  /// sampling (GeneratorOptions::experience) for bit-identity under seeding.
  std::shared_ptr<WarmStart> warm_start;
};

/// \brief (time, cost) samples of the best-so-far curve, for anytime plots.
struct BestTrace {
  int64_t ms = 0;
  size_t iteration = 0;
  double cost = 0.0;
};

/// \brief Instrumentation common to all searchers.
struct SearchStats {
  size_t iterations = 0;
  size_t states_expanded = 0;
  size_t rollouts = 0;
  size_t rollout_steps = 0;
  size_t transposition_hits = 0;
  double initial_cost = 0.0;
  int64_t elapsed_ms = 0;
  /// Search trees contributing to this result (> 1 for root-parallel).
  size_t trees = 1;
  /// Why the loop stopped (kNone only while still running); see timeman.h.
  StopReason stop_reason = StopReason::kNone;
  std::vector<BestTrace> trace;

  // Fanout distribution (number of applicable rules per visited state).
  size_t fanout_samples = 0;
  size_t fanout_sum = 0;
  size_t fanout_max = 0;

  /// Root children granted virtual visits from a WarmStart experience seed.
  size_t root_seeded = 0;

  // Per-rule outcome accumulators, indexed by RuleEngine rule index: how
  // often each rule's application was selected/expanded into a child, and
  // the summed backpropagated reward those children received. Pure
  // bookkeeping (zero RNG draws); the offline prior fitter
  // (learn/prior_fit.h) turns these into learned PriorOptions weights.
  std::vector<uint64_t> rule_uses;
  std::vector<double> rule_reward_sum;

  void RecordRuleOutcome(int rule_index, double reward) {
    if (rule_index < 0) return;
    const size_t idx = static_cast<size_t>(rule_index);
    if (rule_uses.size() <= idx) {
      rule_uses.resize(idx + 1, 0);
      rule_reward_sum.resize(idx + 1, 0.0);
    }
    ++rule_uses[idx];
    rule_reward_sum[idx] += reward;
  }

  void RecordFanout(size_t fanout) {
    ++fanout_samples;
    fanout_sum += fanout;
    if (fanout > fanout_max) fanout_max = fanout;
  }
  double MeanFanout() const {
    return fanout_samples == 0
               ? 0.0
               : static_cast<double>(fanout_sum) / static_cast<double>(fanout_samples);
  }

  /// Folds another tree's stats into this one. Traces are
  /// concatenated and re-sorted by time; because a shared best tracker only
  /// records *global* improvements, the merged trace is again the monotone
  /// best-so-far curve.
  void Merge(const SearchStats& other);
};

/// \brief Outcome of a search: the best difftree found and its sampled cost.
struct SearchResult {
  DiffTree best_tree;
  double best_cost = 0.0;
  SearchStats stats;
  /// Root actions ranked by visit-weighted mean reward (descending), merged
  /// across trees by canonical hash; filled by MCTS, empty for baselines.
  std::vector<RootActionStat> root_actions;
};

/// \brief Everything a rollout needs; lets the rollout helper run as a free
/// function on any thread (every MCTS tree of a root-parallel search runs
/// it, where member functions bound to one searcher would not do).
struct RolloutContext {
  const RuleEngine* rules = nullptr;
  StateEvaluator* evaluator = nullptr;
  const SearchOptions* opts = nullptr;
};

/// \brief The failed picks of one rollout step, as ascending indices into
/// the step's full application list. A draw among the survivors maps past
/// them, so the step picks what erasing each failed pick from a
/// materialized list would pick. A step tries 4 picks, so at most 3 fail
/// before the last one.
struct ErasedPicks {
  static constexpr size_t kMax = 3;
  size_t index[kMax] = {};
  size_t size = 0;

  /// The full-list index of the survivor at position `pick`.
  size_t Remap(size_t pick) const;
  /// Records full-list index `i` (a Remap result) as erased; size < kMax.
  void Erase(size_t i);
};

/// Rollout of up to `kRolloutLen` (200) rule applications that also samples
/// intermediate states for evaluation and always evaluates the terminus;
/// returns the best cost seen below `bound` (`best_state` receives the
/// matching state), or +infinity when no state beats `bound`. Each
/// evaluation is bounded by the best so far (StateEvaluator::SampleCost),
/// so states that cannot beat it are never planned or priced.
/// Thread-compatible: distinct (rng, stats) per caller.
double RolloutAndEvaluateState(const RolloutContext& ctx, const DiffTree& start,
                               Rng* rng, SearchStats* stats, DiffTree* best_state,
                               double bound = std::numeric_limits<double>::infinity());

/// \brief One search run: the machinery every searcher shares across its
/// loop and, for root-parallel MCTS, across its trees.
///
/// It owns the run's clock, its effective deadline (plain time budget vs
/// the deadline's search slice) and stop handle (the caller-supplied one,
/// or a run-local one), the visited-state TranspositionTable, the best
/// tracker that publishes improvements to the progress sink and decides the
/// target-cost and plateau stops, the batched `ifgen_search_*` counter
/// flush, and result assembly. A searcher supplies only its loop body:
///
///   SearchRun run(opts_);
///   run.Start(initial, evaluator_, &rng);
///   while (run.Next(&run.stats())) { ...expand, evaluate, run.Offer(...) }
///   return run.Finish();
///
/// With time control off and no tripped stop handle the guard reduces to
/// the classic deadline/iteration-cap loop, so every RNG draw is unchanged.
/// Thread-safe for the `loops` concurrent loops of one run: each loop keeps
/// its own SearchStats; the best tracker is mutex-guarded.
class SearchRun {
 public:
  /// `loops` concurrent loops (MCTS trees) split `opts.max_iterations`
  /// between them, so total work matches one loop with the same cap; the
  /// wall-clock budget is shared (all loops race one deadline). `opts` must
  /// outlive the run.
  explicit SearchRun(const SearchOptions& opts, size_t loops = 1);

  SearchRun(const SearchRun&) = delete;
  SearchRun& operator=(const SearchRun&) = delete;

  /// Seals `initial` (see Seal; marked KnownNormal when it is in normal
  /// form), samples its cost with `rng`, records it as
  /// stats().initial_cost and offers the state as the first best (trace
  /// entry at iteration 0). Returns the cost.
  double Start(const DiffTree& initial, StateEvaluator* evaluator, Rng* rng);

  /// Loop guard: false when the loop must stop (Stopped(), the plateau
  /// window passed, or `stats->iterations` at the per-loop cap); otherwise
  /// counts one iteration in `stats` and returns true. Every rule is
  /// checked on every call; the clock is read for the plateau only when
  /// `plateau_fraction > 0`.
  bool Next(SearchStats* stats);

  /// True once the effective deadline has passed or a stop was requested
  /// (a reached target, a plateau, a cancel); for checks inside a loop body.
  bool Stopped() const { return deadline_.Expired() || stop_->stop_requested(); }

  /// Records (`tree`, `cost`) if it beats the best so far: appends a trace
  /// entry at `stats->iterations` to `stats`, publishes the improvement to
  /// the progress sink, and latches kTargetCost when `cost` reaches the
  /// target. Returns true on improvement. Thread-safe.
  bool Offer(const DiffTree& tree, double cost, SearchStats* stats);

  /// Visited canonical states, shared by every loop of the run.
  TranspositionTable& tt() { return tt_; }
  /// The run's own stats; a single-loop searcher counts into these.
  SearchStats& stats() { return stats_; }

  /// Assembles the result: the best tree and cost, stats() merged with
  /// `loop_stats` (one entry per concurrent loop, empty for a single-loop
  /// searcher), elapsed time and stop reason. Flushes the run's
  /// `ifgen_search_*` counters.
  SearchResult Finish(const std::vector<SearchStats>& loop_stats = {});

 private:
  const SearchOptions& opts_;
  const size_t loops_;
  size_t loop_cap_ = 0;  ///< per-loop iteration cap; 0 = none
  Stopwatch watch_;
  Deadline deadline_;
  StopHandle local_stop_;
  StopHandle* stop_;  ///< the caller's handle, or &local_stop_
  /// Elapsed ms of the last best-cost improvement; read by every loop.
  std::atomic<int64_t> last_improvement_ms_{0};
  TranspositionTable tt_;
  SearchStats stats_;

  std::mutex best_mu_;
  DiffTree best_tree_;
  double best_cost_ = std::numeric_limits<double>::infinity();
};

/// \brief Base class wiring a searcher to the rule engine and evaluator.
class Searcher {
 public:
  Searcher(const RuleEngine* rules, StateEvaluator* evaluator, SearchOptions opts)
      : rules_(rules), evaluator_(evaluator), opts_(opts) {}
  virtual ~Searcher() = default;

  virtual std::string_view name() const = 0;
  virtual Result<SearchResult> Run(const DiffTree& initial) = 0;

 protected:
  const RuleEngine* rules_;
  StateEvaluator* evaluator_;
  SearchOptions opts_;
};

}  // namespace ifgen
