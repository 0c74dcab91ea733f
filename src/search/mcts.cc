#include "search/mcts.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.h"
#include "search/priors.h"
#include "util/logging.h"

namespace ifgen {

namespace {

// Fixed search constants; docs/search.md gives the reason for each value.
constexpr double kPuctC = 1.2;  ///< PUCT exploration multiplier
/// Neighbors expanded per iteration (inverse rules push fanout to hundreds).
constexpr size_t kMaxExpansionsPerIteration = 24;
/// Difftree nodes the search tree may hold; past it, iterations only roll out.
constexpr size_t kMaxSearchTreePayload = 600000;

/// \brief Per-tree wiring for one MCTS tree run (see RunMctsTree).
///
/// Everything the trees of one search share — clock, deadline, stop handle,
/// transposition table and best tracker — lives in the SearchRun; `rng`, `stats` and `root_actions` are strictly per-tree.
struct MctsTreeParams {
  const RuleEngine* rules = nullptr;
  StateEvaluator* evaluator = nullptr;
  const SearchOptions* opts = nullptr;
  SearchRun* run = nullptr;
  Rng* rng = nullptr;            ///< per-tree stream (never shared)
  SearchStats* stats = nullptr;  ///< per-tree (merged by SearchRun::Finish)
  /// Log-derived action priors (PUCT selection + prior-ordered expansion).
  /// Null = uniform treatment (the paper's UCT). Immutable, so all trees
  /// share one model.
  const ActionPriorModel* priors = nullptr;
  /// Reward-normalization anchor: the initial state's sampled cost, computed
  /// once by the caller so every tree normalizes rewards identically.
  double anchor_cost = 0.0;
  /// Receives (canonical, visits, total_reward) of every root child after
  /// the run — the raw material for root-action merging.
  std::vector<RootActionStat>* root_actions = nullptr;
  /// Experience seed (WarmStart::experience_seed): root children whose
  /// canonical hash matches an entry start with capped virtual visits +
  /// reward. Null or empty = off, and the loop draws the same RNG stream.
  const std::vector<TtSeedEntry>* experience_seed = nullptr;
};

struct Node {
  DiffTree state;
  uint64_t canonical = 0;
  Node* parent = nullptr;
  double total_reward = 0.0;
  size_t visits = 0;
  std::vector<RuleApplication> apps;
  /// Index-aligned with `apps` (sorted together); empty when priors are off.
  std::vector<double> priors;
  /// Prior of the application that created this node (PUCT's P term).
  double prior = 0.0;
  /// RuleEngine index of the application that created this node (-1 for the
  /// root); feeds the per-rule outcome accumulators the prior fitter reads.
  int rule_index = -1;
  bool apps_ready = false;
  size_t next_untried = 0;
  /// Fully expanded, childless (or all children dead): selection skips it.
  bool dead = false;
  std::vector<std::unique_ptr<Node>> children;
};

double Uct(const SearchOptions& opts, const Node& child, size_t parent_visits) {
  if (child.visits == 0) return std::numeric_limits<double>::infinity();
  double exploit = child.total_reward / static_cast<double>(child.visits);
  double explore = opts.exploration_c *
                   std::sqrt(std::log(static_cast<double>(parent_visits)) /
                             static_cast<double>(child.visits));
  return exploit + explore;
}

/// PUCT (prior-weighted UCT): exploration is proportional to the action
/// prior, so low-prior children need strong observed rewards to keep being
/// selected. Fresh children are simulated at expansion, so visits >= 1 here.
double Puct(const Node& child, size_t parent_visits) {
  double exploit = child.visits == 0
                       ? 0.0
                       : child.total_reward / static_cast<double>(child.visits);
  double explore = kPuctC * child.prior *
                   std::sqrt(static_cast<double>(parent_visits)) /
                   (1.0 + static_cast<double>(child.visits));
  return exploit + explore;
}

/// Number of `apps` entries the node may consume given its visit count:
/// everything without widening, the widening schedule's limit with it.
size_t UnlockedApps(const SearchOptions& opts, const Node& node) {
  if (!opts.priors.progressive_widening) return node.apps.size();
  return std::min(node.apps.size(),
                  ProgressiveWideningLimit(node.visits));
}

/// Merges per-tree root actions by canonical hash and ranks them by
/// visit-weighted mean reward desc, then visits desc, then canonical asc.
std::vector<RootActionStat> MergeRootActions(
    const std::vector<std::vector<RootActionStat>>& per_tree) {
  std::unordered_map<uint64_t, RootActionStat> merged;
  for (const auto& actions : per_tree) {
    for (const RootActionStat& a : actions) {
      RootActionStat& m = merged[a.canonical];
      m.canonical = a.canonical;
      m.visits += a.visits;
      m.total_reward += a.total_reward;
    }
  }
  std::vector<RootActionStat> out;
  out.reserve(merged.size());
  for (const auto& [key, a] : merged) out.push_back(a);
  std::sort(out.begin(), out.end(), [](const RootActionStat& a, const RootActionStat& b) {
    const double ma = a.MeanReward(), mb = b.MeanReward();
    if (ma != mb) return ma > mb;
    if (a.visits != b.visits) return a.visits > b.visits;
    return a.canonical < b.canonical;
  });
  return out;
}

/// Runs one MCTS tree to its deadline/iteration budget. The algorithm is
/// the paper's (see MctsSearcher); MctsSearcher::Run calls it once per tree.
void RunMctsTree(const DiffTree& initial, const MctsTreeParams& p) {
  Rng& rng = *p.rng;
  SearchStats& stats = *p.stats;
  const SearchOptions& opts = *p.opts;
  SearchRun& run = *p.run;
  const RolloutContext rctx{p.rules, p.evaluator, &opts};

  // Normalization anchor; a state with cost c receives reward c0/(c0+c).
  const double c0 =
      std::isfinite(p.anchor_cost) ? std::max(1.0, p.anchor_cost) : 100.0;
  auto reward_of = [&](double cost) {
    if (!std::isfinite(cost)) return 0.0;
    return c0 / (c0 + cost);
  };

  // Application lists are enumerated lazily (first selection visit): most
  // nodes are never selected again, and eager enumeration of hundreds of
  // applications per child dominated memory.
  size_t payload_nodes = initial.NodeCount();
  auto ensure_apps = [&](Node* node) {
    if (node->apps_ready) return;
    node->apps = p.rules->EnumerateApplications(node->state);
    rng.Shuffle(&node->apps);  // expansion order should not bias the search
    if (p.priors != nullptr && !node->apps.empty()) {
      // Prior-ordered expansion: highest prior first, shuffled ties (the
      // stable sort keeps the shuffle's order among equal priors), so
      // progressive widening unlocks the most promising actions first.
      node->priors = p.priors->Evaluate(node->state, node->apps);
      std::vector<size_t> order(node->apps.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return node->priors[a] > node->priors[b];
      });
      std::vector<RuleApplication> apps(node->apps.size());
      std::vector<double> priors(node->apps.size());
      for (size_t i = 0; i < order.size(); ++i) {
        apps[i] = std::move(node->apps[order[i]]);
        priors[i] = node->priors[order[i]];
      }
      node->apps = std::move(apps);
      node->priors = std::move(priors);
    }
    stats.RecordFanout(node->apps.size());
    node->apps_ready = true;
  };

  // Rewards stay in tree-local nodes (root-action merging reads them via
  // root_actions); a shared table would put a lock per ancestor per
  // iteration on the hottest loop.
  auto backprop = [&](Node* from, double r) {
    obs::TraceSpan span("mcts.backprop", "search");
    for (Node* n = from; n != nullptr; n = n->parent) {
      ++n->visits;
      n->total_reward += r;
    }
  };

  obs::TraceSpan tree_span("mcts.tree", "search");

  auto root = std::make_unique<Node>();
  root->state = initial;
  root->canonical = initial.CanonicalHash();
  ensure_apps(root.get());
  run.tt().Visit(root->canonical);

  // Persisted experience: root children matching a seed entry start with
  // capped virtual visits and the seed cost's reward, steering early PUCT
  // selection toward previously good actions. Pure bookkeeping — no RNG
  // draws — so an absent (or empty) seed leaves the run bit-identical.
  std::unordered_map<uint64_t, const TtSeedEntry*> exp_seed;
  if (p.experience_seed != nullptr) {
    exp_seed.reserve(p.experience_seed->size());
    for (const TtSeedEntry& e : *p.experience_seed) exp_seed.emplace(e.canonical, &e);
  }
  auto seed_root_child = [&](Node* child) {
    if (exp_seed.empty() || child->parent != root.get()) return;
    auto it = exp_seed.find(child->canonical);
    if (it == exp_seed.end()) return;
    const uint64_t v = std::min<uint64_t>(std::max<uint64_t>(it->second->visits, 1),
                                          WarmStart::kRootVisitCap);
    child->visits += v;
    child->total_reward += static_cast<double>(v) * reward_of(it->second->cost);
    ++stats.root_seeded;
  };

  while (run.Next(&stats)) {
    // 1. Selection: descend by UCT (PUCT with priors) while the widening
    // schedule offers no unexpanded action at the node.
    Node* node = root.get();
    {
      obs::TraceSpan span("mcts.select", "search");
      while (true) {
        ensure_apps(node);
        if (node->next_untried < UnlockedApps(opts, *node) ||
            node->children.empty()) {
          break;
        }
        Node* picked = nullptr;
        double best_score = -1.0;
        for (const auto& ch : node->children) {
          if (ch->dead) continue;
          double u = p.priors != nullptr
                         ? Puct(*ch, std::max<size_t>(1, node->visits))
                         : Uct(opts, *ch, std::max<size_t>(1, node->visits));
          if (u > best_score) {
            best_score = u;
            picked = ch.get();
          }
        }
        if (picked == nullptr) break;  // all children dead
        node = picked;
      }
    }

    // 2. Expansion (bounded per iteration, by the widening schedule, and by
    // the payload budget). With priors, apps are in prior order, so widening
    // unlocks the most promising neighbors first.
    std::vector<Node*> fresh;
    if (payload_nodes < kMaxSearchTreePayload) {
      obs::TraceSpan span("mcts.expand", "search");
      size_t unlocked = UnlockedApps(opts, *node);
      size_t available = unlocked > node->next_untried ? unlocked - node->next_untried : 0;
      size_t expansions =
          opts.expand_all_children ? available : std::min<size_t>(1, available);
      expansions = std::min(expansions, kMaxExpansionsPerIteration);
      for (size_t e = 0; e < expansions; ++e) {
        const size_t app_index = node->next_untried++;
        const RuleApplication& app = node->apps[app_index];
        auto applied = p.rules->Apply(node->state, app);
        if (!applied.ok()) continue;
        auto child = std::make_unique<Node>();
        child->state = std::move(applied).MoveValueUnsafe();
        child->canonical = child->state.CanonicalHash();
        child->parent = node;
        child->prior = node->priors.empty() ? 0.0 : node->priors[app_index];
        child->rule_index = app.rule_index;
        seed_root_child(child.get());
        if (!run.tt().Visit(child->canonical)) {
          ++stats.transposition_hits;
        }
        ++stats.states_expanded;
        payload_nodes += child->state.NodeCount();
        fresh.push_back(child.get());
        node->children.push_back(std::move(child));
        if (run.Stopped() || payload_nodes >= kMaxSearchTreePayload) break;
      }
    }

    if (fresh.empty()) {
      if (node->apps.empty() && node->children.empty()) {
        // True terminal: no applicable rules at all. Evaluate once, mark
        // dead so selection stops revisiting, and propagate death upward.
        double cost = p.evaluator->SampleCost(node->state, &rng);
        run.Offer(node->state, cost, &stats);
        node->dead = true;
        for (Node* n = node->parent; n != nullptr; n = n->parent) {
          if (!n->apps_ready || n->next_untried < n->apps.size()) break;
          bool all_dead = true;
          for (const auto& ch : n->children) all_dead &= ch->dead;
          if (!all_dead) break;
          n->dead = true;
        }
        stats.RecordRuleOutcome(node->rule_index, reward_of(cost));
        backprop(node, reward_of(cost));
        if (root->dead) break;  // the whole space is exhausted
      } else {
        // Payload budget reached (or every application failed): keep
        // learning by rolling out from the selected node itself.
        DiffTree rollout_best;
        double cost =
            RolloutAndEvaluateState(rctx, node->state, &rng, &stats, &rollout_best);
        run.Offer(rollout_best, cost, &stats);
        stats.RecordRuleOutcome(node->rule_index, reward_of(cost));
        backprop(node, reward_of(cost));
      }
      continue;
    }

    // 3.-5. Simulation from each fresh child + backpropagation. The child's
    // own (memoized) evaluation also feeds the global best tracker.
    obs::TraceSpan sim_span("mcts.simulate", "search");
    for (Node* child : fresh) {
      const double child_cost = p.evaluator->SampleCost(child->state, &rng);
      run.Offer(child->state, child_cost, &stats);

      // Only a rollout cost below the child's can change the reward or the
      // best, so the rollout skips pricing states that cannot beat it (while
      // costs are >= 0, where reward_of decreases).
      DiffTree rollout_best;
      double roll_cost = RolloutAndEvaluateState(
          rctx, child->state, &rng, &stats, &rollout_best,
          child_cost >= 0.0 ? child_cost : std::numeric_limits<double>::infinity());
      run.Offer(rollout_best, roll_cost, &stats);

      const double r = std::max(reward_of(child_cost), reward_of(roll_cost));
      stats.RecordRuleOutcome(child->rule_index, r);
      backprop(child, r);
      if (run.Stopped()) break;
    }
  }

  for (const auto& ch : root->children) {
    p.root_actions->push_back({ch->canonical, ch->visits, ch->total_reward});
  }
}

}  // namespace

Result<SearchResult> MctsSearcher::Run(const DiffTree& initial) {
  const size_t trees = std::max<size_t>(1, parallel_.num_threads);
  SearchRun run(opts_, trees);
  // One prior model for all trees: it is immutable after construction, and
  // building it once keeps every tree's expansion order coherent.
  std::unique_ptr<ActionPriorModel> priors;
  if (opts_.priors.use_priors) {
    priors = std::make_unique<ActionPriorModel>(*rules_, evaluator_->queries(),
                                                opts_.priors);
  }

  // Invariant: the anchor (every tree's reward normalizer) is sampled
  // before any seed enters the memo, so a seed for the initial state can
  // never stand in for its own sampled cost.
  Rng anchor_rng(opts_.seed);
  const double c0 = run.Start(initial, evaluator_, &anchor_rng);

  // Warm start: experience records (first writer wins in the memo). Sound
  // only under state-keyed sampling, where a seeded hit returns exactly the
  // value a fresh sample would. Seeded states also count as known:
  // expanding one is a transposition hit.
  WarmStart* warm = opts_.warm_start.get();
  std::unordered_set<uint64_t> seeded;
  if (warm != nullptr) {
    for (const TtSeedEntry& e : warm->experience_seed) {
      evaluator_->SeedCost(e.canonical, e.cost);
      if (std::isfinite(e.cost)) seeded.insert(e.canonical);
    }
    for (uint64_t key : seeded) run.tt().Visit(key);
  }

  // Invariant: a single tree continues the anchor's stream, so it draws
  // exactly what one serial loop seeded with `opts_.seed` draws; with more
  // trees, tree t draws from Split(t), which depends on the seed alone.
  std::vector<Rng> rngs;
  for (size_t t = 0; t < trees; ++t) {
    rngs.push_back(trees == 1 ? anchor_rng : anchor_rng.Split(t));
  }
  std::vector<SearchStats> tree_stats(trees);
  std::vector<std::vector<RootActionStat>> tree_actions(trees);

  auto run_tree = [&](size_t t) {
    MctsTreeParams params;
    params.rules = rules_;
    params.evaluator = evaluator_;
    params.opts = &opts_;
    params.run = &run;
    params.rng = &rngs[t];
    params.stats = &tree_stats[t];
    params.priors = priors.get();
    params.anchor_cost = c0;
    params.root_actions = &tree_actions[t];
    params.experience_seed = warm != nullptr ? &warm->experience_seed : nullptr;
    RunMctsTree(initial, params);
  };
  // Tree 0 runs on the calling thread (so one tree starts no thread, and
  // its spans reach the caller's trace sink); trees 1..n-1 get one thread
  // each.
  std::vector<std::thread> helpers;
  helpers.reserve(trees - 1);
  for (size_t t = 1; t < trees; ++t) helpers.emplace_back(run_tree, t);
  run_tree(0);
  for (std::thread& h : helpers) h.join();

  SearchResult result = run.Finish(tree_stats);
  // Duplicate-canonical root children (two actions reaching one state)
  // merge into one action, for one tree as for many.
  result.root_actions = MergeRootActions(tree_actions);

  if (warm != nullptr) {
    // Invariant: the export is every visited state (the root and every
    // expanded child) with a finite memo cost that is not among this run's
    // finite seed entries, canonical ascending, capped at kExportLimit — so
    // a one-tree run exports the root's own cost too. Visits are not
    // tracked per state, so exported entries carry 0.
    warm->exported.clear();
    for (uint64_t key : run.tt().Keys()) {
      if (warm->exported.size() == WarmStart::kExportLimit) break;
      if (seeded.count(key) != 0) continue;
      const std::optional<double> cost = evaluator_->MemoCost(key);
      if (cost.has_value() && std::isfinite(*cost)) {
        warm->exported.push_back({key, *cost, 0});
      }
    }
    warm->root_actions = result.root_actions;
    warm->root_canonical = initial.CanonicalHash();
  }
  return result;
}

}  // namespace ifgen
