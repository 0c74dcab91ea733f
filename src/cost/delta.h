#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "runtime/tt.h"
#include "widgets/domain.h"
#include "widgets/size_model.h"

namespace ifgen {

/// \brief The subtree-local widget terms of one choice node: everything the
/// evaluator derives from the choice node's subtree alone, independent of
/// the rest of the difftree. A pure function of the subtree, so entries are
/// shared across every state containing an identical subtree — after a rule
/// application, only subtrees along the rewritten path miss the cache.
struct ChoiceWidgetTerms {
  /// What one valid option costs and measures.
  struct Option {
    /// Its size template; the adder's is empty, its box is composed from
    /// its children.
    WidgetTemplate tmpl;
    /// Its M(.) over `domain`. The adder's only ranks it for `min_m_pick`:
    /// a layout's M(.) counts its children.
    double m = 0.0;
  };
  WidgetDomain domain;              ///< ExtractDomain(choice node)
  std::vector<WidgetKind> options;  ///< valid widget kinds (size-checked)
  std::vector<Option> option_terms;  ///< parallel to `options`
  int min_m_pick = 0;               ///< options index minimizing M(.)
  /// OPT: the first label ellipsized for a toggle that has no clause name.
  std::string toggle_label;
  bool viable() const { return !options.empty(); }
};

/// Computes the terms from scratch (the "full re-evaluation" the cache
/// memoizes; also the implementation the ablation flag falls back to).
ChoiceWidgetTerms ComputeChoiceWidgetTerms(const DiffTree& choice_node,
                                           const CostConstants& constants,
                                           const SizeModel& size_model);

/// \brief Delta-cost evaluation caches (see docs/cost-model.md).
///
/// Instead of re-deriving every per-subtree cost contribution for each
/// candidate state, the evaluator memoizes two term classes on the sharded
/// machinery of runtime/tt.h:
///
///  - **Choice widget terms**, keyed by the choice subtree's order-sensitive
///    `DiffTree::Hash()`. One rule application rewrites one site, so every
///    choice subtree off the rewritten path hits the cache and only the
///    touched subtrees are recomputed. The order-sensitive hash (not the
///    canonical one) matters: canonical hashing aliases ANY-alternative
///    orderings, and while every *cost* term is permutation-invariant, the
///    cached `WidgetDomain::labels` are read by index against the node's
///    actual children when widgets are built — an aliased entry would wire
///    labels to the wrong alternatives in the rendered interface.
///  - **Transition plans**, keyed by the full tree's order-sensitive
///    `DiffTree::Hash()` — plans encode choice ids, which are pre-order
///    positions and therefore order-sensitive. This shares the expensive
///    derivation enumeration between SampleCost and FindBest visits to the
///    same state.
///
/// When `enabled` is false (the ablation flag), every call recomputes and
/// nothing is stored; the counters keep counting, so benches can report
/// full-recompute counts for both modes. Cached and recomputed values are
/// the same pure functions, so costs are bit-identical either way (tested).
///
/// Thread-safe: sharded striped locks, atomic counters, first writer wins.
class DeltaCostCache {
 public:
  explicit DeltaCostCache(bool enabled = true, size_t shards = 16)
      : enabled_(enabled), terms_(shards), plans_(shards) {}

  bool enabled() const { return enabled_; }

  /// The choice node's widget terms, from cache when possible. Entries are
  /// shared immutable objects, so a hit copies one pointer under the shard
  /// lock — never the label strings.
  std::shared_ptr<const ChoiceWidgetTerms> GetChoiceTerms(
      const DiffTree& choice_node, const CostConstants& constants,
      const SizeModel& size_model);

  /// Fetches a memoized transition plan; null = caller must compute (and
  /// should StorePlan the result).
  std::shared_ptr<const TransitionPlan> LookupPlan(uint64_t tree_hash) const;
  void StorePlan(uint64_t tree_hash, std::shared_ptr<const TransitionPlan> plan);

  /// Choice-subtree term computations actually performed ("full
  /// recomputes") vs. answered from the cache.
  size_t subtree_recomputes() const {
    return subtree_recomputes_.load(std::memory_order_relaxed);
  }
  size_t subtree_hits() const {
    return subtree_hits_.load(std::memory_order_relaxed);
  }
  /// Transition-plan computations vs. cache answers.
  size_t plan_recomputes() const {
    return plan_recomputes_.load(std::memory_order_relaxed);
  }
  size_t plan_hits() const { return plan_hits_.load(std::memory_order_relaxed); }

 private:
  bool enabled_;
  ShardedMap<std::shared_ptr<const ChoiceWidgetTerms>> terms_;
  ShardedMap<std::shared_ptr<const TransitionPlan>> plans_;
  std::atomic<size_t> subtree_recomputes_{0};
  mutable std::atomic<size_t> subtree_hits_{0};
  mutable std::atomic<size_t> plan_recomputes_{0};  ///< bumped on const miss
  mutable std::atomic<size_t> plan_hits_{0};
};

}  // namespace ifgen
