#pragma once

#include <unordered_map>
#include <vector>

#include "difftree/difftree.h"
#include "rules/rule.h"
#include "search/search_common.h"
#include "sql/ast.h"

namespace ifgen {

/// Progressive-widening limit: the number of children a node is allowed to
/// have after `visits` visits, ceil(3 * (visits + 1)^0.5) (`kWidenC`,
/// `kWidenAlpha` in priors.cc), clamped to at least 1. Monotone
/// non-decreasing in `visits` (tested), so a node that keeps getting
/// selected keeps unlocking children — in prior order when priors are
/// enabled — while rarely selected high-fanout nodes stop paying for
/// children nothing will ever visit.
size_t ProgressiveWideningLimit(size_t visits);

/// \brief Log-derived per-action priors over rule applications.
///
/// Built once per search from the query log and shared (it is immutable and
/// therefore thread-safe) by every tree of a parallel ensemble. The prior of
/// an application combines three signals:
///
///  1. **Rule type.** Forward/factoring rules (Merge, Lift, Any2All, Multi)
///     are where good interfaces live (the paper's own rollouts are biased
///     the same way); the inverse rule All2Any mostly pays off as an
///     escape. Each rule gets a base weight.
///  2. **Label frequency.** Sites whose subtree mentions symbols/values that
///     occur in many log queries affect more of the log when factored, so
///     they get a boost proportional to the mean normalized frequency of
///     their literal labels.
///  3. **Co-occurrence affinity.** For forward applications at nodes with
///     several children, the mean pairwise co-occurrence of the children's
///     labels across log queries — structure that co-occurs in the log is
///     structure worth factoring together (the paper's "Ongoing Work"
///     co-occurrence proposal, applied at expansion time; cf.
///     core/cooccurrence, which applies the same statistics to widget
///     states).
///
/// `Evaluate` floors each raw score at 0.02 (`kMinPrior`) and normalizes
/// the batch to sum to exactly 1 (tested), so the PUCT exploration term is
/// a proper distribution over the node's actions.
class ActionPriorModel {
 public:
  ActionPriorModel(const RuleEngine& rules, const std::vector<Ast>& queries,
                   const PriorOptions& opts);

  /// Priors for `apps` enumerated at `state`, index-aligned with `apps`.
  /// Non-negative, and sums to 1 unless `apps` is empty. Thread-safe (const,
  /// no interior mutation).
  std::vector<double> Evaluate(const DiffTree& state,
                               const std::vector<RuleApplication>& apps) const;

  /// Base weight of a rule (by RuleEngine index); exposed for tests/bench.
  double RuleWeight(int rule_index) const;

  /// Normalized [0, 1] log frequency of a literal label; 0 when unseen.
  double LabelFrequency(Symbol sym, std::string_view value) const;

  /// Number of log queries the statistics were built from.
  size_t observations() const { return observations_; }

 private:
  /// Site-local signals for one application target (memoized per path by
  /// Evaluate since many rules share a site).
  struct SiteSignal {
    double freq = 0.0;      ///< mean label frequency of the subtree
    double affinity = 0.0;  ///< mean pairwise child co-occurrence
  };
  SiteSignal SignalFor(const DiffTree& site) const;

  const RuleEngine* rules_;
  std::vector<double> rule_weight_;  ///< per RuleEngine rule index
  /// (symbol, value) literal label -> occurrence count over queries.
  std::unordered_map<uint64_t, size_t> single_counts_;
  /// Unordered label pair -> co-occurrence count over queries.
  std::unordered_map<uint64_t, size_t> pair_counts_;
  size_t max_single_ = 1;  ///< normalizer for LabelFrequency
  size_t observations_ = 0;
};

}  // namespace ifgen
