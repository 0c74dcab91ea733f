#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "difftree/difftree.h"
#include "util/status.h"

namespace ifgen {

/// \brief One applicable (rule, site) pair — a single edge of the search
/// graph. The number of applications at a state is the state's fanout.
struct RuleApplication {
  int rule_index = -1;  ///< index into RuleEngine::rules()
  TreePath path;        ///< node the rule rewrites
  int param = -1;       ///< rule-specific (alignment mode, child index, ...)
  int param2 = -1;      ///< rule-specific (run length, ...)
};

/// \brief Knobs bounding the rewrite system.
struct RuleSetOptions {
  /// Hard cap on result size; Apply fails beyond it (guards MCTS rollouts).
  size_t max_tree_nodes = 1500;
};

/// \brief A difftree transformation rule (paper, Figure 5).
///
/// Rules enumerate their application sites and rewrite a copy of the tree.
/// Invariant (property-tested): every input query expressible before an
/// application remains expressible after it.
class Rule {
 public:
  virtual ~Rule() = default;

  virtual std::string_view name() const = 0;

  /// Collects the applications rooted at `node`, filling `param`/`param2`;
  /// the engine sets their rule index and path. Called once per node by the
  /// engine's traversal. Reads only `node`'s subtree, so the number of
  /// applications in a subtree depends on nothing else and can be cached on
  /// its block (see RuleEngine::CountApplications).
  virtual void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const = 0;

  /// See RuleEngine::IsForward.
  virtual bool IsForward(const RuleApplication& /*app*/) const { return true; }

  /// Rewrites the node at `app.path`. `*node` is the mutable target inside a
  /// copy of the state that shares every subtree off the path to it; a rule
  /// reads `*node` through const access so the subtrees it keeps stay
  /// shared. The engine normalizes afterwards.
  virtual Status ApplyAt(DiffTree* node, const RuleApplication& app,
                         const RuleSetOptions& opts) const = 0;
};

/// \brief Owns the rule set and provides fanout enumeration + application.
class RuleEngine {
 public:
  explicit RuleEngine(RuleSetOptions opts = {});

  const RuleSetOptions& options() const { return opts_; }
  size_t num_rules() const { return rules_.size(); }
  const Rule& rule(size_t i) const { return *rules_[i]; }
  std::string_view RuleName(const RuleApplication& app) const;

  /// All applicable (rule, site) pairs for `root` in pre-order (at each
  /// node, in rule order); its size is the fanout.
  std::vector<RuleApplication> EnumerateApplications(const DiffTree& root) const;

  /// EnumerateApplications(root).size() and how many of those are forward,
  /// without building the list. Each child list that caches (see ChildList)
  /// keeps its children's counts, so on a state made by Apply from a counted
  /// one this walks little more than the rewritten path.
  ApplicationCount CountApplications(const DiffTree& root) const;

  /// EnumerateApplications(root)[k], or with `forward_only` the k-th forward
  /// application in that order. Descends by the cached counts, so it builds
  /// only the applications at the nodes on the way. `k` must be below the
  /// matching CountApplications(root) figure.
  RuleApplication ApplicationAt(const DiffTree& root, size_t k, bool forward_only) const;

  /// Applies one rewrite, returning the normalized successor state, sealed
  /// (see Seal).
  Result<DiffTree> Apply(const DiffTree& root, const RuleApplication& app) const;

  /// Human-readable description of an application (for traces).
  std::string Describe(const DiffTree& root, const RuleApplication& app) const;

  /// True for "forward" (factoring) applications — Any2All, Lift, Merge,
  /// Multi, Optional(fwd), Noop — versus inverse/expanding ones (All2Any,
  /// Optional(bwd)). Informed rollouts bias toward forward moves; see
  /// SearchOptions::rollout_forward_bias.
  bool IsForward(const RuleApplication& app) const;

 private:
  RuleSetOptions opts_;
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Factory functions for the individual rules (exposed for unit tests).
std::unique_ptr<Rule> MakeAny2AllRule();
std::unique_ptr<Rule> MakeLiftRule();
std::unique_ptr<Rule> MakeMergeRule();
std::unique_ptr<Rule> MakeMultiRule();
std::unique_ptr<Rule> MakeOptionalRule();
std::unique_ptr<Rule> MakeNoopRule();
std::unique_ptr<Rule> MakeAll2AnyRule();

}  // namespace ifgen
