// Seeded rollout states shared by the cost and rules tests.
#pragma once

#include <vector>

#include "core/options.h"
#include "difftree/builder.h"
#include "difftree/normalize.h"
#include "rules/rule.h"
#include "util/rng.h"

namespace ifgen {

/// Seeded rollout states: random rule applications from the initial tree,
/// drawn among the forward ones with probability `forward_bias`, restarting
/// after 14 steps or at a dead end.
inline std::vector<DiffTree> RolloutStates(const std::vector<Ast>& queries, uint64_t seed,
                                           size_t n, double forward_bias) {
  const RuleEngine rules(GeneratorOptions().rules);
  const DiffTree initial = *BuildInitialTree(queries);
  Rng rng(seed);
  std::vector<DiffTree> states;
  DiffTree s = initial;
  size_t depth = 0;
  while (states.size() < n) {
    states.push_back(s);
    std::vector<RuleApplication> apps = rules.EnumerateApplications(s);
    std::vector<RuleApplication> forward;
    for (const RuleApplication& a : apps) {
      if (rules.IsForward(a)) forward.push_back(a);
    }
    std::vector<RuleApplication>* pool =
        !forward.empty() && rng.Bernoulli(forward_bias) ? &forward : &apps;
    bool advanced = false;
    while (!pool->empty() && !advanced) {
      const size_t pick = rng.UniformIndex(pool->size());
      auto next = rules.Apply(s, (*pool)[pick]);
      if (next.ok()) {
        s = std::move(next).MoveValueUnsafe();
        advanced = true;
      } else {
        pool->erase(pool->begin() + static_cast<long>(pick));
      }
    }
    if (!advanced || ++depth == 14) {
      s = initial;
      depth = 0;
    }
  }
  return states;
}

/// A copy of `n` that shares no block with it (or with anything else), so
/// its hashes and counts are computed without any cache.
inline DiffTree DeepCopy(const DiffTree& n) {
  std::vector<DiffTree> kids;
  kids.reserve(n.children.size());
  for (const DiffTree& c : n.children) kids.push_back(DeepCopy(c));
  DiffTree out(n.kind, std::move(kids));
  out.sym = n.sym;
  out.value = n.value;
  return out;
}

/// Seals `t` as SearchRun::Start seals its initial state: marked normal
/// exactly when it is in normal form.
inline void SealCheckingNormal(const DiffTree& t) { Seal(t, Normalized(t) == t); }

/// Number of nodes with children in `n` whose child list is not marked
/// normal.
inline size_t UnmarkedLists(const DiffTree& n) {
  size_t unmarked = !n.children.empty() && !n.children.KnownNormal() ? 1 : 0;
  for (const DiffTree& c : n.children) unmarked += UnmarkedLists(c);
  return unmarked;
}

/// A copy of `n` like DeepCopy, with every ANY's alternatives shuffled:
/// the same CanonicalHash, usually another Hash.
inline DiffTree ShuffleAnys(const DiffTree& n, Rng* rng) {
  std::vector<DiffTree> kids;
  kids.reserve(n.children.size());
  for (const DiffTree& c : n.children) kids.push_back(ShuffleAnys(c, rng));
  if (n.kind == DKind::kAny) rng->Shuffle(&kids);
  DiffTree out(n.kind, std::move(kids));
  out.sym = n.sym;
  out.value = n.value;
  return out;
}

}  // namespace ifgen
