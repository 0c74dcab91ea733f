// The derivation matcher as it was before parses became flat trails: it
// builds each parse as a nested Derivation tree, resizing child vectors as
// it backtracks. Kept as the reference the trail matcher is tested against
// (parse order, step budget, exhaustion). With it, the selection maps the
// transition planner used to compare parses by, kept as the reference the
// StickyState planner is tested against.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "difftree/match.h"
#include "difftree/selection.h"
#include "util/function_ref.h"
#include "util/logging.h"

namespace ifgen {
namespace reference {

/// What one reference search did.
struct MatchRun {
  std::vector<Derivation> parses;  ///< copies, in visit order
  bool exhausted = false;
  size_t steps = 0;
};

class Matcher {
 public:
  using Cont = FunctionRef<bool(size_t)>;

  struct AstList {
    const Ast* data = nullptr;
    size_t count = 0;
    size_t size() const { return count; }
    const Ast& operator[](size_t i) const { return data[i]; }
  };

  explicit Matcher(const MatchOptions& opts) : opts_(opts) {}

  bool exhausted() const { return exhausted_; }
  size_t steps() const { return steps_; }

  bool MatchOne(const DiffTree& node, AstList asts, size_t j, Derivation* deriv,
                const Cont& cont) {
    if (!CountStep()) return false;
    deriv->node = &node;
    deriv->choice = -1;
    switch (node.kind) {
      case DKind::kAll: {
        if (node.sym == Symbol::kEmpty) {
          deriv->children.clear();
          return cont(j);
        }
        if (node.sym == Symbol::kSeq) {
          deriv->children.resize(node.children.size());
          return MatchList(node.children, asts, 0, j, &deriv->children, cont);
        }
        if (!HeadMatches(node, asts, j)) return false;
        const Ast& a = asts[j];
        const AstList sub{a.children.data(), a.children.size()};
        deriv->children.resize(node.children.size());
        return MatchList(node.children, sub, 0, 0, &deriv->children, [&](size_t used) {
          if (used != sub.size()) return false;
          return cont(j + 1);
        });
      }
      case DKind::kAny: {
        deriv->children.resize(1);
        for (size_t alt = 0; alt < node.children.size(); ++alt) {
          const DiffTree& option = node.children[alt];
          if (IsHeadedAll(option) && !HeadMatches(option, asts, j)) {
            if (!CountStep()) return false;
            continue;
          }
          deriv->choice = static_cast<int>(alt);
          if (MatchOne(option, asts, j, &deriv->children[0], cont)) return true;
          if (exhausted_) return false;
        }
        return false;
      }
      case DKind::kOpt: {
        deriv->choice = 1;
        deriv->children.resize(1);
        if (MatchOne(node.children[0], asts, j, &deriv->children[0], cont)) return true;
        if (exhausted_) return false;
        deriv->choice = 0;
        deriv->children.clear();
        return cont(j);
      }
      case DKind::kMulti: {
        deriv->choice = 0;
        deriv->children.clear();
        deriv->children.reserve(opts_.max_multi + 1);
        return MatchMulti(node, asts, j, 0, deriv, cont);
      }
    }
    return false;
  }

  bool MatchList(const ChildList& items, AstList asts, size_t i, size_t j,
                 std::vector<Derivation>* derivs, const Cont& cont) {
    if (i == items.size()) return cont(j);
    return MatchOne(items[i], asts, j, &(*derivs)[i], [&](size_t j2) {
      return MatchList(items, asts, i + 1, j2, derivs, cont);
    });
  }

 private:
  bool CountStep() {
    if (++steps_ > opts_.max_steps) {
      exhausted_ = true;
      return false;
    }
    return true;
  }

  static bool IsHeadedAll(const DiffTree& n) {
    return n.kind == DKind::kAll && n.sym != Symbol::kEmpty && n.sym != Symbol::kSeq;
  }

  static bool HeadMatches(const DiffTree& n, AstList asts, size_t j) {
    return j < asts.size() && asts[j].sym == n.sym && asts[j].value == n.value;
  }

  bool MatchMulti(const DiffTree& node, AstList asts, size_t j, size_t count,
                  Derivation* deriv, const Cont& cont) {
    deriv->choice = static_cast<int>(count);
    deriv->children.resize(count);
    if (cont(j)) return true;
    if (exhausted_ || count >= opts_.max_multi) return false;
    deriv->children.resize(count + 1);
    bool ok = MatchOne(node.children[0], asts, j, &deriv->children[count],
                       [&](size_t j2) {
                         if (j2 == j) return false;
                         return MatchMulti(node, asts, j2, count + 1, deriv, cont);
                       });
    if (!ok) {
      deriv->choice = static_cast<int>(count);
      deriv->children.resize(count);
    }
    return ok;
  }

  const MatchOptions& opts_;
  size_t steps_ = 0;
  bool exhausted_ = false;
};

/// EnumerateDerivations as the reference matcher runs it.
inline MatchRun Enumerate(const DiffTree& root, const Ast& query, size_t limit,
                          const MatchOptions& opts = {}) {
  MatchRun run;
  if (limit == 0) return run;
  Matcher m(opts);
  Derivation scratch;
  m.MatchOne(root, Matcher::AstList{&query, 1}, 0, &scratch, [&](size_t j) {
    if (j != 1) return false;
    run.parses.push_back(scratch);
    return run.parses.size() >= limit;
  });
  run.exhausted = m.exhausted();
  run.steps = m.steps();
  return run;
}

/// MatchQuery as the reference matcher runs it (nullopt when exhausted).
inline std::optional<Derivation> Match(const DiffTree& root, const Ast& query,
                                       const MatchOptions& opts = {}) {
  Matcher m(opts);
  Derivation deriv;
  const bool ok = m.MatchOne(root, Matcher::AstList{&query, 1}, 0, &deriv,
                             [](size_t j) { return j == 1; });
  if (m.exhausted() || !ok) return std::nullopt;
  return deriv;
}

// ---------------------------------------------------------------------------
// Selection maps.

/// \brief The selection a query induces on each *active* widget.
///
/// Maps choice id -> encoded selection. Choice nodes in unchosen ANY
/// branches are absent (the corresponding widgets keep their prior state —
/// "sticky" semantics, matching how a real interface behaves). Choice nodes
/// inside MULTI subtrees are folded into the MULTI's own encoding.
using SelectionMap = std::unordered_map<int, std::string>;

using Positions = std::vector<ChoiceIndex::Position>;

/// Calls visit(child, position) for each child derivation of `d`, whose node
/// sits at position `at`: a node's first child is at the next position, and
/// each later sibling starts where the one before it ends.
template <typename D, typename Visit>
void ForEachChildPosition(const Positions& pos, D& d, int at, Visit&& visit) {
  int child = at + 1;
  switch (d.node->kind) {
    case DKind::kAll:
      // One child derivation per difftree child.
      for (auto& c : d.children) {
        visit(c, child);
        child = pos[static_cast<size_t>(child)].end;
      }
      return;
    case DKind::kAny:
      // The chosen alternative only.
      for (int alt = 0; alt < d.choice; ++alt) child = pos[static_cast<size_t>(child)].end;
      break;
    case DKind::kOpt:    // the child, when present
    case DKind::kMulti:  // one derivation per copy of the one child
      break;
  }
  for (auto& c : d.children) visit(c, child);
}

/// Fills `out` with the selections of `d`, whose node sits at position
/// `at`, in pre-order.
inline void ExtractRec(const Positions& pos, const Derivation& d, int at, bool inside_multi,
                       SelectionMap* out) {
  IFGEN_DCHECK(d.node != nullptr && static_cast<size_t>(at) + 1 < pos.size());
  if (!inside_multi) {
    const int id = pos[static_cast<size_t>(at)].first_id;
    switch (d.node->kind) {
      case DKind::kAny:
        (*out)[id] = "a" + std::to_string(d.choice);
        break;
      case DKind::kOpt:
        (*out)[id] = d.choice != 0 ? "p1" : "p0";
        break;
      case DKind::kMulti:
        // The adder widget's value is the full sub-derivation (count plus
        // every nested choice in every copy).
        (*out)[id] = d.Encode();
        break;
      case DKind::kAll:
        break;
    }
  }
  const bool next_inside = inside_multi || d.node->kind == DKind::kMulti;
  ForEachChildPosition(pos, d, at, [&](const Derivation& c, int child) {
    ExtractRec(pos, c, child, next_inside, out);
  });
}

/// \brief Extracts the selection map from a derivation: one entry per
/// choice node outside MULTI subtrees (a MULTI's own selection covers them),
/// filled in pre-order; a node's id is that of its position in the walk.
inline SelectionMap ExtractSelections(const ChoiceIndex& index, const Derivation& deriv) {
  SelectionMap out;
  ExtractRec(index.positions(), deriv, /*at=*/0, /*inside_multi=*/false, &out);
  return out;
}

/// Number of selections that differ between consecutive queries under sticky
/// semantics: a widget counts as changed when `next` assigns it a value
/// different from its current sticky value in `state`; `state` is updated.
inline size_t CountChangedAndAdvance(const SelectionMap& next, SelectionMap* state,
                                     std::vector<int>* changed_ids = nullptr) {
  size_t changed = 0;
  for (const auto& [id, sel] : next) {
    auto it = state->find(id);
    if (it == state->end() || it->second != sel) {
      ++changed;
      if (changed_ids != nullptr) changed_ids->push_back(id);
      (*state)[id] = sel;
    }
  }
  return changed;
}

}  // namespace reference
}  // namespace ifgen
