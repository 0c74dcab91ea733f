#include "baseline/bottom_up.h"

#include <algorithm>

#include "difftree/normalize.h"
#include "interface/assignment.h"
#include "rules/align.h"
#include "util/logging.h"
#include "widgets/appropriateness.h"

namespace ifgen {

namespace {

/// Recursively merges a set of (all-ALL) difftrees into one difftree,
/// factoring greedily at every level — the bottom-up "group differences by
/// AST location" strategy.
DiffTree MergeNodes(const std::vector<const DiffTree*>& nodes) {
  IFGEN_CHECK(!nodes.empty());
  // Distinct nodes only.
  std::vector<const DiffTree*> distinct;
  for (const DiffTree* n : nodes) {
    bool seen = false;
    for (const DiffTree* d : distinct) {
      if (*d == *n) {
        seen = true;
        break;
      }
    }
    if (!seen) distinct.push_back(n);
  }
  if (distinct.size() == 1) return *distinct[0];

  // Same root (symbol + value): align children by symbol and merge columns
  // recursively.
  const DiffTree* first = distinct[0];
  bool same_root = first->kind == DKind::kAll && first->sym != Symbol::kSeq &&
                   first->sym != Symbol::kEmpty;
  for (const DiffTree* n : distinct) {
    same_root &= n->kind == DKind::kAll && n->sym == first->sym &&
                 n->value == first->value;
  }
  if (!same_root) {
    std::vector<DiffTree> alts;
    for (const DiffTree* n : distinct) alts.push_back(*n);
    return DiffTree::Any(std::move(alts));
  }

  std::vector<const std::vector<DiffTree>*> alt_children;
  for (const DiffTree* n : distinct) alt_children.push_back(&n->children.view());
  // Each level of the recursion holds its own alignment.
  Alignment alignment;
  AlignBySymbol(alt_children, &alignment);
  DiffTree result(first->sym, first->value);
  for (size_t c = 0; c < alignment.columns(); ++c) {
    const uint32_t* entry = alignment.column(c);
    std::vector<const DiffTree*> entries;
    bool missing = false;
    for (size_t a = 0; a < alignment.alts; ++a) {
      if (entry[a] != Alignment::kAbsent) {
        entries.push_back(&(*alt_children[a])[entry[a]]);
      } else {
        missing = true;
      }
    }
    DiffTree merged = MergeNodes(entries);
    if (missing) {
      if (merged.kind == DKind::kAny) {
        merged.children.push_back(DiffTree::Empty());
      } else {
        merged = DiffTree::Any({std::move(merged), DiffTree::Empty()});
      }
    }
    result.children.push_back(std::move(merged));
  }
  return result;
}

}  // namespace

Result<DiffTree> BottomUpMerge(const std::vector<Ast>& queries) {
  if (queries.empty()) return Status::Invalid("no queries");
  std::vector<DiffTree> trees;
  trees.reserve(queries.size());
  for (const Ast& q : queries) trees.push_back(DiffTree::FromAst(q));
  std::vector<const DiffTree*> ptrs;
  ptrs.reserve(trees.size());
  for (const DiffTree& t : trees) ptrs.push_back(&t);
  return Normalized(MergeNodes(ptrs));
}

Result<BottomUpResult> RunBottomUpBaseline(const std::vector<Ast>& queries,
                                           const CostConstants& constants,
                                           Screen screen) {
  IFGEN_ASSIGN_OR_RETURN(DiffTree tree, BottomUpMerge(queries));
  WidgetAssigner assigner(tree, constants);
  if (!assigner.viable()) {
    return Status::Invalid("bottom-up difftree has an unmappable choice node");
  }
  // Min-M pick per choice widget; everything else takes the first option
  // (vertical layouts, separate widgets — the baseline knows no layout).
  Assignment a = assigner.MinAppropriatenessAssignment();
  IFGEN_ASSIGN_OR_RETURN(WidgetTree wt, assigner.Build(a));
  // Score with the full model for comparability; note the baseline itself
  // never looked at U(.) or the screen. Sealed, the planner reads cached
  // choice counts instead of recounting subtrees; the value is unchanged.
  // BottomUpMerge returns a normalized tree.
  Seal(tree, /*normal=*/true);
  CostModel model(constants, screen);
  BottomUpResult out;
  out.cost = model.Evaluate(tree, &wt, queries);
  out.difftree = std::move(tree);
  out.widgets = std::move(wt);
  return out;
}

}  // namespace ifgen
