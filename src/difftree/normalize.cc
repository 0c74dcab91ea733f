#include "difftree/normalize.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/string_util.h"

namespace ifgen {

namespace {

/// The node-level rewrite of `n`, whose children are in normal form, or
/// nullopt when none applies. Reads `n` through const access only, so the
/// blocks of a node it keeps stay shared.
std::optional<DiffTree> RewriteNode(const DiffTree& n) {
  switch (n.kind) {
    case DKind::kAll: {
      // Splice Seq children; drop Empty children (they expand to nothing).
      // Most ALL nodes have neither, and keep their child list.
      const bool splice = std::any_of(n.children.begin(), n.children.end(),
                                      [](const DiffTree& c) {
                                        return c.IsSeq() || c.IsEmptyLeaf();
                                      });
      std::optional<DiffTree> out;
      if (splice) {
        std::vector<DiffTree> kids;
        kids.reserve(n.children.size());
        for (const DiffTree& c : n.children) {
          if (c.IsSeq()) {
            kids.insert(kids.end(), c.children.begin(), c.children.end());
          } else if (!c.IsEmptyLeaf()) {
            kids.push_back(c);
          }
        }
        out = DiffTree(n.sym, n.value, std::move(kids));
      }
      const DiffTree& cur = out ? *out : n;
      if (cur.IsSeq()) {
        if (cur.children.empty()) return DiffTree::Empty();
        if (cur.children.size() == 1) return DiffTree(cur.children[0]);
      }
      return out;
    }
    case DKind::kOpt: {
      const DiffTree& c = n.children[0];
      if (c.IsEmptyLeaf()) return DiffTree::Empty();
      if (c.kind == DKind::kOpt || c.kind == DKind::kMulti) return c;
      return std::nullopt;
    }
    case DKind::kMulti: {
      const DiffTree& c = n.children[0];
      if (c.IsEmptyLeaf()) return DiffTree::Empty();
      if (c.kind == DKind::kMulti || c.kind == DKind::kOpt) {
        DiffTree grand = c.children[0];
        DiffTree out = n;
        out.children[0] = std::move(grand);
        return out;
      }
      return std::nullopt;
    }
    case DKind::kAny:
      // Single-child Seq alternatives were already unwrapped by the kAll
      // case on the way up.
      return std::nullopt;
  }
  return std::nullopt;
}

/// Normal form of `n`, or nullopt when `n` already is in it. Only the nodes
/// that change are rebuilt; every other subtree stays shared with `n`. A
/// child list sealed as normal (KnownNormal) is not walked, so normalizing a
/// rule's result walks little more than the rewritten path.
std::optional<DiffTree> NormalizedOrSame(const DiffTree& n) {
  std::optional<DiffTree> out;  // `n` with its changed children, made on the first change
  if (!n.children.KnownNormal()) {
    for (size_t i = 0; i < n.children.size(); ++i) {
      std::optional<DiffTree> c = NormalizedOrSame(n.children[i]);
      if (!c) continue;
      if (!out) out = n;
      out->children[i] = std::move(*c);
    }
  }
  std::optional<DiffTree> rewritten = RewriteNode(out ? *out : n);
  return rewritten ? std::move(rewritten) : std::move(out);
}

bool CheckNode(const DiffTree& n, bool seq_ok, std::string* why) {
  auto fail = [&](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  switch (n.kind) {
    case DKind::kAll:
      if (n.sym == Symbol::kSeq && !seq_ok) {
        return fail("Seq in a position requiring a single node");
      }
      if (n.sym == Symbol::kEmpty && !n.children.empty()) {
        return fail("Empty leaf with children");
      }
      break;
    case DKind::kAny:
      if (n.children.empty()) return fail("ANY with no alternatives");
      break;
    case DKind::kOpt:
    case DKind::kMulti:
      if (n.children.size() != 1) {
        return fail(std::string(DKindName(n.kind)) + " must have exactly 1 child");
      }
      break;
  }
  for (const DiffTree& c : n.children) {
    // Children of choice nodes and of Seq/ALL nodes may denote sequences.
    bool child_seq_ok = n.kind != DKind::kAll || n.sym == Symbol::kSeq ||
                        n.sym != Symbol::kEmpty;
    if (!CheckNode(c, child_seq_ok, why)) return false;
  }
  return true;
}

}  // namespace

void Normalize(DiffTree* tree) {
  if (std::optional<DiffTree> n = NormalizedOrSame(*tree)) *tree = std::move(*n);
}

DiffTree Normalized(DiffTree tree) {
  Normalize(&tree);
  return tree;
}

bool IsWellFormed(const DiffTree& tree, std::string* why) {
  return CheckNode(tree, /*seq_ok=*/true, why);
}

}  // namespace ifgen
