#include "difftree/normalize.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace ifgen {

namespace {

void NormalizeRec(DiffTree* n) {
  for (DiffTree& c : n->children) NormalizeRec(&c);

  switch (n->kind) {
    case DKind::kAll: {
      // Splice Seq children; drop Empty children (they expand to nothing).
      // Most ALL nodes have neither, and keep their children vector.
      const bool splice = std::any_of(n->children.begin(), n->children.end(),
                                      [](const DiffTree& c) {
                                        return c.IsSeq() || c.IsEmptyLeaf();
                                      });
      if (splice) {
        std::vector<DiffTree> kids;
        kids.reserve(n->children.size());
        for (DiffTree& c : n->children) {
          if (c.IsSeq()) {
            for (DiffTree& gc : c.children) kids.push_back(std::move(gc));
          } else if (!c.IsEmptyLeaf()) {
            kids.push_back(std::move(c));
          }
        }
        n->children = std::move(kids);
      }
      if (n->IsSeq()) {
        if (n->children.empty()) {
          *n = DiffTree::Empty();
        } else if (n->children.size() == 1) {
          DiffTree only = std::move(n->children[0]);
          *n = std::move(only);
        }
      }
      break;
    }
    case DKind::kOpt: {
      DiffTree& c = n->children[0];
      if (c.IsEmptyLeaf()) {
        *n = DiffTree::Empty();
      } else if (c.kind == DKind::kOpt) {
        DiffTree inner = std::move(c);
        *n = std::move(inner);
      } else if (c.kind == DKind::kMulti) {
        DiffTree inner = std::move(c);
        *n = std::move(inner);
      }
      break;
    }
    case DKind::kMulti: {
      DiffTree& c = n->children[0];
      if (c.IsEmptyLeaf()) {
        *n = DiffTree::Empty();
      } else if (c.kind == DKind::kMulti || c.kind == DKind::kOpt) {
        DiffTree grand = std::move(c.children[0]);
        n->children[0] = std::move(grand);
      }
      break;
    }
    case DKind::kAny: {
      // Unwrap single-child Seq alternatives (Seq of one == the one).
      // (Already handled by the kAll case via recursion.)
      break;
    }
  }
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

void Normalize(DiffTree* tree) { NormalizeRec(tree); }

DiffTree Normalized(DiffTree tree) {
  Normalize(&tree);
  return tree;
}

bool IsWellFormed(const DiffTree& tree, std::string* why) {
  return CheckNode(tree, /*seq_ok=*/true, why);
}

}  // namespace ifgen
