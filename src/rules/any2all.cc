#include "rules/align.h"
#include "rules/rule.h"
#include "util/string_util.h"

namespace ifgen {

namespace {

/// Any2All (paper Fig. 5): an ANY whose alternatives all share the same root
/// ALL node is rewritten into that ALL node with per-column choice children.
/// `param` selects the alignment mode: 0 = symbol-LCS (unmatched children
/// become optional), 1 = positional (children pair up by index — this is
/// what merges `objid` and `count(*)` into one widget domain, Fig. 6a).
class Any2AllRule final : public Rule {
 public:
  std::string_view name() const override { return "Any2All"; }

  void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const override {
    if (node.kind != DKind::kAny || node.children.size() < 2) return;
    const DiffTree& first = node.children[0];
    if (first.kind != DKind::kAll || first.sym == Symbol::kSeq ||
        first.sym == Symbol::kEmpty) {
      return;
    }
    for (const DiffTree& alt : node.children) {
      if (alt.kind != DKind::kAll || alt.sym != first.sym || alt.value != first.value) {
        return;
      }
    }
    // Childless alternatives (identical leaves) leave nothing to align.
    bool any_children = false;
    for (const DiffTree& alt : node.children) any_children |= !alt.children.empty();
    if (!any_children) return;

    RuleApplication lcs;
    lcs.param = 0;
    out->push_back(lcs);
    // Positional alignment only differs when some alternative's child
    // symbols diverge; suppress the duplicate application otherwise.
    bool symbols_uniform = true;
    for (const DiffTree& alt : node.children) {
      if (alt.children.size() != first.children.size()) {
        symbols_uniform = false;
        break;
      }
      for (size_t j = 0; j < alt.children.size(); ++j) {
        if (AlignKey(alt.children[j]) != AlignKey(first.children[j])) {
          symbols_uniform = false;
          break;
        }
      }
      if (!symbols_uniform) break;
    }
    if (!symbols_uniform) {
      RuleApplication pos;
      pos.param = 1;
      out->push_back(pos);
    }
  }

  Status ApplyAt(DiffTree* node, const RuleApplication& app,
                 const RuleSetOptions& /*opts*/) const override {
    const DiffTree& any = *node;  // read-only: its blocks stay shared
    if (any.kind != DKind::kAny || any.children.size() < 2) {
      return Status::Invalid("Any2All: target is not a multi-alternative ANY");
    }
    std::vector<const std::vector<DiffTree>*> alt_children;
    alt_children.reserve(any.children.size());
    for (const DiffTree& alt : any.children) {
      alt_children.push_back(&alt.children.view());
    }
    // Per-thread scratch: every application on this thread reuses it.
    thread_local Alignment alignment;
    if (app.param == 1) {
      AlignByPosition(alt_children, &alignment);
    } else {
      AlignBySymbol(alt_children, &alignment);
    }
    std::vector<DiffTree> kids;
    kids.reserve(alignment.columns());
    for (size_t c = 0; c < alignment.columns(); ++c) {
      kids.push_back(ColumnToNode(alt_children, alignment, c));
    }
    *node = DiffTree(any.children[0].sym, any.children[0].value, std::move(kids));
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeAny2AllRule() { return std::make_unique<Any2AllRule>(); }

}  // namespace ifgen
