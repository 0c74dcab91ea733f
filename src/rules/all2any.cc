#include "rules/rule.h"

namespace ifgen {

namespace {

/// All2Any copies the host once per alternative; cap the growth at 4x.
constexpr size_t kAll2AnyMaxAlts = 4;

/// All2Any — the inverse direction of Any2All/Lift (the paper's rules are
/// bidirectional). Distributes an ALL node over one of its ANY children:
///
///   ALL(z, [.., ANY(a, b), ..]) -> ANY(ALL(z, [.., a, ..]), ALL(z, [.., b, ..]))
///
/// Language-exact. This lets the search *coarsen* an interface again (e.g.
/// collapse fine-grained widgets back into a per-query mode switch), which
/// is how it escapes local minima.
class All2AnyRule final : public Rule {
 public:
  std::string_view name() const override { return "All2Any"; }

  void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const override {
    if (node.kind != DKind::kAll || node.sym == Symbol::kEmpty) return;
    for (size_t i = 0; i < node.children.size(); ++i) {
      const DiffTree& c = node.children[i];
      if (c.kind == DKind::kAny && c.children.size() >= 2 &&
          c.children.size() <= kAll2AnyMaxAlts) {
        RuleApplication app;
        app.param = static_cast<int>(i);
        out->push_back(app);
      }
    }
  }

  bool IsForward(const RuleApplication& /*app*/) const override { return false; }

  Status ApplyAt(DiffTree* node, const RuleApplication& app,
                 const RuleSetOptions& /*opts*/) const override {
    const DiffTree& all = *node;  // read-only: its blocks stay shared
    if (all.kind != DKind::kAll) return Status::Invalid("All2Any: target not ALL");
    size_t idx = static_cast<size_t>(app.param);
    if (idx >= all.children.size() || all.children[idx].kind != DKind::kAny) {
      return Status::Invalid("All2Any: selected child is not an ANY");
    }
    const DiffTree& any = all.children[idx];
    // Every host shares the other siblings' subtrees.
    std::vector<DiffTree> alts;
    alts.reserve(any.children.size());
    for (const DiffTree& option : any.children) {
      std::vector<DiffTree> kids = all.children.view();
      kids[idx] = option;
      alts.emplace_back(all.sym, all.value, std::move(kids));
    }
    *node = DiffTree::Any(std::move(alts));
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeAll2AnyRule() { return std::make_unique<All2AnyRule>(); }

}  // namespace ifgen
