#include <utility>

#include "rules/rule.h"

namespace ifgen {

namespace {

/// Noop (paper Fig. 5), bidirectional:
///   unwrap (param=0): ANY(x) -> x    (a singleton choice is no choice)
///   wrap   (param=1): x -> ANY(x)    (creates a fixed single-option widget,
///                     rendered as a label; disabled by default because it
///                     applies almost everywhere and inflates fanout)
class NoopRule final : public Rule {
 public:
  std::string_view name() const override { return "Noop"; }

  void Collect(const DiffTree& root, const DiffTree& node, const TreePath& path,
               const RuleSetOptions& opts,
               std::vector<RuleApplication>* out) const override {
    if (node.kind == DKind::kAny && node.children.size() == 1) {
      RuleApplication app;
      app.path = path;
      app.param = 0;
      out->push_back(app);
      return;
    }
    if (opts.enable_noop_wrap && node.kind == DKind::kAll &&
        node.sym != Symbol::kSeq && node.sym != Symbol::kEmpty && !path.empty()) {
      // Skip when the parent is already an ANY (wrapping an alternative in a
      // singleton ANY is never useful and explodes the space).
      TreePath parent_path(path.begin(), path.end() - 1);
      const DiffTree* parent = NodeAt(root, parent_path);
      if (parent != nullptr && parent->kind == DKind::kAny) return;
      RuleApplication app;
      app.path = path;
      app.param = 1;
      out->push_back(app);
    }
  }

  Status ApplyAt(DiffTree* node, const RuleApplication& app,
                 const RuleSetOptions& /*opts*/) const override {
    if (app.param == 0) {
      if (node->kind != DKind::kAny || node->children.size() != 1) {
        return Status::Invalid("Noop: target is not a singleton ANY");
      }
      DiffTree child = std::as_const(*node).children[0];
      *node = std::move(child);
      return Status::OK();
    }
    DiffTree copy = std::move(*node);
    *node = DiffTree::Any({std::move(copy)});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeNoopRule() { return std::make_unique<NoopRule>(); }

}  // namespace ifgen
