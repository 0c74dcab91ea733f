#include <utility>

#include "rules/rule.h"

namespace ifgen {

namespace {

/// Optional (paper Fig. 5), bidirectional:
///   forward  (param=0): ANY(Empty, z)        -> OPT(z)
///                       ANY(Empty, z1, z2..) -> OPT(ANY(z1, z2, ...))
///   backward (param=1): OPT(z)               -> ANY(Empty, z)
class OptionalRule final : public Rule {
 public:
  std::string_view name() const override { return "Optional"; }

  void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const override {
    if (node.kind == DKind::kAny) {
      for (const DiffTree& alt : node.children) {
        if (alt.IsEmptyLeaf()) {
          RuleApplication app;
          app.param = 0;
          out->push_back(app);
          return;
        }
      }
    } else if (node.kind == DKind::kOpt) {
      RuleApplication app;
      app.param = 1;
      out->push_back(app);
    }
  }

  bool IsForward(const RuleApplication& app) const override { return app.param == 0; }

  Status ApplyAt(DiffTree* node, const RuleApplication& app,
                 const RuleSetOptions& /*opts*/) const override {
    if (app.param == 0) {
      const DiffTree& any = *node;  // read-only: its blocks stay shared
      if (any.kind != DKind::kAny) return Status::Invalid("Optional: target not ANY");
      std::vector<DiffTree> non_empty;
      for (const DiffTree& alt : any.children) {
        if (!alt.IsEmptyLeaf()) non_empty.push_back(alt);
      }
      if (non_empty.size() == any.children.size()) {
        return Status::Invalid("Optional: ANY has no Empty alternative");
      }
      if (non_empty.empty()) {
        *node = DiffTree::Empty();
        return Status::OK();
      }
      DiffTree body = non_empty.size() == 1 ? std::move(non_empty[0])
                                            : DiffTree::Any(std::move(non_empty));
      *node = DiffTree::Opt(std::move(body));
      return Status::OK();
    }
    if (node->kind != DKind::kOpt) return Status::Invalid("Optional: target not OPT");
    DiffTree child = std::as_const(*node).children[0];
    *node = DiffTree::Any({DiffTree::Empty(), std::move(child)});
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeOptionalRule() { return std::make_unique<OptionalRule>(); }

}  // namespace ifgen
