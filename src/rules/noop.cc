#include <utility>

#include "rules/rule.h"

namespace ifgen {

namespace {

/// Noop (paper Fig. 5), unwrap direction only: ANY(x) -> x (a singleton
/// choice is no choice). The wrap direction x -> ANY(x) would apply almost
/// everywhere, inflate fanout and only add fixed single-option widgets, so
/// the rule set leaves it out.
class NoopRule final : public Rule {
 public:
  std::string_view name() const override { return "Noop"; }

  void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const override {
    if (node.kind == DKind::kAny && node.children.size() == 1) {
      RuleApplication app;
      app.param = 0;
      out->push_back(app);
    }
  }

  Status ApplyAt(DiffTree* node, const RuleApplication& /*app*/,
                 const RuleSetOptions& /*opts*/) const override {
    if (node->kind != DKind::kAny || node->children.size() != 1) {
      return Status::Invalid("Noop: target is not a singleton ANY");
    }
    DiffTree child = std::as_const(*node).children[0];
    *node = std::move(child);
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeNoopRule() { return std::make_unique<NoopRule>(); }

}  // namespace ifgen
