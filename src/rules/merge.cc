#include "rules/rule.h"

namespace ifgen {

namespace {

/// Merge (paper Fig. 5): removes structurally duplicate alternatives of an
/// ANY node. Language-exact. The inverse (duplicating an alternative) is
/// pure redundancy and is intentionally not generated.
class MergeRule final : public Rule {
 public:
  std::string_view name() const override { return "Merge"; }

  void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const override {
    if (node.kind != DKind::kAny || node.children.size() < 2) return;
    // Cached hashes rule out most pairs without walking them.
    const ChildFacts* facts = node.children.facts();
    for (size_t i = 0; i < node.children.size(); ++i) {
      for (size_t j = i + 1; j < node.children.size(); ++j) {
        if (facts != nullptr && facts[i].hash != facts[j].hash) continue;
        if (node.children[i] == node.children[j]) {
          RuleApplication app;
          out->push_back(app);
          return;
        }
      }
    }
  }

  Status ApplyAt(DiffTree* node, const RuleApplication& /*app*/,
                 const RuleSetOptions& /*opts*/) const override {
    const DiffTree& any = *node;  // read-only: its blocks stay shared
    if (any.kind != DKind::kAny) {
      return Status::Invalid("Merge: target is not an ANY");
    }
    std::vector<DiffTree> kept;
    kept.reserve(any.children.size());
    for (const DiffTree& alt : any.children) {
      bool seen = false;
      for (const DiffTree& k : kept) {
        if (k == alt) {
          seen = true;
          break;
        }
      }
      if (!seen) kept.push_back(alt);
    }
    if (kept.size() == any.children.size()) {
      return Status::Invalid("Merge: no duplicate alternatives");
    }
    if (kept.size() == 1) {
      *node = std::move(kept[0]);  // collapsing a singleton ANY
    } else {
      node->children = std::move(kept);
    }
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeMergeRule() { return std::make_unique<MergeRule>(); }

}  // namespace ifgen
