#include "rules/rule.h"

namespace ifgen {

namespace {

/// Lift (paper Fig. 5): factors the shared root out of an ANY without
/// aligning the bodies: ANY(z(A...), z(B...)) -> z(ANY(Seq(A...), Seq(B...))).
/// Compared to Any2All this keeps whole-body alternatives — the layout that
/// renders as one "mode" widget (e.g. tabs or one dropdown per query body)
/// instead of one widget per varying child.
class LiftRule final : public Rule {
 public:
  std::string_view name() const override { return "Lift"; }

  void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const override {
    if (node.kind != DKind::kAny || node.children.size() < 2) return;
    const DiffTree& first = node.children[0];
    if (first.kind != DKind::kAll || first.sym == Symbol::kSeq ||
        first.sym == Symbol::kEmpty) {
      return;
    }
    // At least one alternative must have >= 2 children, otherwise Lift
    // degenerates to Any2All's single column.
    bool worthwhile = false;
    for (const DiffTree& alt : node.children) {
      if (alt.kind != DKind::kAll || alt.sym != first.sym || alt.value != first.value) {
        return;
      }
      worthwhile |= alt.children.size() >= 2;
    }
    if (!worthwhile) return;
    RuleApplication app;
    out->push_back(app);
  }

  Status ApplyAt(DiffTree* node, const RuleApplication& /*app*/,
                 const RuleSetOptions& /*opts*/) const override {
    const DiffTree& any = *node;  // read-only: its blocks stay shared
    if (any.kind != DKind::kAny || any.children.size() < 2) {
      return Status::Invalid("Lift: target is not a multi-alternative ANY");
    }
    DiffTree result(any.children[0].sym, any.children[0].value);
    std::vector<DiffTree> bodies;
    bodies.reserve(any.children.size());
    for (const DiffTree& alt : any.children) {
      DiffTree body = alt.children.empty() ? DiffTree::Empty() : DiffTree::Seq(alt.children);
      // Deduplicate identical bodies — they would be pure redundancy in the
      // widget domain (distinct from Merge, which dedups whole alternatives).
      bool seen = false;
      for (const DiffTree& b : bodies) {
        if (b == body) {
          seen = true;
          break;
        }
      }
      if (!seen) bodies.push_back(std::move(body));
    }
    if (bodies.size() == 1) {
      result.children.push_back(std::move(bodies[0]));
    } else {
      result.children.push_back(DiffTree::Any(std::move(bodies)));
    }
    *node = std::move(result);
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeLiftRule() { return std::make_unique<LiftRule>(); }

}  // namespace ifgen
