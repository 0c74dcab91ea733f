#include <algorithm>
#include <utility>

#include "rules/align.h"
#include "rules/rule.h"

namespace ifgen {

namespace {

/// Grammar gate: only node kinds that may legitimately appear a variable
/// number of times in a query qualify for MULTI (predicates, select items,
/// order keys, list elements, tables). Clauses like Where/Top/Project occur
/// at most once — repeating them would leave SQL's grammar entirely.
bool MayRepeat(const DiffTree& elem) {
  if (elem.kind != DKind::kAll) return false;
  switch (elem.sym) {
    case Symbol::kBetween:
    case Symbol::kBiExpr:
    case Symbol::kIn:
    case Symbol::kNot:
    case Symbol::kColExpr:
    case Symbol::kNumExpr:
    case Symbol::kStrExpr:
    case Symbol::kFuncExpr:
    case Symbol::kAlias:
    case Symbol::kStar:
    case Symbol::kOrderKey:
    case Symbol::kTable:
      return true;
    default:
      return false;
  }
}

/// Multi (paper Fig. 5): the only non-bidirectional rule — it *grows* the
/// expressible language. Two patterns:
///
///  (a) Run: an ALL/Seq node with a run of >= 2 consecutive structurally
///      identical children x,x,..,x replaces the run with MULTI(x).
///      `param` = run start, `param2` = run length.
///  (b) Repeat-union: an ANY whose alternatives are sequences of elements
///      that all share the same alignment key (e.g. all rooted at Between)
///      becomes MULTI(element-union). This is what turns per-query predicate
///      lists into an "adder" widget. `param` = -1 marks this pattern.
class MultiRule final : public Rule {
 public:
  std::string_view name() const override { return "Multi"; }

  void Collect(const DiffTree& node, std::vector<RuleApplication>* out) const override {
    CollectRuns(node, out);
    CollectRepeatUnion(node, out);
  }

  Status ApplyAt(DiffTree* node, const RuleApplication& app,
                 const RuleSetOptions& /*opts*/) const override {
    if (app.param >= 0) return ApplyRun(node, app);
    return ApplyRepeatUnion(node);
  }

 private:
  static void CollectRuns(const DiffTree& node, std::vector<RuleApplication>* out) {
    if (node.kind != DKind::kAll || node.sym == Symbol::kEmpty) return;
    size_t i = 0;
    while (i < node.children.size()) {
      size_t run = 1;
      while (i + run < node.children.size() &&
             node.children[i + run] == node.children[i]) {
        ++run;
      }
      if (run >= 2 && MayRepeat(node.children[i])) {
        RuleApplication app;
        app.param = static_cast<int>(i);
        app.param2 = static_cast<int>(run);
        out->push_back(app);
      }
      i += run;
    }
  }

  static Status ApplyRun(DiffTree* node, const RuleApplication& app) {
    const ChildList& kids = std::as_const(*node).children;
    if (node->kind != DKind::kAll) return Status::Invalid("Multi: target not ALL");
    size_t start = static_cast<size_t>(app.param);
    size_t len = static_cast<size_t>(app.param2);
    if (start + len > kids.size() || len < 2) {
      return Status::Invalid("Multi: bad run bounds");
    }
    for (size_t k = 1; k < len; ++k) {
      if (!(kids[start + k] == kids[start])) {
        return Status::Invalid("Multi: run is not uniform");
      }
    }
    DiffTree rep = DiffTree::Multi(kids[start]);
    std::vector<DiffTree>& mut = node->children.Mutable();
    mut.erase(mut.begin() + static_cast<long>(start + 1),
              mut.begin() + static_cast<long>(start + len));
    mut[start] = std::move(rep);
    return Status::OK();
  }

  /// An alternative is a list of elements: none for an Empty leaf, a Seq's
  /// children, else the alternative itself. ElementCount and ElementAt read
  /// that list in place.
  static size_t ElementCount(const DiffTree& alt) {
    if (alt.IsEmptyLeaf()) return 0;
    return alt.IsSeq() ? alt.children.size() : 1;
  }

  static const DiffTree& ElementAt(const DiffTree& alt, size_t i) {
    return alt.IsSeq() ? alt.children[i] : alt;
  }

  /// Runs on every ANY of every enumerated state, so it builds no lists.
  static void CollectRepeatUnion(const DiffTree& node, std::vector<RuleApplication>* out) {
    if (node.kind != DKind::kAny || node.children.size() < 2) return;
    const size_t first_count = ElementCount(node.children[0]);
    bool varying_count = false;
    size_t total = 0;
    const DiffTree* first = nullptr;
    for (const DiffTree& alt : node.children) {
      const size_t count = ElementCount(alt);
      if (count != first_count) varying_count = true;
      if (first == nullptr && count > 0) first = &ElementAt(alt, 0);
      total += count;
    }
    if (total < 2) return;
    if (!MayRepeat(*first)) return;
    const uint64_t key = AlignKey(*first);
    for (const DiffTree& alt : node.children) {
      for (size_t i = 0, n = ElementCount(alt); i < n; ++i) {
        if (AlignKey(ElementAt(alt, i)) != key) return;
      }
    }
    // Only propose when repetition is actually present (count variation or
    // a run within an alternative); otherwise Any2All covers it better.
    bool has_run = false;
    for (const DiffTree& alt : node.children) {
      if (alt.IsSeq() && alt.children.size() >= 2) has_run = true;
    }
    if (!varying_count && !has_run) return;
    RuleApplication app;
    app.param = -1;
    out->push_back(app);
  }

  static Status ApplyRepeatUnion(DiffTree* node) {
    const DiffTree& any = *node;  // read-only: its blocks stay shared
    if (any.kind != DKind::kAny) return Status::Invalid("Multi: target not ANY");
    std::vector<DiffTree> distinct;
    for (const DiffTree& alt : any.children) {
      for (size_t i = 0, n = ElementCount(alt); i < n; ++i) {
        const DiffTree& e = ElementAt(alt, i);
        if (std::find(distinct.begin(), distinct.end(), e) == distinct.end()) {
          distinct.push_back(e);
        }
      }
    }
    if (distinct.empty()) return Status::Invalid("Multi: no elements");
    DiffTree body = distinct.size() == 1 ? std::move(distinct[0])
                                         : DiffTree::Any(std::move(distinct));
    *node = DiffTree::Multi(std::move(body));
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Rule> MakeMultiRule() { return std::make_unique<MultiRule>(); }

}  // namespace ifgen
