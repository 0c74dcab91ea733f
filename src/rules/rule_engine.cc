#include <utility>

#include "difftree/normalize.h"
#include "rules/rule.h"
#include "util/string_util.h"

namespace ifgen {

RuleEngine::RuleEngine(RuleSetOptions opts) : opts_(opts) {
  rules_.push_back(MakeAny2AllRule());
  rules_.push_back(MakeLiftRule());
  rules_.push_back(MakeMergeRule());
  rules_.push_back(MakeMultiRule());
  rules_.push_back(MakeOptionalRule());
  rules_.push_back(MakeNoopRule());
  rules_.push_back(MakeAll2AnyRule());
}

std::string_view RuleEngine::RuleName(const RuleApplication& app) const {
  if (app.rule_index < 0 || static_cast<size_t>(app.rule_index) >= rules_.size()) {
    return "?";
  }
  return rules_[static_cast<size_t>(app.rule_index)]->name();
}

namespace {

void CollectRec(const std::vector<std::unique_ptr<Rule>>& rules,
                const RuleSetOptions& opts, const DiffTree& root, const DiffTree& node,
                TreePath* path, std::vector<RuleApplication>* out) {
  for (size_t r = 0; r < rules.size(); ++r) {
    size_t before = out->size();
    rules[r]->Collect(root, node, *path, opts, out);
    for (size_t k = before; k < out->size(); ++k) {
      (*out)[k].rule_index = static_cast<int>(r);
    }
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    path->push_back(static_cast<int>(i));
    CollectRec(rules, opts, root, node.children[i], path, out);
    path->pop_back();
  }
}

}  // namespace

std::vector<RuleApplication> RuleEngine::EnumerateApplications(
    const DiffTree& root) const {
  std::vector<RuleApplication> out;
  TreePath path;
  CollectRec(rules_, opts_, root, root, &path, &out);
  return out;
}

Result<DiffTree> RuleEngine::Apply(const DiffTree& root,
                                   const RuleApplication& app) const {
  if (app.rule_index < 0 || static_cast<size_t>(app.rule_index) >= rules_.size()) {
    return Status::Invalid("bad rule index");
  }
  DiffTree next = root;  // shares every block; MutableNodeAt copies the path
  DiffTree* target = MutableNodeAt(&next, app.path);
  if (target == nullptr) {
    return Status::Invalid("rule application path no longer valid");
  }
  IFGEN_RETURN_NOT_OK(
      rules_[static_cast<size_t>(app.rule_index)]->ApplyAt(target, app, opts_));
  Normalize(&next);
  if (next.NodeCount() > opts_.max_tree_nodes) {
    return Status::ResourceExhausted(
        StrFormat("result tree exceeds %zu nodes", opts_.max_tree_nodes));
  }
  return next;
}

bool RuleEngine::IsForward(const RuleApplication& app) const {
  std::string_view name = RuleName(app);
  if (name == "All2Any") return false;
  if (name == "Optional" || name == "Noop") return app.param == 0;
  return true;  // Any2All, Lift, Merge, Multi
}

std::string RuleEngine::Describe(const DiffTree& root,
                                 const RuleApplication& app) const {
  const DiffTree* node = NodeAt(root, app.path);
  std::string where = node != nullptr ? DiffTreeLabel(*node, 32) : "<invalid>";
  std::string path_str;
  for (int i : app.path) path_str += "/" + std::to_string(i);
  if (path_str.empty()) path_str = "/";
  return StrFormat("%s@%s (%s)", std::string(RuleName(app)).c_str(), path_str.c_str(),
                   where.c_str());
}

}  // namespace ifgen
