#include <utility>

#include "difftree/normalize.h"
#include "rules/rule.h"
#include "util/logging.h"
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

/// The applications rooted at `node`, in rule order, with their rule index
/// set and an empty path.
void CollectAt(const std::vector<std::unique_ptr<Rule>>& rules, const DiffTree& node,
               std::vector<RuleApplication>* out) {
  for (size_t r = 0; r < rules.size(); ++r) {
    const size_t before = out->size();
    rules[r]->Collect(node, out);
    for (size_t k = before; k < out->size(); ++k) {
      (*out)[k].rule_index = static_cast<int>(r);
    }
  }
}

void CollectRec(const std::vector<std::unique_ptr<Rule>>& rules, const DiffTree& node,
                TreePath* path, std::vector<RuleApplication>* out) {
  const size_t before = out->size();
  CollectAt(rules, node, out);
  for (size_t k = before; k < out->size(); ++k) (*out)[k].path = *path;
  for (size_t i = 0; i < node.children.size(); ++i) {
    path->push_back(static_cast<int>(i));
    CollectRec(rules, node.children[i], path, out);
    path->pop_back();
  }
}

/// Per-thread buffer for the applications at one node; the count and the
/// descent use it one node at a time, so no call nests in another's use.
std::vector<RuleApplication>& NodeScratch() {
  thread_local std::vector<RuleApplication> scratch;
  scratch.clear();
  return scratch;
}

}  // namespace

std::vector<RuleApplication> RuleEngine::EnumerateApplications(
    const DiffTree& root) const {
  std::vector<RuleApplication> out;
  TreePath path;
  CollectRec(rules_, root, &path, &out);
  return out;
}

ApplicationCount RuleEngine::CountApplications(const DiffTree& root) const {
  ApplicationCount count;
  std::vector<RuleApplication>& here = NodeScratch();
  CollectAt(rules_, root, &here);
  count.total = static_cast<uint32_t>(here.size());
  for (const RuleApplication& app : here) count.forward += IsForward(app) ? 1 : 0;
  auto subtree = [this](const DiffTree& kid) { return CountApplications(kid); };
  if (const ChildFacts* f = root.children.CountedFacts(subtree)) {
    for (size_t i = 0; i < root.children.size(); ++i) count += f[i].apps;
  } else {
    for (const DiffTree& kid : root.children) count += subtree(kid);
  }
  return count;
}

RuleApplication RuleEngine::ApplicationAt(const DiffTree& root, size_t k,
                                          bool forward_only) const {
  auto subtree = [this](const DiffTree& kid) { return CountApplications(kid); };
  // Serial sdss searches (seeds 1-8, cap 900) reach states 17 levels deep,
  // so a path to one of their nodes holds at most 16 indices.
  constexpr size_t kPathReserve = 16;
  TreePath path;
  path.reserve(kPathReserve);
  const DiffTree* node = &root;
  while (true) {
    std::vector<RuleApplication>& here = NodeScratch();
    CollectAt(rules_, *node, &here);
    for (RuleApplication& app : here) {
      if (forward_only && !IsForward(app)) continue;
      if (k-- > 0) continue;
      app.path = std::move(path);
      return std::move(app);
    }
    const ChildFacts* f = node->children.CountedFacts(subtree);
    const size_t n = node->children.size();
    size_t i = 0;
    for (; i < n; ++i) {
      const ApplicationCount c = f != nullptr ? f[i].apps : subtree(node->children[i]);
      const size_t in_child = forward_only ? c.forward : c.total;
      if (k < in_child) break;
      k -= in_child;
    }
    IFGEN_CHECK_LT(i, n) << " application index past the count";
    path.push_back(static_cast<int>(i));
    node = &node->children[i];
  }
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
  // Sealed first: Seal fills the new blocks' facts, which the size check and
  // the counts and hashes of the state read next. Every block is in normal
  // form now, so the next Apply's Normalize skips the ones sealed here.
  Seal(next, /*normal=*/true);
  if (next.NodeCount() > opts_.max_tree_nodes) {
    return Status::ResourceExhausted(
        StrFormat("result tree exceeds %zu nodes", opts_.max_tree_nodes));
  }
  return next;
}

bool RuleEngine::IsForward(const RuleApplication& app) const {
  if (app.rule_index < 0 || static_cast<size_t>(app.rule_index) >= rules_.size()) {
    return true;  // an unknown rule (RuleName "?") is not an inverse
  }
  return rules_[static_cast<size_t>(app.rule_index)]->IsForward(app);
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
