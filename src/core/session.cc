#include "core/session.h"

#include "difftree/normalize.h"
#include "sql/unparser.h"
#include "util/logging.h"

namespace ifgen {

namespace {

/// A choice inside a MULTI's copies has no sticky code of its own: the
/// MULTI's value sequence covers it, so an event on it re-interns the code
/// of every MULTI whose copies hold it from its edited derivation.
void ResetEnclosingCodes(const std::vector<EnclosingMulti>& enclosing, StickyState* sticky) {
  for (const EnclosingMulti& m : enclosing) sticky->SetMultiCode(m.id, *m.derivation);
}

}  // namespace

InterfaceSession::InterfaceSession(DiffTree tree, WidgetTree wt,
                                   CostConstants constants)
    : tree_(std::make_unique<DiffTree>(std::move(tree))),
      widget_tree_(std::make_unique<WidgetTree>(std::move(wt))),
      constants_(std::move(constants)),
      index_(std::make_unique<ChoiceIndex>(*tree_)),
      sticky_(*tree_) {
  Seal(*tree_, Normalized(*tree_) == *tree_);
  Flatten(widget_tree_->root, &layout_);
}

Result<InterfaceSession> InterfaceSession::Create(const GeneratedInterface& iface,
                                                  const CostConstants& constants) {
  InterfaceSession session(iface.difftree, iface.widgets, constants);
  // NOTE: widget_tree_ choice ids were assigned against iface.difftree; the
  // session's copy has identical structure, so pre-order ids agree.
  if (!iface.queries.empty()) {
    auto report = session.LoadQuery(iface.queries[0]);
    IFGEN_RETURN_NOT_OK(report.status());
  }
  return session;
}

Result<InterfaceSession::StepReport> InterfaceSession::LoadQuery(const Ast& query) {
  std::vector<int> changed_ids;
  ParseTrail chosen;
  if (!sticky_.Step(*tree_, query, kParseLimit, &changed_ids, &chosen)) {
    return Status::NotFound("query is not expressible by this interface");
  }
  current_ = DerivationOf(*tree_, chosen);
  has_current_ = true;
  return PriceChange(changed_ids);
}

InterfaceSession::StepReport InterfaceSession::PriceChange(
    const std::vector<int>& changed_ids) {
  StepReport report;
  report.widgets_changed = changed_ids.size();
  PriceTransition(&layout_, changed_ids, constants_, &report.interaction_cost,
                  &report.navigation_cost);
  return report;
}

Result<std::vector<InterfaceSession::StepReport>> InterfaceSession::ReplayLog(
    const std::vector<Ast>& queries) {
  std::vector<StepReport> reports;
  reports.reserve(queries.size());
  for (const Ast& q : queries) {
    IFGEN_ASSIGN_OR_RETURN(StepReport r, LoadQuery(q));
    reports.push_back(r);
  }
  return reports;
}

Status InterfaceSession::SetAnyChoice(int choice_id, int option_index) {
  if (!has_current_) return Status::Invalid("session has no current query");
  if (choice_id < 0 || static_cast<size_t>(choice_id) >= index_->size()) {
    return Status::OutOfRange("bad choice id");
  }
  const DiffTree* node = index_->node(static_cast<size_t>(choice_id));
  if (node->kind != DKind::kAny) return Status::Invalid("choice is not an ANY");
  if (option_index < 0 ||
      static_cast<size_t>(option_index) >= node->children.size()) {
    return Status::OutOfRange("bad option index");
  }
  std::vector<EnclosingMulti> enclosing;
  Derivation* active = FindChoice(*index_, &current_, choice_id, &enclosing);
  if (active == nullptr) {
    return Status::Invalid("widget is not active in the current query");
  }
  active->choice = option_index;
  active->children.assign(
      1, DefaultDerivation(node->children[static_cast<size_t>(option_index)]));
  sticky_.SetCode(choice_id, option_index);
  ResetEnclosingCodes(enclosing, &sticky_);
  return Status::OK();
}

Status InterfaceSession::SetOptPresent(int choice_id, bool present) {
  if (!has_current_) return Status::Invalid("session has no current query");
  if (choice_id < 0 || static_cast<size_t>(choice_id) >= index_->size()) {
    return Status::OutOfRange("bad choice id");
  }
  const DiffTree* node = index_->node(static_cast<size_t>(choice_id));
  if (node->kind != DKind::kOpt) return Status::Invalid("choice is not an OPT");
  std::vector<EnclosingMulti> enclosing;
  Derivation* active = FindChoice(*index_, &current_, choice_id, &enclosing);
  if (active == nullptr) {
    return Status::Invalid("widget is not active in the current query");
  }
  active->choice = present ? 1 : 0;
  if (present) {
    active->children.assign(1, DefaultDerivation(node->children[0]));
  } else {
    active->children.clear();
  }
  sticky_.SetCode(choice_id, present ? 1 : 0);
  ResetEnclosingCodes(enclosing, &sticky_);
  return Status::OK();
}

Status InterfaceSession::SetMultiCount(int choice_id, size_t count) {
  if (!has_current_) return Status::Invalid("session has no current query");
  if (choice_id < 0 || static_cast<size_t>(choice_id) >= index_->size()) {
    return Status::OutOfRange("bad choice id");
  }
  const DiffTree* node = index_->node(static_cast<size_t>(choice_id));
  if (node->kind != DKind::kMulti) return Status::Invalid("choice is not a MULTI");
  if (count > kMaxMultiCount) {
    return Status::OutOfRange("multi count " + std::to_string(count) +
                              " exceeds maximum " + std::to_string(kMaxMultiCount));
  }
  std::vector<EnclosingMulti> enclosing;
  Derivation* active = FindChoice(*index_, &current_, choice_id, &enclosing);
  if (active == nullptr) {
    return Status::Invalid("widget is not active in the current query");
  }
  active->choice = static_cast<int>(count);
  active->children.assign(count, DefaultDerivation(node->children[0]));
  sticky_.SetMultiCode(choice_id, *active);
  ResetEnclosingCodes(enclosing, &sticky_);
  return Status::OK();
}

Result<Ast> InterfaceSession::CurrentQuery() const {
  if (!has_current_) return Status::Invalid("session has no current query");
  return MaterializeDerivation(current_);
}

Result<std::string> InterfaceSession::CurrentSql() const {
  IFGEN_ASSIGN_OR_RETURN(Ast q, CurrentQuery());
  return Unparse(q);
}

Result<Table> InterfaceSession::ExecuteCurrent(ExecutionBackend* backend) const {
  if (backend == nullptr) return Status::Invalid("null backend");
  IFGEN_ASSIGN_OR_RETURN(Ast q, CurrentQuery());
  return backend->Execute(q);
}

}  // namespace ifgen
