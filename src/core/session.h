#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/interface_generator.h"
#include "cost/cost_model.h"
#include "difftree/match.h"
#include "difftree/selection.h"
#include "engine/backend.h"
#include "engine/executor.h"
#include "util/status.h"

namespace ifgen {

/// \brief The interactive runtime: simulates a user driving a generated
/// interface. Widgets implement w(q, u) -> q' (paper, "Widgets"): setting a
/// widget replaces the subtree at that widget's difftree location, and the
/// current query is re-materialized (and optionally re-executed).
///
/// The session owns copies of the difftree and widget tree; derivations
/// point into the session's own difftree. Its sticky widget state is a
/// StickyState, the planner the search prices interfaces with, so a load
/// moves the same widgets at the same cost as U(.) assumes.
class InterfaceSession {
 public:
  /// Builds a session positioned at the interface's first query.
  static Result<InterfaceSession> Create(const GeneratedInterface& iface,
                                         const CostConstants& constants);

  /// \brief Effort report for one interaction step or query load.
  struct StepReport {
    size_t widgets_changed = 0;
    double interaction_cost = 0.0;
    double navigation_cost = 0.0;
    double total() const { return interaction_cost + navigation_cost; }
  };

  /// Moves the widgets to express `query` (min-change), returning the
  /// effort; fails when the interface cannot express it.
  Result<StepReport> LoadQuery(const Ast& query);

  /// The effort of changing the widgets of `changed_ids` (PriceTransition
  /// on this session's widget tree); widgets_changed is their count.
  StepReport PriceChange(const std::vector<int>& changed_ids);

  /// Replays a whole log, returning per-step efforts (first step free).
  Result<std::vector<StepReport>> ReplayLog(const std::vector<Ast>& queries);

  /// Widget manipulation by choice id — the w(q,u) -> q' interface.
  Status SetAnyChoice(int choice_id, int option_index);
  Status SetOptPresent(int choice_id, bool present);
  Status SetMultiCount(int choice_id, size_t count);

  /// Upper bound on a MULTI widget's repeat count. A MULTI's count is the
  /// number of repeated clause children (predicates, aggregate terms, ...),
  /// single digits in any real interface; SetMultiCount rejects anything
  /// larger before the count-sized allocation so an untrusted count (e.g.
  /// from the wire) cannot drive an unbounded allocation.
  static constexpr size_t kMaxMultiCount = 1024;

  /// The query currently expressed by the widgets.
  Result<Ast> CurrentQuery() const;
  Result<std::string> CurrentSql() const;

  /// Executes the current query through an execution backend; repeated
  /// widget transitions hit the backend's plan cache (same query shape,
  /// new literal bindings). Backend selection comes from
  /// GeneratorOptions::backend (see CreateBackend /
  /// GenerationService::BackendFor).
  Result<Table> ExecuteCurrent(ExecutionBackend* backend) const;

  const DiffTree& difftree() const { return *tree_; }
  const WidgetTree& widgets() const { return *widget_tree_; }

 private:
  InterfaceSession(DiffTree tree, WidgetTree wt, CostConstants constants);

  // The trees and index live behind stable pointers: derivations and the
  // choice index point into tree nodes, the flat layout into widget nodes,
  // and sessions are movable values.
  std::unique_ptr<DiffTree> tree_;  ///< sealed, so planning reads cached counts
  std::unique_ptr<WidgetTree> widget_tree_;
  CostConstants constants_;
  std::unique_ptr<ChoiceIndex> index_;
  FlatLayout layout_;  ///< widget_tree_ flattened once, for pricing
  StickyState sticky_;
  Derivation current_;
  bool has_current_ = false;
};

}  // namespace ifgen
