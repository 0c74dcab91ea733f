#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "difftree/difftree.h"
#include "sql/ast.h"
#include "util/function_ref.h"

namespace ifgen {

/// \brief A derivation explains *how* a difftree expresses a concrete AST:
/// which alternative each ANY picked, whether each OPT is present, and how
/// many copies each MULTI produced.
///
/// The derivation mirrors the difftree: `node` points into the difftree the
/// query was matched against (so derivations are invalidated by tree edits).
struct Derivation {
  const DiffTree* node = nullptr;
  /// kAny: index of the chosen alternative. kOpt: 1 if present else 0.
  /// kMulti: repetition count. kAll: unused (-1).
  int choice = -1;
  /// kAll: one per difftree child. kAny: single entry (the chosen
  /// alternative's derivation). kOpt: one entry if present. kMulti: one
  /// entry per repetition.
  std::vector<Derivation> children;

  /// Canonical encoding of every choice made in this derivation subtree;
  /// two derivations encode equal iff they make identical choices.
  std::string Encode() const;
};

/// \brief Limits for the backtracking matcher.
struct MatchOptions {
  /// Backtracking step budget. Exceeding it makes MatchQuery report
  /// no-match (logged) and ForEachParse / EnumerateDerivations stop
  /// after the parses found so far; each bumps
  /// `ifgen_match_budget_exhausted_total`.
  size_t max_steps = 2'000'000;
  /// Maximum repetitions a MULTI may consume.
  size_t max_multi = 24;
};

/// \brief Matches `query` against the difftree. Returns the first-found
/// derivation (deterministic: alternatives are tried in order, OPT prefers
/// absent-last, MULTI prefers fewer copies) or nullopt when inexpressible.
std::optional<Derivation> MatchQuery(const DiffTree& root, const Ast& query,
                                     const MatchOptions& opts = {});

/// \brief One choice of a parse: a choice node's positional id (ChoiceIndex
/// numbering) and the value it takes there.
struct ParseStep {
  int32_t id;
  /// kAny: index of the chosen alternative. kOpt: 1 if present else 0.
  /// kMulti: repetition count.
  int32_t value;
  /// kMulti: one past the trail index of the last step inside its copies,
  /// so the steps after it up to `end` are its sub-trail. 0 for kAny/kOpt.
  uint32_t end;
};

/// \brief A parse as a flat pre-order trail: one step per choice node the
/// parse passes through, the copies of a MULTI one after another after the
/// MULTI's own step. For a fixed tree the trail determines the derivation
/// (see DerivationOf), and vice versa.
using ParseTrail = std::vector<ParseStep>;

/// Receives the matcher's live trail at each complete parse; true stops the
/// search.
using ParseVisitor = FunctionRef<bool(const ParseTrail&)>;

/// \brief Hands up to `limit` distinct parses of `query` to `visit` as
/// trails, in EnumerateDerivations' order, without copying them: `visit`
/// sees the matcher's live trail, which lives in `*trail` and is overwritten
/// by the next parse. `visit` returns true to stop. Reusing one trail across
/// calls reuses its capacity. Returns the number of parses visited; a search
/// cut off by `max_steps` bumps `ifgen_match_budget_exhausted_total`.
size_t ForEachParse(const DiffTree& root, const Ast& query, size_t limit,
                    ParseTrail* trail, const ParseVisitor& visit,
                    const MatchOptions& opts = {});

/// \brief The derivation a trail of `root` records, built by one walk of
/// the tree guided by the trail's values.
Derivation DerivationOf(const DiffTree& root, const ParseTrail& trail);

/// \brief Enumerates up to `limit` distinct derivations of `query`: the
/// derivation of each parse ForEachParse visits.
std::vector<Derivation> EnumerateDerivations(const DiffTree& root, const Ast& query,
                                             size_t limit,
                                             const MatchOptions& opts = {});

/// \brief True when every query is expressible by the difftree. This is the
/// core invariant the transformation rules must preserve.
bool ExpressesAll(const DiffTree& root, const std::vector<Ast>& queries,
                  const MatchOptions& opts = {});

/// \brief Re-expands a derivation into the AST-node sequence it denotes (the
/// inverse of matching). A full-query derivation expands to one AST.
Result<std::vector<Ast>> ExpandDerivation(const Derivation& deriv);

/// Convenience: expands a derivation expected to denote exactly one AST,
/// folding a WHERE with several predicates into one AND of them.
Result<Ast> MaterializeDerivation(const Derivation& deriv);

/// \brief A canonical default derivation of `node`: every ANY picks its
/// first alternative, every OPT is present, every MULTI produces one copy.
/// Used by the interactive runtime when the user switches into an
/// alternative whose nested widgets have no prior values.
Derivation DefaultDerivation(const DiffTree& node);

}  // namespace ifgen
