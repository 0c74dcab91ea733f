#include "difftree/match.h"

#include <charconv>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ifgen {

namespace {

/// Appends Encode() of `d` to `out`.
void EncodeInto(const Derivation& d, std::string* out) {
  auto append_int = [out](char tag, int v) {
    char buf[16];
    buf[0] = tag;
    const char* end = std::to_chars(buf + 1, buf + sizeof buf, v).ptr;
    out->append(buf, static_cast<size_t>(end - buf));
  };
  switch (d.node->kind) {
    case DKind::kAll:
      break;
    case DKind::kAny:
      append_int('a', d.choice);
      break;
    case DKind::kOpt:
      out->append(d.choice != 0 ? "p1" : "p0");
      break;
    case DKind::kMulti:
      append_int('m', d.choice);
      break;
  }
  if (!d.children.empty()) {
    out->push_back('(');
    for (size_t i = 0; i < d.children.size(); ++i) {
      if (i > 0) out->push_back(' ');
      EncodeInto(d.children[i], out);
    }
    out->push_back(')');
  }
}

}  // namespace

std::string Derivation::Encode() const {
  std::string out;
  EncodeInto(*this, &out);
  return out;
}

namespace {

// Registry handle resolved once; bumped only on the rare exhausted search.
obs::Counter& BudgetExhaustedMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_match_budget_exhausted_total",
      "Matcher searches cut off by MatchOptions::max_steps");
  return *c;
}

/// A view of the AST node list currently being consumed: the query itself
/// at the top level, an AST node's children below it. Never owns storage.
struct AstList {
  const Ast* data = nullptr;
  size_t count = 0;
  size_t size() const { return count; }
  const Ast& operator[](size_t i) const { return data[i]; }
};

/// Continuation-passing backtracking matcher. `Cont` receives the index of
/// the next unconsumed AST node at the *same* list level; returning true
/// commits the branch, returning false requests further backtracking.
///
/// Every continuation is a lambda living in the frame of the call that
/// receives it, so a non-owning reference suffices and no step allocates.
using Cont = FunctionRef<bool(size_t)>;

class Matcher {
 public:
  /// `with_ids`: record each step's positional choice id; without it every
  /// id is 0 and the matcher never counts a subtree's choices (DerivationOf
  /// reads values only).
  Matcher(const MatchOptions& opts, ParseTrail* trail, bool with_ids)
      : opts_(opts), trail_(*trail), with_ids_(with_ids) {
    trail_.clear();
  }

  bool exhausted() const { return exhausted_; }

  /// Matches `query` against `root`, calling `on_parse` with the trail of
  /// each complete parse until it returns true (then so does Run).
  bool Run(const DiffTree& root, const Ast& query, FunctionRef<bool()> on_parse) {
    return MatchOne(root, AstList{&query, 1}, 0, 0, [&](size_t j) {
      if (j != 1) return false;
      ++parses_;
      return on_parse();
    });
  }

 private:
  /// A continuation that returned false without reaching a parse, by the
  /// position it was called at, is dead: it would spend the same steps and
  /// fail again. Kept only once a search passed this many steps, because
  /// wrapping every ANY's continuation costs more than ordinary searches
  /// save; pathological ones (MULTI copies that parse one run of AST nodes
  /// in exponentially many ways) drop from millions of steps to thousands.
  static constexpr size_t kDeadEndMemoSteps = 8192;
  static constexpr size_t kLive = static_cast<size_t>(-1);

  /// Tries every way `node`, whose first choice id is `id`, can consume a
  /// prefix of asts[j...). Called with the trail holding exactly the steps
  /// of the branch so far; calls `cont` with the trail holding those plus
  /// `node`'s. Steps past that may be stale on return, so callers truncate
  /// before trying another branch.
  bool MatchOne(const DiffTree& node, AstList asts, size_t j, int id, const Cont& cont) {
    if (!CountStep()) return false;
    switch (node.kind) {
      case DKind::kAll: {
        if (node.sym == Symbol::kEmpty) return cont(j);
        const ChildFacts* f = Facts(node.children);
        if (node.sym == Symbol::kSeq) return MatchList(node.children, f, asts, 0, j, id, cont);
        if (!HeadMatches(node, asts, j)) return false;
        // The node's children must expand to exactly a.children; different
        // inner parses are explored via the continuation so enumeration of
        // derivations is complete.
        const Ast& a = asts[j];
        const AstList sub{a.children.data(), a.children.size()};
        return MatchList(node.children, f, sub, 0, 0, id, [&](size_t used) {
          if (used != sub.size()) return false;
          return cont(j + 1);
        });
      }
      case DKind::kAny: {
        if (steps_ < kDeadEndMemoSteps) return MatchAny(node, asts, j, id, cont);
        return MatchAnyMemo(node, asts, j, id, cont);
      }
      case DKind::kOpt: {
        // Prefer present (consumes input) over absent; backtracking covers
        // the other order.
        const size_t at = trail_.size();
        trail_.push_back({id, 1, 0});
        if (MatchOne(node.children[0], asts, j, id + 1, cont)) return true;
        if (exhausted_) return false;
        trail_.resize(at + 1);
        trail_[at].value = 0;
        return cont(j);
      }
      case DKind::kMulti: {
        const size_t at = trail_.size();
        trail_.push_back({id, 0, 0});
        return MatchMulti(node, asts, j, id, at, 0, cont);
      }
    }
    return false;
  }

  /// Matches a child list (sequence semantics) against asts[j...); `id` is
  /// the first choice id of child i, `f` the list's cached facts or null.
  bool MatchList(const ChildList& items, const ChildFacts* f, AstList asts, size_t i,
                 size_t j, int id, const Cont& cont) {
    if (i == items.size()) return cont(j);
    return MatchOne(items[i], asts, j, id, [&](size_t j2) {
      const int next = id + Choices(items, f, i);
      return MatchList(items, f, asts, i + 1, j2, next, cont);
    });
  }

  /// An ANY tries its alternatives in order.
  bool MatchAny(const DiffTree& node, AstList asts, size_t j, int id, const Cont& cont) {
    const size_t at = trail_.size();
    trail_.push_back({id, 0, 0});
    const ChildFacts* f = Facts(node.children);
    int alt_id = id + 1;  // first choice id of alternative `counted`
    size_t counted = 0;
    for (size_t alt = 0; alt < node.children.size(); ++alt) {
      const DiffTree& option = node.children[alt];
      // An ALL alternative whose head cannot match fails on its first step;
      // count that step without touching the trail.
      if (IsHeadedAll(option) && !HeadMatches(option, asts, j)) {
        if (!CountStep()) return false;
        continue;
      }
      for (; counted < alt; ++counted) alt_id += Choices(node.children, f, counted);
      trail_.resize(at + 1);
      trail_[at].value = static_cast<int32_t>(alt);
      if (MatchOne(option, asts, j, alt_id, cont)) return true;
      if (exhausted_) return false;
    }
    return false;
  }

  /// MatchAny with `cont` behind the dead-continuation memo: a position
  /// whose continuation failed without a parse is not tried again; its
  /// recorded steps are charged instead, so the budget runs out exactly
  /// where the repeated calls would have run it out.
  bool MatchAnyMemo(const DiffTree& node, AstList asts, size_t j, int id,
                    const Cont& cont) {
    std::vector<size_t> dead(asts.size() - j + 1, kLive);
    return MatchAny(node, asts, j, id, [&](size_t j2) {
      size_t& spent = dead[j2 - j];
      if (spent != kLive) {
        steps_ += spent;
        if (steps_ > opts_.max_steps) exhausted_ = true;
        return false;
      }
      const size_t steps = steps_;
      const size_t parses = parses_;
      if (cont(j2)) return true;
      if (!exhausted_ && parses_ == parses) spent = steps_ - steps;
      return false;
    });
  }

  /// A MULTI at trail index `at` with `count` copies matched: stop here, or
  /// match one more copy. Prefers fewer copies.
  bool MatchMulti(const DiffTree& node, AstList asts, size_t j, int id, size_t at,
                  size_t count, const Cont& cont) {
    const size_t here = trail_.size();
    trail_[at].value = static_cast<int32_t>(count);
    trail_[at].end = static_cast<uint32_t>(here);
    if (cont(j)) return true;
    if (exhausted_ || count >= opts_.max_multi) return false;
    trail_.resize(here);
    return MatchOne(node.children[0], asts, j, id + 1, [&](size_t j2) {
      if (j2 == j) return false;  // forbid empty repetitions
      return MatchMulti(node, asts, j2, id, at, count + 1, cont);
    });
  }

  /// The cached facts of `kids` when ids are recorded, for Choices; null
  /// without ids, so nothing is counted.
  const ChildFacts* Facts(const ChildList& kids) const {
    return with_ids_ ? kids.facts() : nullptr;
  }

  /// Choice count of child `i` of `kids` (0 without ids), from its cached
  /// facts `f` when the block has them.
  int Choices(const ChildList& kids, const ChildFacts* f, size_t i) const {
    if (!with_ids_) return 0;
    return static_cast<int>(f != nullptr ? f[i].choices : kids[i].ChoiceCount());
  }

  /// Spends one step of the budget; false once it is exhausted.
  bool CountStep() {
    if (++steps_ > opts_.max_steps) {
      exhausted_ = true;
      return false;
    }
    return true;
  }

  /// An ALL node that must consume one AST node with its own symbol/value.
  static bool IsHeadedAll(const DiffTree& n) {
    return n.kind == DKind::kAll && n.sym != Symbol::kEmpty && n.sym != Symbol::kSeq;
  }

  static bool HeadMatches(const DiffTree& n, AstList asts, size_t j) {
    return j < asts.size() && asts[j].sym == n.sym && asts[j].value == n.value;
  }

  const MatchOptions& opts_;
  ParseTrail& trail_;
  const bool with_ids_;
  size_t steps_ = 0;
  size_t parses_ = 0;
  bool exhausted_ = false;
};

/// DerivationOf's walk, filling `*d`: `next` is the trail step of the next
/// choice node.
void BuildDerivation(const DiffTree& node, const ParseStep*& next, Derivation* d) {
  d->node = &node;
  if (node.kind == DKind::kAll) {
    d->children.resize(node.children.size());
    for (size_t i = 0; i < node.children.size(); ++i) {
      BuildDerivation(node.children[i], next, &d->children[i]);
    }
    return;
  }
  d->choice = (next++)->value;
  // kAny: the chosen alternative; kOpt: the child, when present; kMulti: one
  // derivation per copy of the child.
  const bool any = node.kind == DKind::kAny;
  const DiffTree& child = node.children[any ? static_cast<size_t>(d->choice) : 0];
  const size_t copies = node.kind == DKind::kMulti ? static_cast<size_t>(d->choice)
                        : any || d->choice != 0    ? 1
                                                   : 0;
  d->children.resize(copies);
  for (Derivation& c : d->children) BuildDerivation(child, next, &c);
}

/// ForEachParse, with ids recorded or not.
size_t VisitParses(const DiffTree& root, const Ast& query, size_t limit, ParseTrail* trail,
                   bool with_ids, const ParseVisitor& visit, const MatchOptions& opts) {
  if (limit == 0) return 0;
  Matcher m(opts, trail, with_ids);
  size_t visited = 0;
  // Each parse reports failure after its visit, so the matcher keeps
  // backtracking into the next one, until `limit` or until the visitor
  // stops it.
  m.Run(root, query, [&] {
    ++visited;
    return visit(*trail) || visited >= limit;  // true stops the search
  });
  // The parses visited before the budget ran out still count (and are priced
  // by PlanTransitions); the counter makes the truncation visible.
  if (m.exhausted()) BudgetExhaustedMetric().Inc();
  return visited;
}

}  // namespace

Derivation DerivationOf(const DiffTree& root, const ParseTrail& trail) {
  const ParseStep* next = trail.data();
  Derivation d;
  BuildDerivation(root, next, &d);
  IFGEN_DCHECK(next == trail.data() + trail.size());
  return d;
}

std::optional<Derivation> MatchQuery(const DiffTree& root, const Ast& query,
                                     const MatchOptions& opts) {
  ParseTrail trail;
  Matcher m(opts, &trail, /*with_ids=*/false);
  const bool ok = m.Run(root, query, [] { return true; });
  if (m.exhausted()) {
    BudgetExhaustedMetric().Inc();
    IFGEN_LOG(Warning) << "matcher step budget exhausted; treating as no-match";
    return std::nullopt;
  }
  if (!ok) return std::nullopt;
  return DerivationOf(root, trail);
}

size_t ForEachParse(const DiffTree& root, const Ast& query, size_t limit,
                    ParseTrail* trail, const ParseVisitor& visit,
                    const MatchOptions& opts) {
  return VisitParses(root, query, limit, trail, /*with_ids=*/true, visit, opts);
}

std::vector<Derivation> EnumerateDerivations(const DiffTree& root, const Ast& query,
                                             size_t limit, const MatchOptions& opts) {
  std::vector<Derivation> out;
  ParseTrail trail;
  VisitParses(root, query, limit, &trail, /*with_ids=*/false,
              [&](const ParseTrail& t) {
                out.push_back(DerivationOf(root, t));
                return false;
              },
              opts);
  return out;
}

bool ExpressesAll(const DiffTree& root, const std::vector<Ast>& queries,
                  const MatchOptions& opts) {
  for (const Ast& q : queries) {
    if (!MatchQuery(root, q, opts).has_value()) return false;
  }
  return true;
}

Result<std::vector<Ast>> ExpandDerivation(const Derivation& d) {
  if (d.node == nullptr) return Status::Invalid("empty derivation");
  const DiffTree& n = *d.node;
  switch (n.kind) {
    case DKind::kAll: {
      if (n.sym == Symbol::kEmpty) return std::vector<Ast>{};
      std::vector<Ast> expanded;
      for (const Derivation& c : d.children) {
        IFGEN_ASSIGN_OR_RETURN(std::vector<Ast> seq, ExpandDerivation(c));
        for (Ast& a : seq) expanded.push_back(std::move(a));
      }
      if (n.sym == Symbol::kSeq) return expanded;
      return std::vector<Ast>{Ast(n.sym, n.value, std::move(expanded))};
    }
    case DKind::kAny: {
      if (d.children.empty()) return Status::Invalid("ANY derivation without child");
      return ExpandDerivation(d.children[0]);
    }
    case DKind::kOpt: {
      if (d.choice == 0 || d.children.empty()) return std::vector<Ast>{};
      return ExpandDerivation(d.children[0]);
    }
    case DKind::kMulti: {
      std::vector<Ast> expanded;
      for (const Derivation& c : d.children) {
        IFGEN_ASSIGN_OR_RETURN(std::vector<Ast> seq, ExpandDerivation(c));
        for (Ast& a : seq) expanded.push_back(std::move(a));
      }
      return expanded;
    }
  }
  return Status::Internal("bad derivation node kind");
}

namespace {

/// Folds every WHERE with several predicates (a MULTI or factored
/// conjunction under it) into one AND of them — the parser's shape for
/// `a and b`. The unparser, the executors and query parameterization all
/// read a WHERE's first child as its predicate.
void FoldWherePredicates(Ast* ast) {
  if (ast->sym == Symbol::kWhere && ast->children.size() > 1) {
    Ast conjunction(Symbol::kAnd, std::move(ast->children));
    ast->children = {std::move(conjunction)};
  }
  for (Ast& c : ast->children) FoldWherePredicates(&c);
}

}  // namespace

Result<Ast> MaterializeDerivation(const Derivation& d) {
  IFGEN_ASSIGN_OR_RETURN(std::vector<Ast> seq, ExpandDerivation(d));
  if (seq.size() != 1) {
    return Status::Invalid(
        StrFormat("derivation expands to %zu nodes, expected 1", seq.size()));
  }
  FoldWherePredicates(&seq[0]);
  return std::move(seq[0]);
}

Derivation DefaultDerivation(const DiffTree& node) {
  Derivation d;
  d.node = &node;
  switch (node.kind) {
    case DKind::kAll:
      d.choice = -1;
      for (const DiffTree& c : node.children) {
        d.children.push_back(DefaultDerivation(c));
      }
      break;
    case DKind::kAny:
      d.choice = 0;
      d.children.push_back(DefaultDerivation(node.children[0]));
      break;
    case DKind::kOpt:
      d.choice = 1;
      d.children.push_back(DefaultDerivation(node.children[0]));
      break;
    case DKind::kMulti:
      d.choice = 1;
      d.children.push_back(DefaultDerivation(node.children[0]));
      break;
  }
  return d;
}

}  // namespace ifgen
