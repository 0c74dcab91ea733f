#include "difftree/match.h"

#include <charconv>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ifgen {

std::string Derivation::Encode() const {
  std::string out;
  EncodeTo(&out);
  return out;
}

void Derivation::EncodeTo(std::string* out) const {
  auto append_int = [out](char tag, int v) {
    char buf[16];
    buf[0] = tag;
    const char* end = std::to_chars(buf + 1, buf + sizeof buf, v).ptr;
    out->append(buf, static_cast<size_t>(end - buf));
  };
  switch (node->kind) {
    case DKind::kAll:
      break;
    case DKind::kAny:
      append_int('a', choice);
      break;
    case DKind::kOpt:
      out->append(choice != 0 ? "p1" : "p0");
      break;
    case DKind::kMulti:
      append_int('m', choice);
      break;
  }
  if (!children.empty()) {
    out->push_back('(');
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out->push_back(' ');
      children[i].EncodeTo(out);
    }
    out->push_back(')');
  }
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
  explicit Matcher(const MatchOptions& opts) : opts_(opts) {}

  bool exhausted() const { return exhausted_; }

  /// Tries every way `node` can consume a prefix of asts[j...); `deriv` holds
  /// the derivation of the branch active when `cont` committed. Child
  /// vectors are resized, never rebuilt, so retries reuse their capacity;
  /// entries of a failed branch may hold stale values until overwritten.
  bool MatchOne(const DiffTree& node, AstList asts, size_t j, Derivation* deriv,
                const Cont& cont) {
    if (!CountStep()) return false;
    deriv->node = &node;
    deriv->choice = -1;
    switch (node.kind) {
      case DKind::kAll: {
        if (node.sym == Symbol::kEmpty) {
          deriv->children.clear();
          return cont(j);
        }
        if (node.sym == Symbol::kSeq) {
          deriv->children.resize(node.children.size());
          return MatchList(node.children, asts, 0, j, &deriv->children, cont);
        }
        if (!HeadMatches(node, asts, j)) return false;
        // The node's children must expand to exactly a.children; different
        // inner parses are explored via the continuation so enumeration of
        // derivations is complete.
        const Ast& a = asts[j];
        const AstList sub{a.children.data(), a.children.size()};
        deriv->children.resize(node.children.size());
        return MatchList(node.children, sub, 0, 0, &deriv->children, [&](size_t used) {
          if (used != sub.size()) return false;
          return cont(j + 1);
        });
      }
      case DKind::kAny: {
        deriv->children.resize(1);
        for (size_t alt = 0; alt < node.children.size(); ++alt) {
          const DiffTree& option = node.children[alt];
          // An ALL alternative whose head cannot match fails on its first
          // step; count that step without touching the derivation.
          if (IsHeadedAll(option) && !HeadMatches(option, asts, j)) {
            if (!CountStep()) return false;
            continue;
          }
          deriv->choice = static_cast<int>(alt);
          if (MatchOne(option, asts, j, &deriv->children[0], cont)) return true;
          if (exhausted_) return false;
        }
        return false;
      }
      case DKind::kOpt: {
        // Prefer present (consumes input) over absent; backtracking covers
        // the other order.
        deriv->choice = 1;
        deriv->children.resize(1);
        if (MatchOne(node.children[0], asts, j, &deriv->children[0], cont)) return true;
        if (exhausted_) return false;
        deriv->choice = 0;
        deriv->children.clear();
        return cont(j);
      }
      case DKind::kMulti: {
        deriv->choice = 0;
        deriv->children.clear();
        // MatchMulti resizes deriv->children while recursion holds pointers
        // to earlier elements; reserving up front pins them in place.
        deriv->children.reserve(opts_.max_multi + 1);
        return MatchMulti(node, asts, j, 0, deriv, cont);
      }
    }
    return false;
  }

  /// Matches a child list (sequence semantics) against asts[j...).
  bool MatchList(const ChildList& items, AstList asts, size_t i, size_t j,
                 std::vector<Derivation>* derivs, const Cont& cont) {
    if (i == items.size()) return cont(j);
    return MatchOne(items[i], asts, j, &(*derivs)[i], [&](size_t j2) {
      return MatchList(items, asts, i + 1, j2, derivs, cont);
    });
  }

 private:
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

  bool MatchMulti(const DiffTree& node, AstList asts, size_t j, size_t count,
                  Derivation* deriv, const Cont& cont) {
    // Prefer fewer copies: try stopping first.
    deriv->choice = static_cast<int>(count);
    deriv->children.resize(count);
    if (cont(j)) return true;
    if (exhausted_ || count >= opts_.max_multi) return false;
    deriv->children.resize(count + 1);
    bool ok = MatchOne(node.children[0], asts, j, &deriv->children[count],
                       [&](size_t j2) {
                         if (j2 == j) return false;  // forbid empty repetitions
                         return MatchMulti(node, asts, j2, count + 1, deriv, cont);
                       });
    if (!ok) {
      deriv->choice = static_cast<int>(count);
      deriv->children.resize(count);
    }
    return ok;
  }

  const MatchOptions& opts_;
  size_t steps_ = 0;
  bool exhausted_ = false;
};

}  // namespace

std::optional<Derivation> MatchQuery(const DiffTree& root, const Ast& query,
                                     const MatchOptions& opts) {
  Matcher m(opts);
  Derivation deriv;
  bool ok = m.MatchOne(root, AstList{&query, 1}, 0, &deriv,
                       [](size_t j) { return j == 1; });
  if (m.exhausted()) {
    BudgetExhaustedMetric().Inc();
    IFGEN_LOG(Warning) << "matcher step budget exhausted; treating as no-match";
    return std::nullopt;
  }
  if (!ok) return std::nullopt;
  return deriv;
}

size_t ForEachDerivation(const DiffTree& root, const Ast& query, size_t limit,
                         Derivation* scratch, const DerivationVisitor& visit,
                         const MatchOptions& opts) {
  if (limit == 0) return 0;
  Matcher m(opts);
  size_t visited = 0;
  // The continuation reports failure after visiting each complete parse so
  // the matcher keeps backtracking into the next one, until `limit` or until
  // the visitor stops it.
  m.MatchOne(root, AstList{&query, 1}, 0, scratch, [&](size_t j) {
    if (j != 1) return false;
    ++visited;
    return visit(*scratch) || visited >= limit;  // true stops the search
  });
  // The parses visited before the budget ran out still count (and are priced
  // by PlanTransitions); the counter makes the truncation visible.
  if (m.exhausted()) BudgetExhaustedMetric().Inc();
  return visited;
}

std::vector<Derivation> EnumerateDerivations(const DiffTree& root, const Ast& query,
                                             size_t limit, const MatchOptions& opts) {
  std::vector<Derivation> out;
  Derivation scratch;
  ForEachDerivation(root, query, limit, &scratch,
                    [&](const Derivation& d) {
                      out.push_back(d);
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
