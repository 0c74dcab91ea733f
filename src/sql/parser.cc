#include "sql/parser.h"

#include <utility>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace ifgen {

namespace {

/// Cap on expression nesting: each parenthesized or function-argument
/// sub-expression and each NOT of a chain is one level. The parser recurses
/// once per level, so the cap turns adversarial input into a ParseError
/// instead of a stack overflow (the JSON parser's kMaxDepth is the model).
constexpr int kMaxExprDepth = 128;

/// Recursive-descent parser over a token vector.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Ast> Query() {
    IFGEN_ASSIGN_OR_RETURN(Ast q, Select());
    if (Peek().IsSymbol(";")) Advance();
    if (!Peek().Is(TokenKind::kEnd)) {
      return Err("trailing input after query");
    }
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(std::string_view s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Err(std::string_view what) const {
    return Status::ParseError(StrFormat("%s near '%s' (offset %zu)",
                                        std::string(what).c_str(), Peek().text.c_str(),
                                        Peek().offset));
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) return Err(StrFormat("expected %s", std::string(kw).c_str()));
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view s) {
    if (!AcceptSymbol(s)) return Err(StrFormat("expected '%s'", std::string(s).c_str()));
    return Status::OK();
  }

  bool PeekIsReserved() const {
    static constexpr std::string_view kReserved[] = {
        "select", "from",  "where", "group", "order", "by",    "limit",
        "top",    "and",   "or",    "not",   "between", "in",  "like",
        "as",     "asc",   "desc",  "distinct"};
    if (!Peek().Is(TokenKind::kIdent)) return false;
    for (std::string_view kw : kReserved) {
      if (Peek().IsKeyword(kw)) return true;
    }
    return false;
  }

  Result<Ast> Select() {
    IFGEN_RETURN_NOT_OK(ExpectKeyword("select"));
    std::vector<Ast> clauses;

    Ast project(Symbol::kProject);
    // TOP n
    std::optional<Ast> top;
    if (AcceptKeyword("top")) {
      if (!Peek().Is(TokenKind::kNumber)) return Err("expected number after TOP");
      top = Ast(Symbol::kTop, Advance().text);
    }
    if (AcceptKeyword("distinct")) project.value = "distinct";

    // Select list.
    do {
      IFGEN_ASSIGN_OR_RETURN(Ast item, SelectItem());
      project.children.push_back(std::move(item));
    } while (AcceptSymbol(","));
    clauses.push_back(std::move(project));
    if (top) clauses.push_back(std::move(*top));

    // FROM
    IFGEN_RETURN_NOT_OK(ExpectKeyword("from"));
    Ast from(Symbol::kFrom);
    do {
      if (!Peek().Is(TokenKind::kIdent) || PeekIsReserved()) {
        return Err("expected table name");
      }
      from.children.emplace_back(Symbol::kTable, Advance().text);
    } while (AcceptSymbol(","));
    clauses.push_back(std::move(from));

    // WHERE
    if (AcceptKeyword("where")) {
      IFGEN_ASSIGN_OR_RETURN(Ast pred, Expr());
      clauses.emplace_back(Symbol::kWhere, std::vector<Ast>{std::move(pred)});
    }

    // GROUP BY
    if (AcceptKeyword("group")) {
      IFGEN_RETURN_NOT_OK(ExpectKeyword("by"));
      Ast group(Symbol::kGroupBy);
      do {
        IFGEN_ASSIGN_OR_RETURN(Ast e, Expr());
        group.children.push_back(std::move(e));
      } while (AcceptSymbol(","));
      clauses.push_back(std::move(group));
    }

    // ORDER BY
    if (AcceptKeyword("order")) {
      IFGEN_RETURN_NOT_OK(ExpectKeyword("by"));
      Ast order(Symbol::kOrderBy);
      do {
        IFGEN_ASSIGN_OR_RETURN(Ast e, Expr());
        std::string dir = "asc";
        if (AcceptKeyword("desc")) {
          dir = "desc";
        } else {
          AcceptKeyword("asc");
        }
        order.children.emplace_back(Symbol::kOrderKey, dir,
                                    std::vector<Ast>{std::move(e)});
      } while (AcceptSymbol(","));
      clauses.push_back(std::move(order));
    }

    // LIMIT
    if (AcceptKeyword("limit")) {
      if (!Peek().Is(TokenKind::kNumber)) return Err("expected number after LIMIT");
      clauses.emplace_back(Symbol::kLimit, Advance().text);
    }

    return Ast(Symbol::kSelect, std::move(clauses));
  }

  Result<Ast> SelectItem() {
    IFGEN_ASSIGN_OR_RETURN(Ast e, Expr());
    if (AcceptKeyword("as")) {
      if (!Peek().Is(TokenKind::kIdent) || PeekIsReserved()) {
        return Err("expected alias name after AS");
      }
      return Ast(Symbol::kAlias, Advance().text, std::vector<Ast>{std::move(e)});
    }
    return e;
  }

  /// Enters one nesting level; a ParseError once kMaxExprDepth is reached.
  Status Descend() {
    if (depth_ >= kMaxExprDepth) {
      return Err(StrFormat("expression nested deeper than %d levels", kMaxExprDepth));
    }
    ++depth_;
    return Status::OK();
  }

  Result<Ast> Expr() {
    IFGEN_RETURN_NOT_OK(Descend());
    Result<Ast> e = OrExpr();
    --depth_;
    return e;
  }

  Result<Ast> OrExpr() {
    IFGEN_ASSIGN_OR_RETURN(Ast first, AndExpr());
    if (!Peek().IsKeyword("or")) return first;
    Ast node(Symbol::kOr);
    node.children.push_back(std::move(first));
    while (AcceptKeyword("or")) {
      IFGEN_ASSIGN_OR_RETURN(Ast next, AndExpr());
      // Flatten nested n-ary ORs produced by parenthesized chains.
      node.children.push_back(std::move(next));
    }
    return node;
  }

  Result<Ast> AndExpr() {
    IFGEN_ASSIGN_OR_RETURN(Ast first, NotExpr());
    if (!Peek().IsKeyword("and")) return first;
    Ast node(Symbol::kAnd);
    node.children.push_back(std::move(first));
    while (AcceptKeyword("and")) {
      IFGEN_ASSIGN_OR_RETURN(Ast next, NotExpr());
      node.children.push_back(std::move(next));
    }
    return node;
  }

  Result<Ast> NotExpr() {
    if (!AcceptKeyword("not")) return CmpExpr();
    IFGEN_RETURN_NOT_OK(Descend());
    Result<Ast> inner = NotExpr();
    --depth_;
    IFGEN_RETURN_NOT_OK(inner.status());
    return Ast(Symbol::kNot, std::vector<Ast>{std::move(inner).MoveValueUnsafe()});
  }

  Result<Ast> CmpExpr() {
    IFGEN_ASSIGN_OR_RETURN(Ast lhs, AddExpr());
    // BETWEEN lo AND hi
    if (AcceptKeyword("between")) {
      IFGEN_ASSIGN_OR_RETURN(Ast lo, AddExpr());
      IFGEN_RETURN_NOT_OK(ExpectKeyword("and"));
      IFGEN_ASSIGN_OR_RETURN(Ast hi, AddExpr());
      return Ast(Symbol::kBetween,
                 std::vector<Ast>{std::move(lhs), std::move(lo), std::move(hi)});
    }
    // [NOT] IN (list)
    bool negated = false;
    if (Peek().IsKeyword("not") && Peek(1).IsKeyword("in")) {
      Advance();
      negated = true;
    }
    if (AcceptKeyword("in")) {
      IFGEN_RETURN_NOT_OK(ExpectSymbol("("));
      Ast list(Symbol::kList);
      do {
        IFGEN_ASSIGN_OR_RETURN(Ast e, AddExpr());
        list.children.push_back(std::move(e));
      } while (AcceptSymbol(","));
      IFGEN_RETURN_NOT_OK(ExpectSymbol(")"));
      Ast in(Symbol::kIn, std::vector<Ast>{std::move(lhs), std::move(list)});
      if (negated) return Ast(Symbol::kNot, std::vector<Ast>{std::move(in)});
      return in;
    }
    // LIKE
    if (AcceptKeyword("like")) {
      IFGEN_ASSIGN_OR_RETURN(Ast rhs, AddExpr());
      return Ast(Symbol::kBiExpr, "like",
                 std::vector<Ast>{std::move(lhs), std::move(rhs)});
    }
    // Comparison operators.
    static constexpr std::string_view kCmpOps[] = {"=", "<>", "<=", ">=", "<", ">"};
    for (std::string_view op : kCmpOps) {
      if (Peek().IsSymbol(op)) {
        Advance();
        IFGEN_ASSIGN_OR_RETURN(Ast rhs, AddExpr());
        return Ast(Symbol::kBiExpr, std::string(op),
                   std::vector<Ast>{std::move(lhs), std::move(rhs)});
      }
    }
    return lhs;
  }

  Result<Ast> AddExpr() {
    IFGEN_ASSIGN_OR_RETURN(Ast lhs, MulExpr());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      std::string op = Advance().text;
      IFGEN_ASSIGN_OR_RETURN(Ast rhs, MulExpr());
      lhs = Ast(Symbol::kBiExpr, op, std::vector<Ast>{std::move(lhs), std::move(rhs)});
    }
    return lhs;
  }

  Result<Ast> MulExpr() {
    IFGEN_ASSIGN_OR_RETURN(Ast lhs, Primary());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      // `*` directly after '(' or ',' in a select list is handled in Primary;
      // here it is always multiplication.
      std::string op = Advance().text;
      IFGEN_ASSIGN_OR_RETURN(Ast rhs, Primary());
      lhs = Ast(Symbol::kBiExpr, op, std::vector<Ast>{std::move(lhs), std::move(rhs)});
    }
    return lhs;
  }

  Result<Ast> Primary() {
    const Token& t = Peek();
    if (t.Is(TokenKind::kNumber)) {
      return Ast(Symbol::kNumExpr, Advance().text);
    }
    if (t.Is(TokenKind::kString)) {
      return Ast(Symbol::kStrExpr, Advance().text);
    }
    if (t.IsSymbol("*")) {
      Advance();
      return Ast(Symbol::kStar);
    }
    if (t.IsSymbol("(")) {
      Advance();
      IFGEN_ASSIGN_OR_RETURN(Ast inner, Expr());
      IFGEN_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (t.Is(TokenKind::kIdent) && !PeekIsReserved()) {
      std::string name = Advance().text;
      if (AcceptSymbol("(")) {
        Ast fn(Symbol::kFuncExpr, ToLower(name));
        if (!AcceptSymbol(")")) {
          do {
            IFGEN_ASSIGN_OR_RETURN(Ast arg, Expr());
            fn.children.push_back(std::move(arg));
          } while (AcceptSymbol(","));
          IFGEN_RETURN_NOT_OK(ExpectSymbol(")"));
        }
        return fn;
      }
      return Ast(Symbol::kColExpr, name);
    }
    return Err("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< current expression nesting (see kMaxExprDepth)
};

}  // namespace

Result<Ast> ParseQuery(std::string_view sql) {
  IFGEN_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.Query();
}

Result<std::vector<Ast>> ParseQueries(const std::vector<std::string>& sqls) {
  std::vector<Ast> out;
  out.reserve(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto parsed = ParseQuery(sqls[i]);
    if (!parsed.ok()) {
      return Status::ParseError(StrFormat("query %zu: %s", i,
                                          parsed.status().message().c_str()));
    }
    out.push_back(std::move(parsed).MoveValueUnsafe());
  }
  return out;
}

}  // namespace ifgen
