#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "engine/exec_util.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace ifgen {

namespace {

struct QueryClauses {
  const Ast* project = nullptr;
  const Ast* top = nullptr;
  const Ast* from = nullptr;
  const Ast* where = nullptr;
  const Ast* group = nullptr;
  const Ast* order = nullptr;
  const Ast* limit = nullptr;
};

Result<QueryClauses> SplitClauses(const Ast& query) {
  if (query.sym != Symbol::kSelect) {
    return Status::Invalid("executor expects a Select root");
  }
  QueryClauses c;
  for (const Ast& child : query.children) {
    switch (child.sym) {
      case Symbol::kProject:
        c.project = &child;
        break;
      case Symbol::kTop:
        c.top = &child;
        break;
      case Symbol::kFrom:
        c.from = &child;
        break;
      case Symbol::kWhere:
        c.where = &child;
        break;
      case Symbol::kGroupBy:
        c.group = &child;
        break;
      case Symbol::kOrderBy:
        c.order = &child;
        break;
      case Symbol::kLimit:
        c.limit = &child;
        break;
      default:
        return Status::Invalid("unexpected clause: " + std::string(SymbolName(child.sym)));
    }
  }
  if (c.project == nullptr || c.from == nullptr || c.from->children.empty()) {
    return Status::Invalid("query needs SELECT list and FROM clause");
  }
  return c;
}

/// Row-wise scalar expression evaluator; resolves kParam placeholders
/// against `params` (1-based indices) when executing a prepared shape.
class RowEval {
 public:
  RowEval(const Table& table, const std::vector<Value>& params)
      : table_(table), params_(params) {}

  Result<Value> Eval(const Ast& e, size_t row) const {
    switch (e.sym) {
      case Symbol::kNumExpr:
        return ParseNumericLiteral(e.value);
      case Symbol::kStrExpr:
        return Value(e.value);
      case Symbol::kParam: {
        IFGEN_ASSIGN_OR_RETURN(size_t idx, ParseParamMarker(e.value, params_.size()));
        return params_[idx];
      }
      case Symbol::kColExpr: {
        int idx = table_.schema().FindColumn(e.value);
        if (idx < 0) return Status::Invalid("unknown column: " + e.value);
        return table_.At(row, static_cast<size_t>(idx));
      }
      case Symbol::kBiExpr:
        return EvalBinary(e, row);
      case Symbol::kBetween: {
        IFGEN_ASSIGN_OR_RETURN(Value v, Eval(e.children[0], row));
        IFGEN_ASSIGN_OR_RETURN(Value lo, Eval(e.children[1], row));
        IFGEN_ASSIGN_OR_RETURN(Value hi, Eval(e.children[2], row));
        bool b = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
        return Value(static_cast<int64_t>(b));
      }
      case Symbol::kIn: {
        IFGEN_ASSIGN_OR_RETURN(Value v, Eval(e.children[0], row));
        for (const Ast& item : e.children[1].children) {
          IFGEN_ASSIGN_OR_RETURN(Value iv, Eval(item, row));
          if (v == iv) return Value(static_cast<int64_t>(1));
        }
        return Value(static_cast<int64_t>(0));
      }
      case Symbol::kAnd: {
        for (const Ast& c : e.children) {
          IFGEN_ASSIGN_OR_RETURN(Value v, Eval(c, row));
          if (!Truthy(v)) return Value(static_cast<int64_t>(0));
        }
        return Value(static_cast<int64_t>(1));
      }
      case Symbol::kOr: {
        for (const Ast& c : e.children) {
          IFGEN_ASSIGN_OR_RETURN(Value v, Eval(c, row));
          if (Truthy(v)) return Value(static_cast<int64_t>(1));
        }
        return Value(static_cast<int64_t>(0));
      }
      case Symbol::kNot: {
        IFGEN_ASSIGN_OR_RETURN(Value v, Eval(e.children[0], row));
        return Value(static_cast<int64_t>(!Truthy(v)));
      }
      case Symbol::kAlias:
        return Eval(e.children[0], row);
      default:
        return Status::Unimplemented("cannot evaluate " +
                                     std::string(SymbolName(e.sym)) + " per row");
    }
  }

  static bool Truthy(const Value& v) {
    return v.is_numeric() && v.AsDouble() != 0.0;
  }

 private:
  Result<Value> EvalBinary(const Ast& e, size_t row) const {
    IFGEN_ASSIGN_OR_RETURN(Value a, Eval(e.children[0], row));
    IFGEN_ASSIGN_OR_RETURN(Value b, Eval(e.children[1], row));
    const std::string& op = e.value;
    if (op == "+" || op == "-" || op == "*" || op == "/") {
      if (!a.is_numeric() || !b.is_numeric()) {
        return Status::Invalid("arithmetic on non-numeric values");
      }
      double x = a.AsDouble();
      double y = b.AsDouble();
      double r = op == "+" ? x + y : op == "-" ? x - y : op == "*" ? x * y : x / y;
      if (a.is_int() && b.is_int() && op != "/") {
        return Value(static_cast<int64_t>(std::llround(r)));
      }
      return Value(r);
    }
    if (op == "like") {
      if (!a.is_string() || !b.is_string()) {
        return Status::Invalid("LIKE on non-string values");
      }
      return Value(static_cast<int64_t>(LikeMatch(a.AsString(), b.AsString())));
    }
    int cmp = a.Compare(b);
    bool r = false;
    if (op == "=") {
      r = cmp == 0;
    } else if (op == "<>") {
      r = cmp != 0;
    } else if (op == "<") {
      r = cmp < 0;
    } else if (op == "<=") {
      r = cmp <= 0;
    } else if (op == ">") {
      r = cmp > 0;
    } else if (op == ">=") {
      r = cmp >= 0;
    } else {
      return Status::Unimplemented("operator " + op);
    }
    return Value(static_cast<int64_t>(r));
  }

  const Table& table_;
  const std::vector<Value>& params_;
};

Result<Value> EvalAggregate(const Ast& e, const RowEval& ev,
                            const std::vector<size_t>& rows) {
  if (e.sym == Symbol::kFuncExpr) {
    const std::string& fn = e.value;
    if (fn == "count" && (e.children.empty() || e.children[0].sym == Symbol::kStar)) {
      return Value(static_cast<int64_t>(rows.size()));
    }
    if (fn == "count" || fn == "sum" || fn == "avg" || fn == "min" || fn == "max") {
      if (e.children.empty()) return Status::Invalid(fn + " needs an argument");
      std::vector<Value> vals;
      vals.reserve(rows.size());
      for (size_t r : rows) {
        IFGEN_ASSIGN_OR_RETURN(Value v, ev.Eval(e.children[0], r));
        if (!v.is_null()) vals.push_back(std::move(v));
      }
      if (fn == "count") return Value(static_cast<int64_t>(vals.size()));
      if (vals.empty()) return Value();
      if (fn == "min" || fn == "max") {
        Value best = vals[0];
        for (const Value& v : vals) {
          int cmp = v.Compare(best);
          if ((fn == "min" && cmp < 0) || (fn == "max" && cmp > 0)) best = v;
        }
        return best;
      }
      double sum = 0;
      for (const Value& v : vals) {
        if (!v.is_numeric()) return Status::Invalid(fn + " on non-numeric value");
        sum += v.AsDouble();
      }
      if (fn == "sum") return Value(sum);
      return Value(sum / static_cast<double>(vals.size()));
    }
    return Status::Unimplemented("function " + fn);
  }
  if (e.sym == Symbol::kAlias) return EvalAggregate(e.children[0], ev, rows);
  if (e.sym == Symbol::kBiExpr && ContainsAggregate(e)) {
    const std::string& op = e.value;
    if (op != "+" && op != "-" && op != "*" && op != "/") {
      // Matches the columnar compiler: only arithmetic combines aggregates.
      return Status::Unimplemented("operator " + op + " over aggregates");
    }
    IFGEN_ASSIGN_OR_RETURN(Value a, EvalAggregate(e.children[0], ev, rows));
    IFGEN_ASSIGN_OR_RETURN(Value b, EvalAggregate(e.children[1], ev, rows));
    if (!a.is_numeric() || !b.is_numeric()) {
      return Status::Invalid("arithmetic on non-numeric aggregate");
    }
    double x = a.AsDouble();
    double y = b.AsDouble();
    double r = op == "+" ? x + y : op == "-" ? x - y : op == "*" ? x * y : x / y;
    return Value(r);
  }
  // Non-aggregate expression inside an aggregate query: evaluate on the
  // first row of the group (it must be a grouping key for valid SQL).
  if (rows.empty()) return Value();
  return ev.Eval(e, rows[0]);
}

/// Clause counts (TOP/LIMIT) are either a number or a "?N" parameter.
Result<int64_t> ResolveCount(const std::string& text,
                             const std::vector<Value>& params) {
  if (!text.empty() && text[0] == '?') {
    IFGEN_ASSIGN_OR_RETURN(size_t idx, ParseParamMarker(text, params.size()));
    if (!params[idx].is_int()) {
      return Status::Invalid("TOP/LIMIT parameter must be an integer");
    }
    return params[idx].AsInt();
  }
  return ParseCountLiteral(text);
}

}  // namespace

Result<Table> Executor::Execute(const Ast& query) const {
  return Execute(query, {});
}

Result<Table> Executor::Execute(const Ast& query,
                                const std::vector<Value>& params) const {
  IFGEN_ASSIGN_OR_RETURN(QueryClauses c, SplitClauses(query));
  if (c.from->children.size() != 1) {
    return Status::Unimplemented("single-table FROM only");
  }
  IFGEN_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(c.from->children[0].value));
  RowEval ev(*table, params);

  // Filter.
  std::vector<size_t> rows;
  rows.reserve(table->num_rows());
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (c.where != nullptr && !c.where->children.empty()) {
      IFGEN_ASSIGN_OR_RETURN(Value keep, ev.Eval(c.where->children[0], r));
      if (!RowEval::Truthy(keep)) continue;
    }
    rows.push_back(r);
  }

  const std::vector<Ast>& items = c.project->children;
  bool has_agg = false;
  for (const Ast& item : items) has_agg |= ContainsAggregate(item);

  IFGEN_ASSIGN_OR_RETURN(OutputSpec spec,
                         BuildOutputSpec(*c.project, table->schema(), has_agg));
  Table out(spec.schema);

  if (has_agg || c.group != nullptr) {
    // Group rows by the GROUP BY key tuple (empty key = single group).
    std::map<std::vector<std::string>, std::vector<size_t>> groups;
    for (size_t r : rows) {
      std::vector<std::string> key;
      if (c.group != nullptr) {
        for (const Ast& g : c.group->children) {
          IFGEN_ASSIGN_OR_RETURN(Value v, ev.Eval(g, r));
          key.push_back(v.ToString());
        }
      }
      groups[key].push_back(r);
    }
    if (groups.empty() && c.group == nullptr) {
      groups[{}] = {};  // aggregates over an empty input produce one row
    }
    for (const auto& [key, group_rows] : groups) {
      std::vector<Value> row;
      for (const Ast* item : spec.items) {
        if (item == nullptr) {
          return Status::Invalid("SELECT * cannot be combined with aggregates");
        }
        IFGEN_ASSIGN_OR_RETURN(Value v, EvalAggregate(*item, ev, group_rows));
        row.push_back(std::move(v));
      }
      IFGEN_RETURN_NOT_OK(out.AppendRow(std::move(row)));
    }
  } else {
    std::set<std::string> seen;  // for DISTINCT
    const bool distinct = c.project->value == "distinct";
    for (size_t r : rows) {
      std::vector<Value> row;
      for (size_t i = 0; i < spec.items.size(); ++i) {
        if (spec.items[i] == nullptr) {
          row.push_back(table->At(r, row.size()));
        } else {
          IFGEN_ASSIGN_OR_RETURN(Value v, ev.Eval(*spec.items[i], r));
          row.push_back(std::move(v));
        }
      }
      if (distinct) {
        std::string key;
        for (const Value& v : row) key += v.ToString() + "\x01";
        if (!seen.insert(key).second) continue;
      }
      IFGEN_RETURN_NOT_OK(out.AppendRow(std::move(row)));
    }
  }

  // ORDER BY. Resolution is deliberately gated on >1 rows (matching the
  // original executor): a widget state can combine a projection variant
  // with a sticky ORDER BY over a column it no longer outputs, and such a
  // state must keep executing when the result needs no ordering anyway.
  if (c.order != nullptr && out.num_rows() > 1) {
    IFGEN_ASSIGN_OR_RETURN(std::vector<SortKey> keys,
                           ResolveSortKeys(*c.order, out.schema()));
    SortRows(&out, keys);
  }

  // TOP / LIMIT.
  int64_t limit = -1;
  if (c.top != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(limit, ResolveCount(c.top->value, params));
  }
  if (c.limit != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(int64_t l, ResolveCount(c.limit->value, params));
    limit = limit < 0 ? l : std::min(limit, l);
  }
  TruncateRows(&out, limit);
  return out;
}

Result<Table> Executor::ExecuteSql(std::string_view sql) const {
  IFGEN_ASSIGN_OR_RETURN(Ast q, ParseQuery(sql));
  return Execute(q);
}

}  // namespace ifgen
