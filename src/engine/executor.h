#pragma once

#include "engine/table.h"
#include "sql/ast.h"
#include "util/status.h"

namespace ifgen {

/// \brief Executes a parsed query of the supported subset against a Database.
///
/// Pipeline: scan single FROM table -> WHERE filter -> GROUP BY + aggregate
/// (or plain projection) -> ORDER BY -> TOP/LIMIT. Supported aggregates:
/// count(*), count(col), sum, avg, min, max. DISTINCT applies to plain
/// projections.
///
/// This is the *reference* backend: row-at-a-time Value interpretation,
/// deliberately simple. The vectorized columnar and SQLite backends
/// (engine/backend.h) must match its results on every supported query.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  Result<Table> Execute(const Ast& query) const;

  /// Executes a parameterized shape (Symbol::kParam placeholders, 1-based)
  /// with the given bindings; the backend layer's "rebind, don't re-plan"
  /// path (see ParameterizeQuery in engine/backend.h).
  Result<Table> Execute(const Ast& query, const std::vector<Value>& params) const;

  /// Convenience: parse + execute. Callers that re-execute go through
  /// ExecutionBackend, whose plan cache keys the parameterized shape.
  Result<Table> ExecuteSql(std::string_view sql) const;

 private:
  const Database* db_;
};

}  // namespace ifgen
