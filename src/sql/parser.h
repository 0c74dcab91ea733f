#pragma once

#include <string_view>
#include <vector>

#include "sql/ast.h"
#include "util/status.h"

namespace ifgen {

/// \brief Parses one SQL query of the supported subset into an AST.
///
/// Supported grammar (keywords case-insensitive):
///
///   query   := SELECT [TOP num] [DISTINCT] items FROM table
///              [WHERE expr] [GROUP BY cols] [ORDER BY keys] [LIMIT num] [;]
///   items   := item (',' item)*            item := expr [AS ident]
///   expr    := or; or := and (OR and)*; and := not (AND not)*
///   not     := [NOT] cmp
///   cmp     := add [ (=|<>|<|<=|>|>=|LIKE) add
///                  | BETWEEN add AND add
///                  | [NOT] IN '(' literal (',' literal)* ')' ]
///   add     := mul (('+'|'-') mul)*        mul := prim (('*'|'/') prim)*
///   prim    := number | string | '*' | ident['(' args ')'] | '(' expr ')'
///
/// AND/OR chains are flattened into n-ary kAnd/kOr nodes so that repeated
/// conjuncts are adjacent siblings (a precondition for the Multi rule).
///
/// Expression nesting is capped at 128 levels (parentheses, function
/// arguments and NOT chains each count one per level); deeper input is a
/// ParseError rather than a stack overflow.
Result<Ast> ParseQuery(std::string_view sql);

/// \brief Parses a list of queries; fails on the first malformed query,
/// identifying it by index.
Result<std::vector<Ast>> ParseQueries(const std::vector<std::string>& sqls);

}  // namespace ifgen
