#pragma once

#include <cstdint>
#include <vector>

#include "difftree/difftree.h"

namespace ifgen {

/// \brief Alignment machinery shared by the Any2All rule.
///
/// Columns are an order-preserving multi-sequence alignment of the child
/// lists of an ANY node's alternatives: restricted to any single
/// alternative, the present column entries reproduce that alternative's
/// children in order. That property is what makes Any2All language-safe.

/// Key used to decide whether two children may share a column: ALL nodes
/// align by root symbol (values may differ — that variation becomes the
/// widget domain); choice nodes align by kind.
uint64_t AlignKey(const DiffTree& n);

/// \brief An alignment of `alts` child lists into columns, held flat so
/// that aligning reuses storage. Column c's entry for alternative a is that
/// alternative's child index, or kAbsent when it lacks the column.
struct Alignment {
  static constexpr uint32_t kAbsent = UINT32_MAX;
  size_t alts = 0;
  std::vector<uint64_t> keys;     ///< one AlignKey per column
  std::vector<uint32_t> entries;  ///< column-major, `alts` entries per column

  size_t columns() const { return keys.size(); }
  const uint32_t* column(size_t c) const { return entries.data() + c * alts; }
};

/// \brief LCS-based alignment ("symbol" mode) into `out`: children with equal
/// keys are anchored; unmatched children become columns absent from the
/// other alternatives.
void AlignBySymbol(const std::vector<const std::vector<DiffTree>*>& alt_children,
                   Alignment* out);

/// \brief Positional alignment into `out`: column j holds every
/// alternative's j-th child regardless of symbol; shorter alternatives are
/// absent from the tail columns. This pairs e.g. `objid` with `count(*)`
/// into one widget domain (paper, Figure 6a).
void AlignByPosition(const std::vector<const std::vector<DiffTree>*>& alt_children,
                     Alignment* out);

/// Materializes column `col` as a difftree child: the shared node when all
/// alternatives agree, otherwise ANY over the distinct entries (with an
/// Empty alternative when some alternative lacks the column).
DiffTree ColumnToNode(const std::vector<const std::vector<DiffTree>*>& alt_children,
                      const Alignment& alignment, size_t col);

}  // namespace ifgen
