#include "rules/align.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace ifgen {

uint64_t AlignKey(const DiffTree& n) {
  if (n.kind == DKind::kAll) {
    return HashCombine(0xa11a11a1ULL, static_cast<uint64_t>(n.sym));
  }
  return HashCombine(0xc01ceULL, static_cast<uint64_t>(n.kind));
}

namespace {

/// Longest common subsequence between the current column keys and an
/// alternative's child keys; returns pairs (column index, child index).
std::vector<std::pair<size_t, size_t>> LcsPairs(const std::vector<uint64_t>& a,
                                                const std::vector<uint64_t>& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  // One flat (n+1) x (m+1) table, reused by every call on this thread.
  thread_local std::vector<int> table;
  table.assign((n + 1) * (m + 1), 0);
  auto dp = [&](size_t i, size_t j) -> int& { return table[i * (m + 1) + j]; };
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      if (a[i] == b[j]) {
        dp(i, j) = dp(i + 1, j + 1) + 1;
      } else {
        dp(i, j) = std::max(dp(i + 1, j), dp(i, j + 1));
      }
    }
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(std::min(n, m));
  size_t i = 0;
  size_t j = 0;
  while (i < n && j < m) {
    if (a[i] == b[j] && dp(i, j) == dp(i + 1, j + 1) + 1) {
      pairs.emplace_back(i, j);
      ++i;
      ++j;
    } else if (dp(i + 1, j) >= dp(i, j + 1)) {
      ++i;
    } else {
      ++j;
    }
  }
  return pairs;
}

}  // namespace

std::vector<AlignedColumn> AlignBySymbol(
    const std::vector<const std::vector<DiffTree>*>& alt_children) {
  const size_t num_alts = alt_children.size();
  std::vector<AlignedColumn> columns;
  // Seed with alternative 0.
  for (size_t j = 0; j < alt_children[0]->size(); ++j) {
    AlignedColumn col;
    col.key = AlignKey((*alt_children[0])[j]);
    col.entry.assign(num_alts, std::nullopt);
    col.entry[0] = j;
    columns.push_back(std::move(col));
  }
  for (size_t a = 1; a < num_alts; ++a) {
    const std::vector<DiffTree>& kids = *alt_children[a];
    std::vector<uint64_t> col_keys;
    col_keys.reserve(columns.size());
    for (const AlignedColumn& c : columns) col_keys.push_back(c.key);
    std::vector<uint64_t> kid_keys;
    kid_keys.reserve(kids.size());
    for (const DiffTree& k : kids) kid_keys.push_back(AlignKey(k));

    auto pairs = LcsPairs(col_keys, kid_keys);
    // Merge: walk columns and children with LCS anchors; unmatched children
    // are inserted as new columns before the next anchored column.
    std::vector<AlignedColumn> merged;
    size_t ci = 0;
    size_t ki = 0;
    auto push_new_column = [&](size_t child_idx) {
      AlignedColumn col;
      col.key = kid_keys[child_idx];
      col.entry.assign(num_alts, std::nullopt);
      col.entry[a] = child_idx;
      merged.push_back(std::move(col));
    };
    for (const auto& [pc, pk] : pairs) {
      while (ci < pc) merged.push_back(std::move(columns[ci++]));
      while (ki < pk) push_new_column(ki++);
      AlignedColumn col = std::move(columns[ci++]);
      col.entry[a] = ki++;
      merged.push_back(std::move(col));
    }
    while (ci < columns.size()) merged.push_back(std::move(columns[ci++]));
    while (ki < kids.size()) push_new_column(ki++);
    columns = std::move(merged);
  }
  return columns;
}

std::vector<AlignedColumn> AlignByPosition(
    const std::vector<const std::vector<DiffTree>*>& alt_children) {
  const size_t num_alts = alt_children.size();
  size_t max_len = 0;
  for (const auto* kids : alt_children) max_len = std::max(max_len, kids->size());
  std::vector<AlignedColumn> columns(max_len);
  for (size_t j = 0; j < max_len; ++j) {
    columns[j].entry.assign(num_alts, std::nullopt);
    for (size_t a = 0; a < num_alts; ++a) {
      if (j < alt_children[a]->size()) {
        columns[j].entry[a] = j;
        columns[j].key = AlignKey((*alt_children[a])[j]);
      }
    }
  }
  return columns;
}

DiffTree ColumnToNode(const std::vector<const std::vector<DiffTree>*>& alt_children,
                      const AlignedColumn& col) {
  std::vector<DiffTree> distinct;
  bool missing_somewhere = false;
  for (size_t a = 0; a < col.entry.size(); ++a) {
    if (!col.entry[a].has_value()) {
      missing_somewhere = true;
      continue;
    }
    const DiffTree& node = (*alt_children[a])[*col.entry[a]];
    bool seen = false;
    for (const DiffTree& d : distinct) {
      if (d == node) {
        seen = true;
        break;
      }
    }
    if (!seen) distinct.push_back(node);
  }
  IFGEN_CHECK(!distinct.empty());
  if (!missing_somewhere && distinct.size() == 1) {
    return distinct[0];
  }
  if (missing_somewhere) distinct.push_back(DiffTree::Empty());
  if (distinct.size() == 1) return distinct[0];
  return DiffTree::Any(std::move(distinct));
}

}  // namespace ifgen
