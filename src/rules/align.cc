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
/// alternative's child keys, as pairs (column index, child index) in `pairs`.
void LcsPairs(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b,
              std::vector<std::pair<size_t, size_t>>* pairs) {
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
  pairs->clear();
  size_t i = 0;
  size_t j = 0;
  while (i < n && j < m) {
    if (a[i] == b[j] && dp(i, j) == dp(i + 1, j + 1) + 1) {
      pairs->emplace_back(i, j);
      ++i;
      ++j;
    } else if (dp(i + 1, j) >= dp(i, j + 1)) {
      ++i;
    } else {
      ++j;
    }
  }
}

/// Appends a column keyed `key` that no alternative holds yet.
void AddAbsentColumn(Alignment* out, uint64_t key) {
  out->keys.push_back(key);
  out->entries.resize(out->entries.size() + out->alts, Alignment::kAbsent);
}

}  // namespace

void AlignBySymbol(const std::vector<const std::vector<DiffTree>*>& alt_children,
                   Alignment* out) {
  const size_t num_alts = alt_children.size();
  out->alts = num_alts;
  out->keys.clear();
  out->entries.clear();
  // Seed with alternative 0.
  for (size_t j = 0; j < alt_children[0]->size(); ++j) {
    AddAbsentColumn(out, AlignKey((*alt_children[0])[j]));
    out->entries[j * num_alts] = static_cast<uint32_t>(j);
  }
  // Reused by every call on this thread: each alternative merges the
  // columns so far and its children into `merged`, which then swaps with
  // `out`.
  thread_local Alignment merged;
  thread_local std::vector<uint64_t> kid_keys;
  thread_local std::vector<std::pair<size_t, size_t>> pairs;
  merged.alts = num_alts;
  for (size_t a = 1; a < num_alts; ++a) {
    const std::vector<DiffTree>& kids = *alt_children[a];
    kid_keys.clear();
    for (const DiffTree& k : kids) kid_keys.push_back(AlignKey(k));
    LcsPairs(out->keys, kid_keys, &pairs);
    // Merge: walk columns and children with LCS anchors; unmatched children
    // are inserted as new columns before the next anchored column.
    merged.keys.clear();
    merged.entries.clear();
    size_t ci = 0;
    size_t ki = 0;
    auto take_column = [&](size_t c) {
      merged.keys.push_back(out->keys[c]);
      merged.entries.insert(merged.entries.end(), out->column(c), out->column(c) + num_alts);
    };
    auto place_child = [&](size_t child_idx) {
      merged.entries[(merged.columns() - 1) * num_alts + a] = static_cast<uint32_t>(child_idx);
    };
    for (const auto& [pc, pk] : pairs) {
      while (ci < pc) take_column(ci++);
      while (ki < pk) {
        AddAbsentColumn(&merged, kid_keys[ki]);
        place_child(ki++);
      }
      take_column(ci++);
      place_child(ki++);
    }
    while (ci < out->columns()) take_column(ci++);
    while (ki < kids.size()) {
      AddAbsentColumn(&merged, kid_keys[ki]);
      place_child(ki++);
    }
    std::swap(out->keys, merged.keys);
    std::swap(out->entries, merged.entries);
  }
}

void AlignByPosition(const std::vector<const std::vector<DiffTree>*>& alt_children,
                     Alignment* out) {
  const size_t num_alts = alt_children.size();
  size_t max_len = 0;
  for (const auto* kids : alt_children) max_len = std::max(max_len, kids->size());
  out->alts = num_alts;
  out->keys.assign(max_len, 0);
  out->entries.assign(max_len * num_alts, Alignment::kAbsent);
  for (size_t j = 0; j < max_len; ++j) {
    for (size_t a = 0; a < num_alts; ++a) {
      if (j < alt_children[a]->size()) {
        out->entries[j * num_alts + a] = static_cast<uint32_t>(j);
        out->keys[j] = AlignKey((*alt_children[a])[j]);
      }
    }
  }
}

DiffTree ColumnToNode(const std::vector<const std::vector<DiffTree>*>& alt_children,
                      const Alignment& alignment, size_t col) {
  // The distinct entries by address, reused by every call on this thread;
  // only an ANY built from them copies them.
  thread_local std::vector<const DiffTree*> distinct;
  distinct.clear();
  bool missing_somewhere = false;
  const uint32_t* entry = alignment.column(col);
  for (size_t a = 0; a < alignment.alts; ++a) {
    if (entry[a] == Alignment::kAbsent) {
      missing_somewhere = true;
      continue;
    }
    const DiffTree& node = (*alt_children[a])[entry[a]];
    bool seen = false;
    for (const DiffTree* d : distinct) {
      if (*d == node) {
        seen = true;
        break;
      }
    }
    if (!seen) distinct.push_back(&node);
  }
  IFGEN_CHECK(!distinct.empty());
  if (!missing_somewhere && distinct.size() == 1) return *distinct[0];
  std::vector<DiffTree> alts;
  alts.reserve(distinct.size() + (missing_somewhere ? 1 : 0));
  for (const DiffTree* d : distinct) alts.push_back(*d);
  if (missing_somewhere) alts.push_back(DiffTree::Empty());
  return DiffTree::Any(std::move(alts));
}

}  // namespace ifgen
