#include "core/cooccurrence.h"

#include <algorithm>

#include "difftree/match.h"

namespace ifgen {

namespace {

/// The selections of the first parse of `query` as (id, code) pairs sorted
/// by id, their codes from `codes`; false when `tree` cannot express it.
bool FirstParseKeys(const DiffTree& tree, const Ast& query, StickyState* codes,
                    std::vector<std::pair<int, int>>* keys) {
  ParseTrail trail;
  std::vector<StickyState::Selection> sels;
  const size_t parses = ForEachParse(tree, query, 1, &trail, [&](const ParseTrail& t) {
    codes->Score(t, &sels);
    return true;
  });
  if (parses == 0) return false;
  keys->clear();
  for (const StickyState::Selection& s : sels) keys->emplace_back(s.id, s.code);
  std::sort(keys->begin(), keys->end());
  return true;
}

}  // namespace

CooccurrenceModel::CooccurrenceModel(const DiffTree& tree,
                                     const std::vector<Ast>& queries)
    : tree_(&tree), codes_(tree) {
  std::vector<Key> keys;
  for (const Ast& q : queries) {
    if (!FirstParseKeys(tree, q, &codes_, &keys)) continue;
    ++observations_;
    for (size_t i = 0; i < keys.size(); ++i) {
      ++single_counts_[keys[i]];
      for (size_t j = i + 1; j < keys.size(); ++j) {
        ++pair_counts_[{keys[i], keys[j]}];
      }
    }
  }
}

double CooccurrenceModel::Score(const std::vector<Key>& keys) const {
  if (observations_ == 0) return 0.0;
  // A selection value never seen in the log at all marks the combination as
  // fully novel.
  for (const Key& k : keys) {
    if (single_counts_.find(k) == single_counts_.end()) return 0.0;
  }
  if (keys.size() < 2) return 1.0;

  // Mean conditional co-occurrence over pairs: |a & b| / min(|a|, |b|).
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      auto it = pair_counts_.find({keys[i], keys[j]});
      size_t together = it == pair_counts_.end() ? 0 : it->second;
      size_t denom = std::min(single_counts_.at(keys[i]),
                              single_counts_.at(keys[j]));
      total += denom == 0 ? 0.0
                          : static_cast<double>(together) /
                                static_cast<double>(denom);
      ++pairs;
    }
  }
  return pairs == 0 ? 1.0 : total / static_cast<double>(pairs);
}

double CooccurrenceModel::ScoreQuery(const Ast& query) const {
  // A copy, so scoring interns a new MULTI selection (one the log never
  // held, so it scores 0) without changing the model.
  StickyState codes = codes_;
  std::vector<Key> keys;
  if (!FirstParseKeys(*tree_, query, &codes, &keys)) return 0.0;
  return Score(keys);
}

CooccurrenceModel::Partition CooccurrenceModel::PartitionQueries(
    const std::vector<Ast>& queries, double threshold) const {
  Partition p;
  for (const Ast& q : queries) {
    if (ScoreQuery(q) >= threshold) {
      p.likely.push_back(q);
    } else {
      p.unlikely.push_back(q);
    }
  }
  return p;
}

}  // namespace ifgen
