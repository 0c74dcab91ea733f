#include "search/priors.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/hash.h"

namespace ifgen {

namespace {

/// Caps keeping prior evaluation O(1)-ish per site: label collection stops
/// after this many subtree nodes / labels, and affinity sampling considers
/// at most this many children and labels per child.
constexpr size_t kMaxSiteNodes = 256;
constexpr size_t kMaxQueryLabels = 48;
constexpr size_t kMaxAffinityChildren = 6;
constexpr size_t kMaxLabelsPerChild = 4;

// Prior formula constants; docs/search.md gives the reason for each value.
constexpr double kWidenC = 3.0;      ///< see ProgressiveWideningLimit
constexpr double kWidenAlpha = 0.5;
constexpr double kFreqWeight = 1.0;  ///< label-frequency site signal
constexpr double kCoocWeight = 1.0;  ///< co-occurrence signal, forward rules
constexpr double kMinPrior = 0.02;   ///< floor on each raw prior

uint64_t LabelKey(Symbol sym, std::string_view value) {
  return HashCombine(HashBytes(value), static_cast<uint64_t>(sym));
}

uint64_t PairKey(uint64_t a, uint64_t b) {
  return HashCombine(std::min(a, b), std::max(a, b));
}

/// Collects the literal-leaf label keys of an AST (deduplicated, capped).
void CollectAstLabels(const Ast& node, std::vector<uint64_t>* out) {
  if (out->size() >= kMaxQueryLabels) return;
  if (IsLiteralSymbol(node.sym)) {
    uint64_t k = LabelKey(node.sym, node.value);
    if (std::find(out->begin(), out->end(), k) == out->end()) out->push_back(k);
  }
  for (const Ast& c : node.children) CollectAstLabels(c, out);
}

/// Same over a difftree subtree (ALL leaves carry the literal labels),
/// additionally bounded by a node-count budget.
void CollectTreeLabels(const DiffTree& node, size_t* budget,
                       std::vector<uint64_t>* out) {
  if (*budget == 0) return;
  --*budget;
  if (node.kind == DKind::kAll && node.children.empty() &&
      IsLiteralSymbol(node.sym)) {
    out->push_back(LabelKey(node.sym, node.value));
  }
  for (const DiffTree& c : node.children) CollectTreeLabels(c, budget, out);
}

/// Base weight per rule name. Forward/factoring rules lead; the expanding
/// inverse All2Any trails (an escape, not a destination), and so does Noop,
/// which only unwraps a singleton ANY. Values swept by bench_ablation; the
/// ordering, not the decimals, is what matters.
double BaseRuleWeight(std::string_view name) {
  if (name == "Merge") return 2.2;
  if (name == "Any2All") return 1.8;
  if (name == "Lift") return 1.8;
  if (name == "Multi") return 1.2;
  if (name == "Optional") return 1.0;
  if (name == "All2Any") return 0.5;
  if (name == "Noop") return 0.3;
  return 1.0;
}

}  // namespace

size_t ProgressiveWideningLimit(size_t visits) {
  const double limit =
      kWidenC * std::pow(static_cast<double>(visits) + 1.0, kWidenAlpha);
  if (limit < 1.0) return 1;
  if (limit > 1e9) return static_cast<size_t>(1e9);
  return static_cast<size_t>(std::ceil(limit));
}

ActionPriorModel::ActionPriorModel(const RuleEngine& rules,
                                   const std::vector<Ast>& queries,
                                   const PriorOptions& opts)
    : rules_(&rules) {
  rule_weight_.reserve(rules.num_rules());
  for (size_t r = 0; r < rules.num_rules(); ++r) {
    // Trace-learned weights (learn/prior_fit.h) take precedence by rule
    // name; the hand-set BaseRuleWeight stays the documented fallback for
    // every rule the fitter has not seen.
    const std::string_view name = rules.rule(r).name();
    double w = BaseRuleWeight(name);
    for (const auto& [learned_name, learned_w] : opts.learned_weights) {
      if (learned_name == name) {
        w = learned_w;
        break;
      }
    }
    rule_weight_.push_back(w);
  }
  for (const Ast& q : queries) {
    std::vector<uint64_t> labels;
    CollectAstLabels(q, &labels);
    if (labels.empty()) continue;
    ++observations_;
    for (size_t i = 0; i < labels.size(); ++i) {
      size_t n = ++single_counts_[labels[i]];
      max_single_ = std::max(max_single_, n);
      for (size_t j = i + 1; j < labels.size(); ++j) {
        ++pair_counts_[PairKey(labels[i], labels[j])];
      }
    }
  }
}

double ActionPriorModel::RuleWeight(int rule_index) const {
  if (rule_index < 0 || static_cast<size_t>(rule_index) >= rule_weight_.size()) {
    return 1.0;
  }
  return rule_weight_[static_cast<size_t>(rule_index)];
}

double ActionPriorModel::LabelFrequency(Symbol sym, std::string_view value) const {
  auto it = single_counts_.find(LabelKey(sym, value));
  if (it == single_counts_.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(max_single_);
}

ActionPriorModel::SiteSignal ActionPriorModel::SignalFor(const DiffTree& site) const {
  SiteSignal s;
  // Frequency: mean normalized log frequency of the site's literal labels.
  size_t budget = kMaxSiteNodes;
  std::vector<uint64_t> labels;
  CollectTreeLabels(site, &budget, &labels);
  if (!labels.empty()) {
    double sum = 0.0;
    for (uint64_t k : labels) {
      auto it = single_counts_.find(k);
      if (it != single_counts_.end()) {
        sum += static_cast<double>(it->second) / static_cast<double>(max_single_);
      }
    }
    s.freq = sum / static_cast<double>(labels.size());
  }
  // Affinity: mean pairwise co-occurrence of the children's label samples.
  // A high value means the site's children tend to appear in the same log
  // queries — factoring them shares widgets across queries that actually
  // use them together.
  size_t n_children = std::min(site.children.size(), kMaxAffinityChildren);
  if (n_children >= 2) {
    std::vector<std::vector<uint64_t>> child_labels(n_children);
    for (size_t c = 0; c < n_children; ++c) {
      size_t child_budget = kMaxLabelsPerChild * 4;
      CollectTreeLabels(site.children[c], &child_budget, &child_labels[c]);
      if (child_labels[c].size() > kMaxLabelsPerChild) {
        child_labels[c].resize(kMaxLabelsPerChild);
      }
    }
    double total = 0.0;
    size_t pairs = 0;
    for (size_t a = 0; a < n_children; ++a) {
      for (size_t b = a + 1; b < n_children; ++b) {
        for (uint64_t ka : child_labels[a]) {
          for (uint64_t kb : child_labels[b]) {
            auto sa = single_counts_.find(ka);
            auto sb = single_counts_.find(kb);
            ++pairs;
            if (sa == single_counts_.end() || sb == single_counts_.end()) continue;
            auto pit = pair_counts_.find(PairKey(ka, kb));
            size_t together = pit == pair_counts_.end() ? 0 : pit->second;
            size_t denom = std::min(sa->second, sb->second);
            if (denom > 0) {
              total += static_cast<double>(together) / static_cast<double>(denom);
            }
          }
        }
      }
    }
    if (pairs > 0) s.affinity = total / static_cast<double>(pairs);
  }
  return s;
}

std::vector<double> ActionPriorModel::Evaluate(
    const DiffTree& state, const std::vector<RuleApplication>& apps) const {
  std::vector<double> priors(apps.size(), 0.0);
  if (apps.empty()) return priors;
  // Many applications target the same site; compute each site's signals once.
  std::map<TreePath, SiteSignal> site_cache;
  double sum = 0.0;
  for (size_t i = 0; i < apps.size(); ++i) {
    const RuleApplication& app = apps[i];
    auto it = site_cache.find(app.path);
    if (it == site_cache.end()) {
      const DiffTree* site = NodeAt(state, app.path);
      SiteSignal sig = site != nullptr ? SignalFor(*site) : SiteSignal{};
      it = site_cache.emplace(app.path, sig).first;
    }
    double boost = 1.0 + kFreqWeight * it->second.freq;
    if (rules_->IsForward(app)) {
      boost += kCoocWeight * it->second.affinity;
    }
    priors[i] = std::max(kMinPrior, RuleWeight(app.rule_index) * boost);
    sum += priors[i];
  }
  for (double& p : priors) p /= sum;
  return priors;
}

}  // namespace ifgen
