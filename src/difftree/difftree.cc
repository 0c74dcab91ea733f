#include "difftree/difftree.h"

#include <algorithm>
#include <numeric>

#include "sql/unparser.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ifgen {

std::string_view DKindName(DKind k) {
  switch (k) {
    case DKind::kAll:
      return "ALL";
    case DKind::kAny:
      return "ANY";
    case DKind::kOpt:
      return "OPT";
    case DKind::kMulti:
      return "MULTI";
  }
  return "?";
}

ChildList::ChildList(std::vector<DiffTree> kids)
    : block_(kids.empty() ? nullptr : new Block(std::move(kids))) {}

ChildList::ChildList(std::initializer_list<DiffTree> kids)
    : ChildList(std::vector<DiffTree>(kids)) {}

ChildList& ChildList::operator=(const ChildList& other) noexcept {
  // Take the new block before dropping the old one: `other` may live in it.
  Block* next = other.block_;
  if (next != nullptr) next->refs.fetch_add(1, std::memory_order_relaxed);
  Release(block_);
  block_ = next;
  return *this;
}

ChildList& ChildList::operator=(ChildList&& other) noexcept {
  Block* next = other.block_;
  other.block_ = nullptr;
  Release(block_);
  block_ = next;
  return *this;
}

void ChildList::Detach(bool carry) {
  const uint8_t state = block_->state.load(std::memory_order_acquire);
  if (state == Block::kOpen && block_->refs.load(std::memory_order_acquire) == 1) return;
  // Shared or sealed: copy the k child handles; the grandchildren stay
  // shared.
  Block* copy = new Block(block_->kids);
  if (carry && state == Block::kSealed) {
    // Field by field: another thread may be filling the source's counts.
    const bool counted = block_->counts.load(std::memory_order_acquire) == Block::kCounted;
    copy->facts.resize(block_->facts.size());
    for (size_t i = 0; i < copy->facts.size(); ++i) {
      const ChildFacts& f = block_->facts[i];
      copy->facts[i] = {f.hash, f.canonical_hash, f.nodes, f.choices,
                        counted ? f.apps : Block::kStale.apps};
    }
  }
  Release(block_);
  block_ = copy;
}

std::vector<DiffTree>& ChildList::Mutable() {
  if (block_ == nullptr) block_ = new Block({});
  Detach(/*carry=*/false);
  block_->facts.clear();
  return block_->kids;
}

DiffTree& ChildList::operator[](size_t i) {
  Detach(/*carry=*/true);
  // Private and open now: the carried facts stay for the next Seal, all but
  // child i's.
  if (!block_->facts.empty()) block_->facts[i] = Block::kStale;
  return block_->kids[i];
}

const ChildFacts* ChildList::CountedFacts(
    FunctionRef<ApplicationCount(const DiffTree&)> count) const {
  // The counts live in the facts array, so they fill after Seal; a filler
  // writes only the `apps` fields, which facts() readers never touch.
  const ChildFacts* ready = facts();
  if (ready == nullptr) return nullptr;
  uint8_t state = block_->counts.load(std::memory_order_acquire);
  if (state == Block::kCounted) return ready;
  if (state != Block::kNoCounts ||
      !block_->counts.compare_exchange_strong(state, Block::kCounting,
                                              std::memory_order_acquire)) {
    return state == Block::kCounted ? ready : nullptr;
  }
  for (size_t i = 0; i < block_->kids.size(); ++i) {
    // Counts carried from the block this one copies stay.
    if (block_->facts[i].apps.total == Block::kUncounted) {
      block_->facts[i].apps = count(block_->kids[i]);
    }
  }
  block_->counts.store(Block::kCounted, std::memory_order_release);
  return ready;
}

void Seal(const DiffTree& tree, bool normal) {
  ChildList::Block* block = tree.children.block_;
  if (block == nullptr) return;
  // One claim per block: a thread that loses it skips the block, whose
  // facts its readers compute from the children until it is published.
  uint8_t open = ChildList::Block::kOpen;
  if (!block->state.compare_exchange_strong(open, ChildList::Block::kSealing,
                                            std::memory_order_acquire)) {
    return;
  }
  for (const DiffTree& c : block->kids) Seal(c, normal);
  std::vector<ChildFacts>& facts = block->facts;
  if (facts.empty()) facts.assign(block->kids.size(), ChildList::Block::kStale);
  for (size_t i = 0; i < facts.size(); ++i) {
    if (facts[i].nodes != 0) continue;  // carried, still valid
    const DiffTree& c = block->kids[i];
    facts[i] = {c.Hash(), c.CanonicalHash(), static_cast<uint32_t>(c.NodeCount()),
                static_cast<uint32_t>(c.ChoiceCount()), ChildList::Block::kStale.apps};
  }
  block->normal = normal;
  block->state.store(ChildList::Block::kSealed, std::memory_order_release);
}

size_t ChildList::ChoiceCountOf(size_t i) const {
  const ChildFacts* f = facts();
  return f != nullptr ? f[i].choices : (*this)[i].ChoiceCount();
}

bool ChildList::operator==(const ChildList& other) const {
  if (block_ == other.block_) return true;
  const size_t n = size();
  if (n != other.size()) return false;
  const ChildFacts* mine = facts();
  const ChildFacts* theirs = other.facts();
  if (mine != nullptr && theirs != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (mine[i].hash != theirs[i].hash) return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(block_->kids[i] == other.block_->kids[i])) return false;
  }
  return true;
}

DiffTree DiffTree::Opt(DiffTree child) {
  return DiffTree(DKind::kOpt, {std::move(child)});
}

DiffTree DiffTree::Multi(DiffTree child) {
  return DiffTree(DKind::kMulti, {std::move(child)});
}

DiffTree DiffTree::Seq(ChildList kids) {
  return DiffTree(Symbol::kSeq, "", std::move(kids));
}

DiffTree DiffTree::FromAst(const Ast& ast) {
  std::vector<DiffTree> kids;
  kids.reserve(ast.children.size());
  for (const Ast& c : ast.children) kids.push_back(FromAst(c));
  return DiffTree(ast.sym, ast.value, std::move(kids));
}

bool DiffTree::operator==(const DiffTree& other) const {
  return kind == other.kind && sym == other.sym && value == other.value &&
         children == other.children;
}

// Hash, CanonicalHash, NodeCount and ChoiceCount read each child's value from
// the child list's cache when it is sealed; the fold is the same either way.

uint64_t DiffTree::Hash() const {
  uint64_t h = HashCombine(0x1f3d5b79a2c4e6f8ULL, static_cast<uint64_t>(kind));
  h = HashCombine(h, static_cast<uint64_t>(sym));
  h = HashCombine(h, HashBytes(value));
  if (const ChildFacts* f = children.facts()) {
    for (size_t i = 0; i < children.size(); ++i) h = HashCombine(h, f[i].hash);
  } else {
    for (const DiffTree& c : children) h = HashCombine(h, c.Hash());
  }
  return h;
}

uint64_t DiffTree::CanonicalHash() const {
  uint64_t h = HashCombine(0x2e4a6c8d1b3f5e7aULL, static_cast<uint64_t>(kind));
  h = HashCombine(h, static_cast<uint64_t>(sym));
  h = HashCombine(h, HashBytes(value));
  const ChildFacts* f = children.facts();
  auto child_hash = [&](size_t i) {
    return f != nullptr ? f[i].canonical_hash : children[i].CanonicalHash();
  };
  const size_t n = children.size();
  if (kind == DKind::kAny) {
    // Fold the alternatives' hashes in sorted order; most ANY nodes fit the
    // stack buffer.
    constexpr size_t kInline = 32;
    uint64_t inline_hs[kInline];
    std::vector<uint64_t> heap_hs;
    uint64_t* hs = inline_hs;
    if (n > kInline) {
      heap_hs.resize(n);
      hs = heap_hs.data();
    }
    for (size_t i = 0; i < n; ++i) hs[i] = child_hash(i);
    std::sort(hs, hs + n);
    for (size_t i = 0; i < n; ++i) h = HashCombine(h, hs[i]);
  } else {
    for (size_t i = 0; i < n; ++i) h = HashCombine(h, child_hash(i));
  }
  return h;
}

size_t DiffTree::NodeCount() const {
  size_t n = 1;
  if (const ChildFacts* f = children.facts()) {
    for (size_t i = 0; i < children.size(); ++i) n += f[i].nodes;
  } else {
    for (const DiffTree& c : children) n += c.NodeCount();
  }
  return n;
}

size_t DiffTree::ChoiceCount() const {
  size_t n = IsChoice() ? 1 : 0;
  if (const ChildFacts* f = children.facts()) {
    for (size_t i = 0; i < children.size(); ++i) n += f[i].choices;
  } else {
    for (const DiffTree& c : children) n += c.ChoiceCount();
  }
  return n;
}

Result<std::vector<Ast>> DiffTree::ToAstSequence() const {
  if (IsChoice()) {
    return Status::Invalid("ToAstSequence on a choice node (" +
                           std::string(DKindName(kind)) + ")");
  }
  if (sym == Symbol::kEmpty) return std::vector<Ast>{};
  std::vector<Ast> expanded;
  for (const DiffTree& c : children) {
    IFGEN_ASSIGN_OR_RETURN(std::vector<Ast> seq, c.ToAstSequence());
    for (Ast& a : seq) expanded.push_back(std::move(a));
  }
  if (sym == Symbol::kSeq) return expanded;
  return std::vector<Ast>{Ast(sym, value, std::move(expanded))};
}

Result<Ast> DiffTree::ToAst() const {
  IFGEN_ASSIGN_OR_RETURN(std::vector<Ast> seq, ToAstSequence());
  if (seq.size() != 1) {
    return Status::Invalid(StrFormat("subtree expands to %zu nodes, expected 1",
                                     seq.size()));
  }
  return std::move(seq[0]);
}

namespace {

void DumpNode(const DiffTree& n, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  if (n.kind == DKind::kAll) {
    *out += SymbolName(n.sym);
    if (!n.value.empty()) {
      *out += ":";
      *out += n.value;
    }
  } else {
    *out += DKindName(n.kind);
  }
  *out += "\n";
  for (const DiffTree& c : n.children) {
    DumpNode(c, indent + 1, out);
  }
}

void SExprNode(const DiffTree& n, std::string* out) {
  *out += "(";
  if (n.kind == DKind::kAll) {
    *out += SymbolName(n.sym);
    if (!n.value.empty()) {
      *out += ":";
      *out += n.value;
    }
  } else {
    *out += DKindName(n.kind);
  }
  for (const DiffTree& c : n.children) {
    *out += " ";
    SExprNode(c, out);
  }
  *out += ")";
}

}  // namespace

std::string DiffTree::ToString() const {
  std::string out;
  DumpNode(*this, 0, &out);
  return out;
}

std::string DiffTree::ToSExpr() const {
  std::string out;
  SExprNode(*this, &out);
  return out;
}

const DiffTree* NodeAt(const DiffTree& root, const TreePath& path) {
  const DiffTree* n = &root;
  for (int idx : path) {
    if (idx < 0 || static_cast<size_t>(idx) >= n->children.size()) return nullptr;
    n = &n->children[static_cast<size_t>(idx)];
  }
  return n;
}

DiffTree* MutableNodeAt(DiffTree* root, const TreePath& path) {
  DiffTree* n = root;
  for (int idx : path) {
    if (idx < 0 || static_cast<size_t>(idx) >= n->children.size()) return nullptr;
    n = &n->children[static_cast<size_t>(idx)];
  }
  return n;
}

namespace {
void LabelNode(const DiffTree& n, std::string* out) {
  if (out->size() > 64) return;  // labels are truncated anyway
  switch (n.kind) {
    case DKind::kAny:
      *out += "▾";  // small down triangle: a choice
      return;
    case DKind::kOpt:
      *out += "[?]";
      return;
    case DKind::kMulti:
      *out += "[*]";
      return;
    case DKind::kAll:
      break;
  }
  if (n.sym == Symbol::kEmpty) {
    *out += "(none)";
    return;
  }
  if (n.sym == Symbol::kSeq) {
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i > 0) *out += " ";
      LabelNode(n.children[i], out);
    }
    return;
  }
  // Choice-free AST subtrees render as SQL fragments.
  if (n.ChoiceCount() == 0) {
    auto ast = n.ToAst();
    if (ast.ok()) {
      *out += UnparseFragment(*ast);
      return;
    }
  }
  *out += SymbolName(n.sym);
  if (!n.value.empty()) {
    *out += ":" + n.value;
  }
  if (!n.children.empty()) {
    *out += "(";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i > 0) *out += " ";
      LabelNode(n.children[i], out);
    }
    *out += ")";
  }
}
}  // namespace

namespace {

/// Writes the indices of `node`'s n children, sorted by CanonicalHash with
/// ties in tree order, to `order`: the order CanonicalHash folds an ANY's
/// alternatives in. `hs` is scratch for n hashes. A stable insertion sort:
/// an ANY has few alternatives, and it needs no buffers of its own.
void CanonicalOrder(const DiffTree& node, uint64_t* hs, uint32_t* order) {
  const ChildFacts* f = node.children.facts();
  const size_t n = node.children.size();
  for (size_t i = 0; i < n; ++i) {
    hs[i] = f != nullptr ? f[i].canonical_hash : node.children[i].CanonicalHash();
    order[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = 1; i < n; ++i) {
    const uint32_t x = order[i];
    size_t j = i;
    for (; j > 0 && hs[x] < hs[order[j - 1]]; --j) order[j] = order[j - 1];
    order[j] = x;
  }
}

/// Appends the rank of each of the ANY `node`'s alternatives (at most 256,
/// as ranks are bytes) in the canonical order. Out of line, so the stack
/// buffers are not live across RecordAnyOrderRec's recursion.
[[gnu::noinline]] void RecordRanks(const DiffTree& node, AnyOrder* out) {
  uint64_t hs[256];
  uint32_t order[256];
  CanonicalOrder(node, hs, order);
  const size_t n = node.children.size();
  const size_t at = out->size();
  out->resize(at + n);
  for (size_t r = 0; r < n; ++r) (*out)[at + order[r]] = static_cast<uint8_t>(r);
}

bool RecordAnyOrderRec(const DiffTree& node, AnyOrder* out) {
  const size_t n = node.children.size();
  if (node.kind == DKind::kAny) {
    if (n > 256) return false;
    RecordRanks(node, out);
  }
  // A choice-free subtree holds no ANY, so it records nothing.
  for (size_t i = 0; i < n; ++i) {
    if (node.children.ChoiceCountOf(i) != 0 &&
        !RecordAnyOrderRec(node.children[i], out)) {
      return false;
    }
  }
  return true;
}

struct OrderCursor {
  const uint8_t* at;
  const uint8_t* end;
};

/// Writes `node` in the recorded order to `*out` and returns 1; returns 0
/// (`*out` untouched) when it already is in that order, -1 when the record
/// does not fit. Walks the ANY nodes in the pre-order of the rebuilt tree,
/// which is the recorded tree's.
int ReorderAnyRec(const DiffTree& node, OrderCursor* c, DiffTree* out) {
  const size_t n = node.children.size();
  std::vector<uint32_t> src(n);
  std::iota(src.begin(), src.end(), 0u);
  bool changed = false;
  if (node.kind == DKind::kAny) {
    if (static_cast<size_t>(c->end - c->at) < n) return -1;
    std::vector<uint64_t> hs(n);
    std::vector<uint32_t> canonical(n);
    CanonicalOrder(node, hs.data(), canonical.data());
    std::vector<bool> taken(n, false);
    for (size_t i = 0; i < n; ++i) {
      const size_t rank = c->at[i];
      if (rank >= n || taken[rank]) return -1;
      taken[rank] = true;
      src[i] = canonical[rank];
      changed |= src[i] != i;
    }
    c->at += n;
  }
  std::vector<DiffTree> kids;
  kids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    kids.push_back(node.children[src[i]]);
    if (node.children.ChoiceCountOf(src[i]) == 0) continue;
    const int r = ReorderAnyRec(node.children[src[i]], c, &kids.back());
    if (r < 0) return -1;
    changed |= r > 0;
  }
  if (!changed) return 0;
  DiffTree rebuilt(node.kind, std::move(kids));
  rebuilt.sym = node.sym;
  rebuilt.value = node.value;
  *out = std::move(rebuilt);
  return 1;
}

}  // namespace

bool RecordAnyOrder(const DiffTree& tree, AnyOrder* out) {
  return RecordAnyOrderRec(tree, out);
}

bool ReorderAny(const DiffTree& tree, const AnyOrder& order, DiffTree* out) {
  OrderCursor c{order.data(), order.data() + order.size()};
  DiffTree rebuilt;
  const int r = ReorderAnyRec(tree, &c, &rebuilt);
  if (r < 0 || c.at != c.end) return false;
  *out = r > 0 ? std::move(rebuilt) : tree;
  return true;
}

std::string DiffTreeLabel(const DiffTree& node, size_t max_len) {
  std::string out;
  LabelNode(node, &out);
  return Ellipsize(out, max_len);
}

}  // namespace ifgen
