#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace ifgen {

/// \brief Difftree node kinds (paper, "The Interface Generation Problem").
///
/// ANY chooses one of its children; OPT has a single optional child; MULTI
/// has a single child chosen zero or more times; ALL requires all children.
/// ANY/OPT/MULTI are *choice nodes*. An AST is the special case of a
/// difftree consisting solely of ALL nodes.
enum class DKind : uint8_t { kAll = 0, kAny, kOpt, kMulti };

std::string_view DKindName(DKind k);

struct DiffTree;

/// \brief Rule applications in a subtree: all of them and the forward ones
/// (see RuleEngine::CountApplications).
struct ApplicationCount {
  uint32_t total = 0;
  uint32_t forward = 0;

  ApplicationCount& operator+=(const ApplicationCount& o) {
    total += o.total;
    forward += o.forward;
    return *this;
  }
};

/// \brief What a sealed child list caches about each of its children.
struct ChildFacts {
  uint64_t hash = 0;            ///< DiffTree::Hash()
  uint64_t canonical_hash = 0;  ///< DiffTree::CanonicalHash()
  uint32_t nodes = 0;           ///< DiffTree::NodeCount()
  uint32_t choices = 0;         ///< DiffTree::ChoiceCount()
  /// RuleEngine::CountApplications() of the child; valid only in the
  /// array CountedFacts returns.
  ApplicationCount apps;
};

/// \brief The children of a difftree node: a copy-on-write list.
///
/// Copies share one immutable block, so copying a whole tree costs O(1).
/// Const access never copies. Any non-const access first *detaches*: a block
/// that other lists share, or that is sealed, is replaced by a private copy
/// of its k child handles (the grandchildren stay shared). A rewrite
/// therefore copies only the path it edits.
///
/// One rule for the caches: a block caches only once *sealed* (see Seal),
/// when its tree is a finished search state and it never changes in place
/// again. Seal fills the ChildFacts of its children, so hashes and counts of
/// a state cost O(changed path), and only Seal writes the normal mark. An
/// open block hands out no facts and is never KnownNormal. Trees of
/// concurrent searches share blocks, so a seal is published with atomics.
///
/// Writing one child keeps the facts of the others. `operator[](i)` carries
/// a sealed block's facts (and counts, when ready) into the private copy it
/// detaches to, or keeps a private block's carried ones, and marks only
/// child i stale; the next Seal recomputes the stale entries alone. So a
/// path copy re-derives the facts of the path, not of its siblings.
/// Whole-list access (Mutable, push_back) drops them.
///
/// Rule for callers: never hold a `DiffTree&` (or pointer) obtained through
/// non-const access across a copy of one of its ancestors, or across a Seal
/// or RuleEngine::Apply of its tree. The copy shares the block, and writing
/// through the old reference would change both trees.
class ChildList {
 public:
  ChildList() noexcept = default;
  ChildList(std::vector<DiffTree> kids);  // NOLINT: implicit by design
  ChildList(std::initializer_list<DiffTree> kids);
  ChildList(const ChildList& other) noexcept;
  ChildList(ChildList&& other) noexcept : block_(other.block_) { other.block_ = nullptr; }
  ChildList& operator=(const ChildList& other) noexcept;
  ChildList& operator=(ChildList&& other) noexcept;
  ~ChildList() { Release(block_); }

  // Const access: never copies and never drops a cache.
  const std::vector<DiffTree>& view() const;
  operator const std::vector<DiffTree>&() const { return view(); }  // NOLINT
  size_t size() const;
  bool empty() const { return size() == 0; }
  const DiffTree& operator[](size_t i) const;
  const DiffTree* begin() const;
  const DiffTree* end() const;

  /// The children's facts when this block is sealed; null when it is open
  /// (or another thread is still sealing it), in which case callers compute
  /// the facts from the children.
  const ChildFacts* facts() const;
  /// facts() with each child's `apps` filled by `count(child)` first; null
  /// whenever facts() is (or another thread is filling the counts). The
  /// counts carry no key: `count` must be a pure function of the child's
  /// subtree, the same for every caller (RuleEngine's is).
  const ChildFacts* CountedFacts(FunctionRef<ApplicationCount(const DiffTree&)> count) const;
  /// ChoiceCount() of child i, from the cache when there is one.
  size_t ChoiceCountOf(size_t i) const;
  /// Normalize's cache: true when the block was sealed with every child in
  /// normal form (see Seal).
  bool KnownNormal() const;

  // Non-const access: detaches first (see the class comment). Iteration is
  // const only, so a read-only loop never detaches; loop over Mutable() to
  // edit the children.
  std::vector<DiffTree>& Mutable();
  DiffTree& operator[](size_t i);
  void push_back(DiffTree child);

  /// Element-wise equality; shared blocks are equal, and differing cached
  /// hashes are unequal without a walk.
  bool operator==(const ChildList& other) const;

 private:
  friend void Seal(const DiffTree& tree, bool normal);
  struct Block;
  static void Release(Block* block);
  /// Replaces a sealed or shared block with a private copy of its child
  /// handles; with `carry`, the copy keeps a sealed block's facts.
  void Detach(bool carry);

  Block* block_ = nullptr;  ///< null for no children
};

/// \brief A difftree: jointly encodes the variation among a set of query
/// ASTs and the hierarchical layout of the interface that expresses them.
///
/// Semantics: every node denotes a set of *sequences* of AST nodes.
///  - ALL(sym,value,[c...]) denotes the singleton sequences [Ast(sym,value,
///    concat(expansions of c...))]. Two symbols are special: kSeq denotes the
///    concatenation of its children's expansions without emitting a node
///    (transparent group), and kEmpty denotes the empty sequence.
///  - ANY denotes the union of its children's sequence sets.
///  - OPT denotes its child's set plus the empty sequence.
///  - MULTI denotes the Kleene closure (0+ concatenated repetitions).
///
/// Value-semantic like Ast, but search states share their unchanged
/// subtrees: `children` is a copy-on-write list (see ChildList), so a copy
/// costs O(1) and a rewrite copies only the path it edits. One block may sit
/// at several positions of one tree (All2Any copies a sibling list into every
/// host), so a node's address does not name its position: choice ids are
/// positional (see ChoiceIndex).
struct DiffTree {
  DKind kind = DKind::kAll;
  Symbol sym = Symbol::kEmpty;  ///< meaningful only when kind == kAll
  std::string value;            ///< meaningful only when kind == kAll
  ChildList children;

  DiffTree() = default;
  DiffTree(DKind k, ChildList kids) : kind(k), children(std::move(kids)) {}
  DiffTree(Symbol s, std::string v) : sym(s), value(std::move(v)) {}
  DiffTree(Symbol s, std::string v, ChildList kids)
      : sym(s), value(std::move(v)), children(std::move(kids)) {}

  /// Factory helpers.
  static DiffTree Any(ChildList alts) { return DiffTree(DKind::kAny, std::move(alts)); }
  static DiffTree Opt(DiffTree child);
  static DiffTree Multi(DiffTree child);
  static DiffTree Seq(ChildList kids);
  static DiffTree Empty() { return DiffTree(Symbol::kEmpty, ""); }

  /// Wraps an AST as an all-ALL difftree.
  static DiffTree FromAst(const Ast& ast);

  bool IsChoice() const { return kind != DKind::kAll; }
  bool IsSeq() const { return kind == DKind::kAll && sym == Symbol::kSeq; }
  bool IsEmptyLeaf() const { return kind == DKind::kAll && sym == Symbol::kEmpty; }

  bool operator==(const DiffTree& other) const;
  bool operator!=(const DiffTree& other) const { return !(*this == other); }

  /// Structural hash; children order-sensitive (used for equality buckets).
  uint64_t Hash() const;

  /// Canonical hash used by the MCTS transposition table: invariant under
  /// reordering of ANY alternatives (their order never affects semantics).
  uint64_t CanonicalHash() const;

  size_t NodeCount() const;
  size_t ChoiceCount() const;

  /// Converts a choice-free difftree back to a single AST (splicing Seq and
  /// dropping Empty). Errors if the subtree contains choice nodes or does
  /// not expand to exactly one node.
  Result<Ast> ToAst() const;

  /// Expands the subtree to its node sequence; requires choice-free.
  Result<std::vector<Ast>> ToAstSequence() const;

  /// Indented multi-line structure dump, e.g.
  ///   ANY
  ///     ALL Select
  ///       ALL Project ...
  std::string ToString() const;

  /// One-line s-expression, e.g. `(ANY (Select ...) (Select ...))`.
  std::string ToSExpr() const;
};

/// The shared block behind a ChildList.
struct ChildList::Block {
  explicit Block(std::vector<DiffTree> k) : kids(std::move(k)) {}

  /// `state`: an open block may still change in place; Seal claims it
  /// (kSealing), fills it and publishes it (kSealed), which is final.
  enum : uint8_t { kOpen = 0, kSealing = 1, kSealed = 2 };
  /// `counts`: the lazy fill of the facts' `apps` fields.
  enum : uint8_t { kNoCounts = 0, kCounting = 1, kCounted = 2 };
  /// A stale `apps` entry, recounted by the next CountedFacts fill.
  static constexpr uint32_t kUncounted = ~uint32_t{0};
  /// A facts entry the next Seal recomputes, its count included; no subtree
  /// has 0 nodes.
  static constexpr ChildFacts kStale{0, 0, 0, 0, {kUncounted, 0}};

  std::atomic<uint32_t> refs{1};
  std::atomic<uint8_t> state{kOpen};
  /// Until `counts` is kCounted, an `apps` entry is valid unless its total
  /// is kUncounted.
  std::atomic<uint8_t> counts{kNoCounts};
  bool normal = false;  ///< see KnownNormal; written by Seal before kSealed
  std::vector<DiffTree> kids;
  /// One per kid once sealed. An open block holds none, or the entries
  /// carried from the sealed block it was copied from (see kStale).
  std::vector<ChildFacts> facts;
};

inline ChildList::ChildList(const ChildList& other) noexcept : block_(other.block_) {
  if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
}
inline void ChildList::Release(Block* block) {
  if (block != nullptr && block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete block;
  }
}
inline const std::vector<DiffTree>& ChildList::view() const {
  static const std::vector<DiffTree> kNone;
  return block_ != nullptr ? block_->kids : kNone;
}
inline size_t ChildList::size() const {
  return block_ != nullptr ? block_->kids.size() : 0;
}
inline const DiffTree& ChildList::operator[](size_t i) const { return block_->kids[i]; }
inline const DiffTree* ChildList::begin() const {
  return block_ != nullptr ? block_->kids.data() : nullptr;
}
inline const DiffTree* ChildList::end() const {
  return block_ != nullptr ? block_->kids.data() + block_->kids.size() : nullptr;
}
// Inline, since the matcher asks at every node.
inline const ChildFacts* ChildList::facts() const {
  return block_ != nullptr && block_->state.load(std::memory_order_acquire) == Block::kSealed
             ? block_->facts.data()
             : nullptr;
}
inline bool ChildList::KnownNormal() const {
  return block_ != nullptr &&
         block_->state.load(std::memory_order_acquire) == Block::kSealed && block_->normal;
}
inline void ChildList::push_back(DiffTree child) { Mutable().push_back(std::move(child)); }

/// Seals every block of `tree` and fills its facts: from then on non-const
/// access to any of them copies it, so its caches stay valid. The value does
/// not change. Sealing stops at blocks already sealed (or being sealed by
/// another thread), so sealing a state made from a sealed one walks only its
/// new blocks. RuleEngine::Apply seals its results and the searchers seal
/// their initial state. `normal` says whether `tree` is in normal form; when
/// it is, the blocks it seals are also marked KnownNormal. Every caller says
/// which: Apply passes true right after its Normalize, and a caller that
/// does not know computes it as SearchRun::Start does,
/// `Normalized(tree) == tree`.
void Seal(const DiffTree& tree, bool normal);

/// \brief Where a tree's ANY alternatives sit, which CanonicalHash forgets:
/// per ANY node in pre-order, each alternative's rank in CanonicalHash order
/// (ties ranked in tree order), one byte per alternative.
using AnyOrder = std::vector<uint8_t>;

/// Appends `tree`'s AnyOrder to `*out`. Returns false, leaving `*out`
/// unspecified, when an ANY has more than 256 alternatives.
bool RecordAnyOrder(const DiffTree& tree, AnyOrder* out);

/// Rebuilds `tree` with the AnyOrder `order` recorded from a tree of the
/// same CanonicalHash: `*out` then equals the recorded tree (operator==,
/// Hash()). Subtrees already in order are shared, not copied. Returns false
/// when `order` does not fit `tree` (a different canonical shape).
bool ReorderAny(const DiffTree& tree, const AnyOrder& order, DiffTree* out);

/// \brief A path from the root: the sequence of child indices.
using TreePath = std::vector<int>;

/// Node lookup by path; returns nullptr when the path is invalid.
const DiffTree* NodeAt(const DiffTree& root, const TreePath& path);
DiffTree* MutableNodeAt(DiffTree* root, const TreePath& path);

/// Short human-readable label for a difftree node's content, with choice
/// nodes rendered as placeholders; used for widget labels.
std::string DiffTreeLabel(const DiffTree& node, size_t max_len = 24);

}  // namespace ifgen
