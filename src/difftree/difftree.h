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

/// \brief What a sealed or shared child list caches about each of its
/// children.
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
/// A block is *sealed* once its tree is a finished search state (see
/// Seal): from then on it never changes in place. A sealed or shared block
/// caches the ChildFacts of its children the first time they are asked
/// for, so hashes and counts of a state cost O(changed path). A private
/// unsealed block never hands out its facts, since its owner may still
/// mutate it in place. Fills are published with atomics: trees of concurrent
/// searches share blocks.
///
/// Writing one child keeps the facts of the others. `operator[](i)` carries
/// the block's ready facts (and counts, when ready) into the private copy it
/// detaches to, or keeps a private block's, and marks only child i stale;
/// the next fill, once the block is sealed or shared again, recomputes the
/// stale entries alone. So a path copy re-derives the facts of the path, not
/// of its siblings. Whole-list access (Mutable, push_back) drops them.
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

  /// The children's cached facts, filling them first when this block is
  /// sealed or shared; null when the block is private and unsealed (or
  /// another thread is filling it), in which case callers compute the facts
  /// from the children.
  const ChildFacts* facts() const;
  /// facts() with each child's `apps` filled by `count(child)` first; null
  /// whenever facts() is (or another thread is filling the counts). The
  /// counts carry no key: `count` must be a pure function of the child's
  /// subtree, the same for every caller (RuleEngine's is).
  const ChildFacts* CountedFacts(FunctionRef<ApplicationCount(const DiffTree&)> count) const;
  /// ChoiceCount() of child i, from the cache when there is one.
  size_t ChoiceCountOf(size_t i) const;
  /// Normalize's cache: true once every child was found in normal form
  /// while the block was sealed or shared, or the block was sealed right
  /// after a Normalize (see Seal). MarkNormal records the former (a private
  /// unsealed block ignores it, like the facts cache).
  bool KnownNormal() const;
  void MarkNormal() const;

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
  /// handles; with `carry`, the copy keeps the block's ready facts.
  void Detach(bool carry);
  /// Sealed or shared: the block can no longer change in place.
  bool Caches() const;
  /// The children's facts when they are already cached, else null.
  const ChildFacts* CachedFacts() const;
  /// facts() of a sealed or shared block whose facts are not ready yet:
  /// computes them all, or only the stale ones of carried facts.
  const ChildFacts* FillFacts() const;

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
  size_t Depth() const;

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

  /// `cache` states; kCarried: `facts` holds one entry per kid, carried
  /// over from the block this one was copied from, and an entry whose
  /// `nodes` is 0 (no subtree has 0 nodes) is stale.
  enum : uint8_t { kEmpty = 0, kFilling = 1, kReady = 2, kCarried = 3 };
  /// A stale `apps` entry, recounted by the next CountedFacts fill.
  static constexpr uint32_t kUncounted = ~uint32_t{0};
  /// A facts entry the next fill recomputes, its count included.
  static constexpr ChildFacts kStale{0, 0, 0, 0, {kUncounted, 0}};

  std::atomic<uint32_t> refs{1};
  std::atomic<uint8_t> cache{kEmpty};
  /// The facts' `apps` fields: filled only after `cache` is kReady. Until
  /// `counts` is kReady, an entry is valid unless its total is kUncounted.
  std::atomic<uint8_t> counts{kEmpty};
  std::atomic<bool> normal{false};  ///< see KnownNormal
  std::atomic<bool> sealed{false};  ///< see Seal; never cleared
  std::vector<DiffTree> kids;
  /// One per kid; written by the one filler, read once `cache` is kReady.
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
inline bool ChildList::KnownNormal() const {
  return block_ != nullptr && block_->normal.load(std::memory_order_relaxed);
}
inline void ChildList::push_back(DiffTree child) { Mutable().push_back(std::move(child)); }
inline const ChildFacts* ChildList::CachedFacts() const {
  return block_ != nullptr && block_->cache.load(std::memory_order_acquire) == Block::kReady
             ? block_->facts.data()
             : nullptr;
}
inline bool ChildList::Caches() const {
  return block_->sealed.load(std::memory_order_relaxed) ||
         block_->refs.load(std::memory_order_relaxed) >= 2;
}
// Inline, since the matcher asks at every node: a ready cache or a private
// unsealed block answers without a call.
inline const ChildFacts* ChildList::facts() const {
  if (const ChildFacts* f = CachedFacts()) return f;
  return block_ != nullptr && Caches() ? FillFacts() : nullptr;
}

/// Seals every block of `tree`: from then on non-const access to any of
/// them copies it, so its caches fill and stay valid. The value does not
/// change. Sealing stops at blocks already sealed, so sealing a state made
/// from a sealed one walks only its new blocks. RuleEngine::Apply seals its
/// results and the searchers seal their initial state. `normal` says that
/// `tree` was just normalized, so the blocks it seals are also marked
/// KnownNormal; only Apply passes it (the initial state is not normalized).
void Seal(const DiffTree& tree, bool normal = false);

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

/// Lists all choice nodes in pre-order (their index is the "choice id" used
/// by bindings, the cost model and the interface runtime).
std::vector<const DiffTree*> ListChoiceNodes(const DiffTree& root);

/// Pre-order paths of all nodes (choice and non-choice).
void ListPaths(const DiffTree& root, std::vector<TreePath>* out);

/// Short human-readable label for a difftree node's content, with choice
/// nodes rendered as placeholders; used for widget labels.
std::string DiffTreeLabel(const DiffTree& node, size_t max_len = 24);

}  // namespace ifgen
