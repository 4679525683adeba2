// Index expressions: integer expressions over iteration-scope iterators used
// to address multidimensional arrays.
//
// Internally iterators refer to scopes by stable NodeId; the textual format
// renders them as `{depth}` relative to the accessing operation, exactly as
// in the paper. Keeping ids internal makes transformations (which restructure
// the scope tree) robust: moving a scope does not invalidate references.
//
// An IndexExpr is an immutable 16-byte value: a kind byte plus one payload
// word holding the constant, the scope id, or a pointer to a shared,
// atomically refcounted pair of children. Copying, moving and destroying an
// expression therefore cost at most one refcount update, and rewrites
// (`substitute`, `simplified`) share every subtree they leave untouched.
// Shared pairs are never written after construction, so copies may be read,
// copied and dropped from any number of threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/common.h"

namespace perfdojo::ir {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0;

class IndexExpr {
 public:
  enum class Kind : std::uint8_t { Const, Iter, Add, Sub, Mul, Div, Mod };

  /// The constant 0. A moved-from expression is left in this state.
  IndexExpr() noexcept : kind_(Kind::Const), u_{} {}
  IndexExpr(const IndexExpr& o) noexcept : kind_(o.kind_), u_(o.u_) {
    if (isBinary()) retain(u_.pair);
  }
  IndexExpr(IndexExpr&& o) noexcept : kind_(o.kind_), u_(o.u_) {
    o.kind_ = Kind::Const;
    o.u_.value = 0;
  }
  IndexExpr& operator=(const IndexExpr& o) noexcept {
    IndexExpr copy(o);
    swap(copy);
    return *this;
  }
  IndexExpr& operator=(IndexExpr&& o) noexcept {
    IndexExpr taken(std::move(o));
    swap(taken);
    return *this;
  }
  ~IndexExpr() {
    if (isBinary()) release(u_.pair);
  }

  static IndexExpr constant(std::int64_t v);
  static IndexExpr iter(NodeId scope);
  static IndexExpr binary(Kind k, IndexExpr a, IndexExpr b);
  static IndexExpr add(IndexExpr a, IndexExpr b);
  static IndexExpr sub(IndexExpr a, IndexExpr b);
  static IndexExpr mul(IndexExpr a, IndexExpr b);
  static IndexExpr div(IndexExpr a, IndexExpr b);
  static IndexExpr mod(IndexExpr a, IndexExpr b);

  Kind kind() const { return kind_; }
  std::int64_t constValue() const;
  NodeId iterScope() const;
  const IndexExpr& lhs() const;
  const IndexExpr& rhs() const;

  bool isConst() const { return kind_ == Kind::Const; }
  bool isIter() const { return kind_ == Kind::Iter; }

  /// True if this is exactly `iter(scope)`.
  bool isIterOf(NodeId scope) const {
    return kind_ == Kind::Iter && u_.iter == scope;
  }

  /// Collects every scope id referenced anywhere in the expression.
  void collectIters(std::vector<NodeId>& out) const;
  bool usesIter(NodeId scope) const;

  /// Replaces every occurrence of `iter(from)` with `repl` (deep). Subtrees
  /// without `iter(from)` are shared, not copied; returns `*this` when the
  /// iterator does not occur.
  IndexExpr substitute(NodeId from, const IndexExpr& repl) const;

  /// Evaluates given the current value of each iterator (lookup callback).
  template <typename Lookup>
  std::int64_t eval(const Lookup& lookup) const;

  /// Constant-folds trivial identities (x*1, x+0, c⊕c, ...). Returns `*this`
  /// when nothing folds.
  IndexExpr simplified() const;

  /// If the expression is affine in its iterators, i.e. a sum of
  /// coef*iter plus a constant (division and modulo make it non-affine),
  /// adds the coefficient of `iter(scope)` (0 when the iterator does not
  /// occur) to `coef` and returns true; otherwise returns false. Allocates
  /// nothing, for the legality predicates enumeration runs millions of
  /// times.
  bool affineCoef(NodeId scope, std::int64_t& coef) const;
  bool isAffine() const {
    std::int64_t ignored = 0;
    return affineCoef(kInvalidNode, ignored);
  }

  bool operator==(const IndexExpr& other) const;

 private:
  struct Pair;

  bool isBinary() const { return kind_ > Kind::Iter; }
  /// True if `o` is this very node: an equal leaf, or the same shared pair.
  bool sameNode(const IndexExpr& o) const;
  /// False only if simplified() returns `*this`: no rule of it applies
  /// anywhere in the expression. Copies nothing.
  bool mayFold() const;
  IndexExpr simplifiedFolding() const;
  void swap(IndexExpr& o) noexcept {
    std::swap(kind_, o.kind_);
    std::swap(u_, o.u_);
  }
  static void retain(Pair* p) noexcept;
  static void release(Pair* p) noexcept;

  Kind kind_;
  union Payload {
    std::int64_t value;  // Const
    NodeId iter;         // Iter
    Pair* pair;          // Add, Sub, Mul, Div, Mod
  } u_;
};

/// The children of a binary node, freed by the last IndexExpr that drops it.
struct IndexExpr::Pair {
  std::atomic<std::uint32_t> refs{1};
  IndexExpr kid[2];
};

static_assert(sizeof(IndexExpr) == 16, "IndexExpr is a kind byte plus one payload word");

inline std::int64_t IndexExpr::constValue() const {
  require(kind_ == Kind::Const, "IndexExpr::constValue on non-const");
  return u_.value;
}

inline NodeId IndexExpr::iterScope() const {
  require(kind_ == Kind::Iter, "IndexExpr::iterScope on non-iter");
  return u_.iter;
}

inline const IndexExpr& IndexExpr::lhs() const {
  require(isBinary(), "IndexExpr::lhs on leaf");
  return u_.pair->kid[0];
}

inline const IndexExpr& IndexExpr::rhs() const {
  require(isBinary(), "IndexExpr::rhs on leaf");
  return u_.pair->kid[1];
}

inline void IndexExpr::retain(Pair* p) noexcept {
  p->refs.fetch_add(1, std::memory_order_relaxed);
}

inline void IndexExpr::release(Pair* p) noexcept {
  if (p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete p;
}

template <typename Lookup>
std::int64_t IndexExpr::eval(const Lookup& lookup) const {
  switch (kind_) {
    case Kind::Const: return u_.value;
    case Kind::Iter: return lookup(u_.iter);
    case Kind::Add: return u_.pair->kid[0].eval(lookup) + u_.pair->kid[1].eval(lookup);
    case Kind::Sub: return u_.pair->kid[0].eval(lookup) - u_.pair->kid[1].eval(lookup);
    case Kind::Mul: return u_.pair->kid[0].eval(lookup) * u_.pair->kid[1].eval(lookup);
    case Kind::Div: return u_.pair->kid[0].eval(lookup) / u_.pair->kid[1].eval(lookup);
    case Kind::Mod: return u_.pair->kid[0].eval(lookup) % u_.pair->kid[1].eval(lookup);
  }
  return 0;
}

}  // namespace perfdojo::ir
